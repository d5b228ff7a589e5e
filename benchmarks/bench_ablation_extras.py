"""Extra design-choice ablations beyond the paper's Table 4.

Probes called out in DESIGN.md: Rel2Att stack depth, the rho_high
anchor-labelling threshold (the paper's Section 4.3 discussion), and the
backbone family swap (ResNet vs VGG footnote).  Each arm trains at the
ablation budget on RefCOCO.
"""

from conftest import write_artifact

from repro.eval import format_table

import pytest

pytestmark = pytest.mark.slow

ARMS = (
    ("YOLLO (3 Rel2Att, resnet)", "extra-base", {}),
    ("YOLLO (1 Rel2Att)", "extra-depth1", {"num_rel2att": 1}),
    ("YOLLO (rho_high=0.7)", "extra-rho07", {"rho_high": 0.7}),
    ("YOLLO (VGG backbone)", "extra-vgg", {"backbone": "vgg"}),
)

DATASET = "RefCOCO"


def test_ablation_extras(context, results_dir, benchmark):
    rows = []
    reports = {}
    for label, tag, overrides in ARMS:
        _, grounder, _ = context.yollo(
            DATASET, tag=tag, epochs=context.preset.ablation_epochs, **overrides
        )
        report = context.evaluate(grounder, DATASET, "val")
        reports[label] = report
        rows.append([label, report.acc_at_50 * 100, report.acc_at_75 * 100,
                     report.miou * 100])

    table = format_table(
        ["Variant", "ACC@0.5", "ACC@0.75", "MIOU"],
        rows,
        title="Extra ablations (RefCOCO val, equal training budget)",
    )
    write_artifact(results_dir, "ablation_extras.txt", table)

    _, grounder, _ = context.yollo(DATASET, tag="extra-base",
                                   epochs=context.preset.ablation_epochs)
    sample = context.dataset(DATASET)["val"][0]
    benchmark(lambda: grounder([sample]))
