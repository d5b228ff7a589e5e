"""Table 2 — overall comparison + generalisation; benchmarks YOLLO inference."""

from conftest import write_artifact

from repro.experiments import table2

import pytest

pytestmark = pytest.mark.slow


def test_table2_overall(context, results_dir, benchmark):
    results = table2.collect(context)
    report = table2.run(context)
    write_artifact(results_dir, "table2.txt", report)

    if context.preset.name != "smoke":
        # The paper's headline shape: one-stage YOLLO beats the
        # two-stage baselines.  At the bench preset's reduced training
        # budget we assert the averaged in-domain comparison (the FULL
        # preset reproduces a per-split win; see EXPERIMENTS.md).
        import numpy as np

        yollo_mean = np.mean(list(results["YOLLO"].values()))
        for kind in table2.BASELINE_KINDS:
            baseline_mean = np.mean(
                [results[kind][column] for column in results["YOLLO"]]
            )
            assert yollo_mean > baseline_mean, (
                f"YOLLO should beat {kind} on average: "
                f"{yollo_mean:.1f} vs {baseline_mean:.1f}"
            )

    _, grounder, _ = context.yollo("RefCOCO")
    sample = context.dataset("RefCOCO")["val"][0]
    benchmark(lambda: grounder([sample]))
