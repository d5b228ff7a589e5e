"""Table 5 — single-query inference latency.

Times the speaker / listener / speaker+listener pipelines (matching
stage, with the stage-i proposal time reported separately in
parentheses, as in the paper) against YOLLO with the ResNet-50- and
ResNet-101-style backbones.  The parenthesised proposal time runs an
untrained RPN of the Faster-R-CNN stand-in's architecture on the
full-resolution image; its timing does not depend on its weights.
"""

from __future__ import annotations

from typing import Dict, List

from repro.eval import TimingReport, format_table, time_grounder
from repro.experiments.context import ExperimentContext
from repro.twostage import RPNProposer

DATASET = "RefCOCO"


def collect(context: ExperimentContext) -> Dict[str, TimingReport]:
    """Timing reports per model row."""
    dataset = context.dataset(DATASET)
    samples = dataset["val"][: context.preset.timing_samples]
    # Stage-i stand-in for the parenthesised Faster-RCNN time.
    rpn = RPNProposer(backbone="resnet50",
                      image_height=dataset.spec.image_height,
                      image_width=dataset.spec.image_width)

    results: Dict[str, TimingReport] = {}
    for kind in ("speaker", "listener", "speaker+listener"):
        grounder = context.baseline(kind, DATASET)
        rpn_timer = lambda sample: _time_rpn(rpn, sample)
        results[kind] = time_grounder(
            grounder, samples, proposal_timer=rpn_timer
        )

    for backbone, label in (("resnet50", "YOLLO (ResNet-50 C4 backbone)"),
                            ("resnet101", "YOLLO (ResNet-101 C4 backbone)")):
        if backbone == "resnet50":
            _, grounder, _ = context.yollo(DATASET)
            yollo50 = grounder
        else:
            _, grounder, _ = context.yollo(
                DATASET, tag="timing-resnet101",
                epochs=0, backbone="resnet101",
            )
        results[label] = time_grounder(grounder, samples)

    # Graph-compiled variant of the ResNet-50 row: same weights, same
    # bit-exact outputs, traced/fused/arena-executed forward pass.
    yollo50.compile()
    try:
        yollo50(samples[:1])  # compile outside the timing
        results["YOLLO (ResNet-50, compiled)"] = time_grounder(
            yollo50, samples
        )
    finally:
        yollo50.uncompile()
    return results


def _time_rpn(rpn: RPNProposer, sample) -> float:
    import time

    start = time.perf_counter()
    rpn.propose(sample.image)
    return time.perf_counter() - start


def run(context: ExperimentContext) -> str:
    """Render the Table-5 report.

    The "Model ms" column comes from :mod:`repro.obs` spans
    (``yollo.forward`` / ``twostage.match``): time spent inside the
    network, versus the end-to-end per-query latency whose difference is
    decode/dispatch overhead — the same attribution the paper uses to
    charge two-stage pipelines for proposal generation.
    """
    results = collect(context)
    yollo_mean = results["YOLLO (ResNet-50 C4 backbone)"].latency.mean
    rows: List[List[object]] = []
    for name, report in results.items():
        extra = f" (+{report.proposal_mean * 1000:.1f}ms)" if report.proposal_mean else ""
        speedup = report.total_mean / max(yollo_mean, 1e-9)
        rows.append(
            [
                name,
                f"{report.latency.mean * 1000:.1f}ms{extra}",
                f"{report.model_mean * 1000:.1f}ms",
                f"{speedup:.1f}x",
            ]
        )
    return format_table(
        ["Model", "Seconds/query (matching + proposals)", "Model ms", "vs YOLLO-50"],
        rows,
        title="Table 5: single-query inference latency (CPU)",
    )
