"""Figure 4 — training curves; benchmarks one YOLLO training step."""

from conftest import write_artifact

from repro.core.trainer import YolloTrainer
from repro.experiments import figure4

import pytest

pytestmark = pytest.mark.slow


def test_figure4_curves(context, results_dir, benchmark):
    curves = figure4.collect(context)
    report = figure4.run(context)
    write_artifact(results_dir, "figure4.txt", report)

    if context.preset.name != "smoke":
        for curve in curves.values():
            assert curve.values, "training curves must have recorded points"
            # Fast convergence claim: 95% of best reached within budget.
            assert curve.convergence_iteration() <= curve.iterations[-1]

    model, _, _ = context.yollo("RefCOCO")
    dataset = context.dataset("RefCOCO")
    trainer = YolloTrainer(model, dataset)
    # An effectively unbounded run: the benchmark decides how many steps.
    trainer.begin_run(iterations=10**9)
    benchmark(lambda: trainer.apply_step(trainer.forward_backward()))
