"""Checkpoint overhead — cost of the fault-tolerant runtime layer.

Trains the same small YOLLO configuration under the supervisor at
``checkpoint_every`` in {0, 10, 50} and reports per-checkpoint wall
time plus the checkpoint overhead: the supervisor's measured
checkpoint seconds over the checkpoint-free run's wall time.  That
shows whether the runtime layer stays off the hot path.
"""

import shutil
import tempfile

from conftest import write_artifact

from repro.core import YolloConfig, YolloModel, YolloTrainer
from repro.data import REFCOCO, build_dataset
from repro.eval.reporting import format_table
from repro.runtime import TrainingSupervisor
from repro.utils import seed_everything

import pytest

pytestmark = pytest.mark.slow

ITERATIONS = 50
CADENCES = (0, 10, 50)


def _make_trainer():
    seed_everything(3)
    dataset = build_dataset(REFCOCO.scaled(0.05))
    cfg = YolloConfig(
        backbone="tiny", d_model=16, d_rel=24, ffn_hidden=24, head_hidden=24,
        num_rel2att=2, batch_size=8,
        max_query_length=max(6, dataset.max_query_length),
    )
    model = YolloModel(cfg, vocab_size=len(dataset.vocab))
    return YolloTrainer(model, dataset, cfg)


def test_checkpoint_overhead(results_dir):
    rows = []
    baseline_wall = None
    for cadence in CADENCES:
        trainer = _make_trainer()
        trainer.begin_run(iterations=ITERATIONS)
        workdir = tempfile.mkdtemp(prefix="ckpt-bench-")
        try:
            supervisor = TrainingSupervisor(
                trainer,
                checkpoint_dir=workdir if cadence else None,
                checkpoint_every=cadence,
            )
            report = supervisor.run()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        assert report.iterations == ITERATIONS
        if cadence == 0:
            baseline_wall = report.wall_seconds
        per_write_ms = (
            report.checkpoint_seconds / report.checkpoint_writes * 1000.0
            if report.checkpoint_writes else 0.0
        )
        # The supervisor times its checkpoint writes itself.  The
        # difference of two single runs' wall times would mostly show
        # host noise: runs of unchanged code moved by -24% to +9%.
        overhead = report.checkpoint_seconds / baseline_wall * 100.0
        rows.append([
            str(cadence) if cadence else "off",
            report.checkpoint_writes,
            per_write_ms,
            report.wall_seconds,
            overhead,
        ])

    table = format_table(
        ["checkpoint_every", "writes", "ms/write", "wall s", "overhead %"],
        rows,
        title=f"Checkpoint overhead ({ITERATIONS} iterations, small YOLLO)",
    )
    write_artifact(results_dir, "checkpoint_overhead.txt", table)

    # The runtime layer must stay off the hot path: even the densest
    # cadence may not dominate the run.
    densest = rows[1]
    assert densest[3] < 3.0 * baseline_wall, (
        f"checkpointing every 10 iterations tripled the wall time: "
        f"{densest[3]:.2f}s vs {baseline_wall:.2f}s"
    )
