"""Distributed training throughput — 1 worker vs 4 workers.

Runs the same fixed-global-batch YOLLO training step through
:class:`repro.dist.WorkerGroup` at world sizes 1 and 4 and compares
steady-state step throughput (global samples/second, first step dropped
as warmup).  The slot decomposition is identical at every world size —
the workers split the same work, so on a machine with >= 4 usable cores
the 4-worker run must deliver at least ``MIN_SPEEDUP`` more throughput.

On fewer cores the speedup assertion is skipped: four workers
time-slicing one CPU cannot beat one process doing the same arithmetic
(the collective adds overhead but no parallelism).  The measured
numbers and the core count are recorded in the artifact either way.
"""

import os

from conftest import write_artifact

from repro.dist import DistConfig, WorkerGroup, WorkerSpec, build_yollo_task, warm_backbone

import pytest

pytestmark = pytest.mark.dist

WORLD_SIZES = (1, 4)
GRAD_SHARDS = 4
ITERATIONS = 6
BATCH_SIZE = 16
MIN_SPEEDUP = 1.5


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _run(world_size: int):
    spec = WorkerSpec(
        builder=build_yollo_task,
        task_kwargs=dict(
            dataset_name="RefCOCO", scale=0.2, grad_shards=GRAD_SHARDS,
            iterations=ITERATIONS, eval_every=0, preset="tiny",
            pretrain_steps=1,
            config_overrides=dict(batch_size=BATCH_SIZE),
        ),
        dist=DistConfig(grad_shards=GRAD_SHARDS, timeout=300.0),
        seed=0,
        warmup=warm_backbone,
        warmup_kwargs=dict(name="tiny", pretrain_steps=1),
    )
    report = WorkerGroup(spec, world_size=world_size).run()
    # Steady-state per-step seconds on rank 0 (every rank's step is the
    # same collective); drop the first step, which pays warmup costs.
    steps = report.rank_metrics[0]["histograms"]["dist.step_seconds"]
    steady = steps[1:] or steps
    mean_step = sum(steady) / len(steady)
    return {
        "world": world_size,
        "wall": report.wall_seconds,
        "mean_step_s": mean_step,
        "throughput": BATCH_SIZE / mean_step,
    }


def test_dist_scaling(results_dir):
    cores = _usable_cores()
    rows = [_run(world) for world in WORLD_SIZES]
    base = rows[0]["throughput"]
    speedup = rows[-1]["throughput"] / base

    lines = [
        "Distributed training scaling (fixed global batch "
        f"of {BATCH_SIZE}, {ITERATIONS} steps, grad_shards={GRAD_SHARDS})",
        f"usable cores: {cores}",
        "",
        "workers | mean step (s) | global samples/s | speedup",
        "--------+---------------+------------------+--------",
    ]
    for row in rows:
        lines.append(
            f"{row['world']:7d} | {row['mean_step_s']:13.3f} | "
            f"{row['throughput']:16.2f} | {row['throughput'] / base:7.2f}x"
        )
    lines.append("")
    if cores >= max(WORLD_SIZES):
        lines.append(
            f"assertion: {max(WORLD_SIZES)}-worker speedup >= "
            f"{MIN_SPEEDUP}x (cores available)"
        )
    else:
        lines.append(
            f"assertion skipped: {cores} usable core(s) < "
            f"{max(WORLD_SIZES)} workers — parallel speedup is not "
            "physically available on this machine; numbers above are "
            "the honest single-core measurement"
        )
    write_artifact(results_dir, "dist_scaling.txt", "\n".join(lines) + "\n")

    for row in rows:
        assert row["mean_step_s"] > 0
    if cores >= max(WORLD_SIZES):
        assert speedup >= MIN_SPEEDUP, (
            f"expected >= {MIN_SPEEDUP}x at {max(WORLD_SIZES)} workers, "
            f"got {speedup:.2f}x"
        )
