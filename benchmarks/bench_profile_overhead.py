"""Profiling-off overhead contract + the committed hot-op baseline.

Two guarantees back the `repro.obs` design:

1. **Off means off.**  With no profiler active, the only instrumentation
   in the hot path is the inactive ``trace_span`` check (one global list
   read per span).  We measure that per-span cost directly with a tight
   loop, count how many spans one real training step emits, and assert
   the implied per-step overhead is under 2% of the step's wall time.
   Measuring the microcost instead of diffing two full timed runs keeps
   the assertion deterministic — run-to-run step-time noise on a busy
   machine easily exceeds 2% on its own.
2. **Patches come off.**  After a profiling session every autograd
   binding must be the pristine original, so the off path is
   byte-identical to an uninstrumented build.

The full profile of a train step is written to
``results/profile_hotops_yollo.txt`` — the baseline future perf PRs
must beat.
"""

import sys
import time

import pytest
from conftest import write_artifact

from repro.autograd.interpose import _FUNCTION_OPS, _TENSOR_METHODS
from repro.autograd.tensor import Tensor
from repro.core import YolloConfig, YolloModel, YolloTrainer
from repro.data import REFCOCO, build_dataset
from repro.obs import SpanTotals, collect_spans, profile, trace_span
from repro.utils import seed_everything

pytestmark = pytest.mark.slow

MAX_OVERHEAD = 0.02
SPAN_MICROLOOP = 20_000
STEP_REPEATS = 3


def _make_trainer() -> YolloTrainer:
    seed_everything(7)
    dataset = build_dataset(REFCOCO.scaled(0.1))
    cfg = YolloConfig(
        backbone="tiny", d_model=16, d_rel=24, ffn_hidden=24, head_hidden=24,
        num_rel2att=2, batch_size=8,
        max_query_length=max(6, dataset.max_query_length),
    )
    model = YolloModel(cfg, vocab_size=len(dataset.vocab))
    trainer = YolloTrainer(model, dataset, cfg)
    trainer.begin_run(iterations=16)
    return trainer


def _one_step(trainer: YolloTrainer) -> None:
    loss = trainer.forward_backward()
    trainer.apply_step(loss)


def test_profile_overhead_under_two_percent(results_dir):
    trainer = _make_trainer()
    _one_step(trainer)  # warm allocation paths

    # Per-span cost with nothing collecting (the profiling-off path).
    start = time.perf_counter()
    for _ in range(SPAN_MICROLOOP):
        with trace_span("off"):
            pass
    span_cost = (time.perf_counter() - start) / SPAN_MICROLOOP

    # How many spans one real step emits.
    counter = SpanTotals()
    with collect_spans(counter):
        _one_step(trainer)
    spans_per_step = sum(counter.calls.values())
    assert spans_per_step > 0, "training step emitted no spans"

    # Un-instrumented step wall time (best of a few repeats).
    step_seconds = min(
        _timed(_one_step, trainer) for _ in range(STEP_REPEATS)
    )

    overhead = span_cost * spans_per_step / step_seconds
    report = [
        "Profiling-off overhead (op patches removed, spans inert)",
        f"  per-span cost   : {span_cost * 1e9:8.1f} ns",
        f"  spans per step  : {spans_per_step:8d}",
        f"  step wall time  : {step_seconds * 1e3:8.2f} ms",
        f"  implied overhead: {overhead * 100:8.4f} %  (budget {MAX_OVERHEAD * 100:.0f} %)",
    ]
    write_artifact(results_dir, "profile_overhead.txt", "\n".join(report))
    assert overhead < MAX_OVERHEAD, (
        f"inactive spans cost {overhead * 100:.3f}% of a training step "
        f"(budget {MAX_OVERHEAD * 100:.0f}%)"
    )


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def test_patches_fully_removed_after_profiling():
    trainer = _make_trainer()
    with profile() as prof:
        _one_step(trainer)
    assert prof.op_stats(), "profiler saw no ops"

    for attr in _TENSOR_METHODS:
        assert not hasattr(getattr(Tensor, attr), "__wrapped__"), (
            f"Tensor.{attr} still wrapped after profiling"
        )
    for label in _FUNCTION_OPS:
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("repro"):
                continue
            bound = getattr(module, label, None)
            assert not hasattr(bound, "__wrapped__"), (
                f"{module.__name__}.{label} still wrapped after profiling"
            )


def test_hot_op_baseline_report(results_dir):
    trainer = _make_trainer()
    _one_step(trainer)  # warm
    with profile() as prof:
        _one_step(trainer)

    stats = prof.op_stats()
    assert stats, "no op events recorded for the baseline report"
    names = {stat.name for stat in stats}
    assert "conv2d" in names and "matmul" in names, (
        f"expected conv2d and matmul among hot ops, saw {sorted(names)}"
    )
    header = (
        "YOLLO tiny-backbone train-step hot-op baseline "
        "(batch 8, RefCOCO @0.1)\n"
        "Future perf PRs: beat the conv2d/matmul totals below.\n"
    )
    write_artifact(
        results_dir, "profile_hotops_yollo.txt", header + "\n" + prof.render(top=15)
    )
