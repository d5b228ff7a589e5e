"""Inference wall-clock measurement (Table 5).

All timings are single-sample (batch size 1), matching the paper's
deployment-style measurement.  We report mean seconds per query plus the
decomposition into proposal time and matching time for two-stage models,
and — via :mod:`repro.obs` spans — the split between *model* time (time
inside the network forward) and *end-to-end* time (model plus decode,
preprocessing, and Python dispatch), so the reproduced speed table can
attribute two-stage overhead the way the paper does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.data.refcoco import GroundingSample
from repro.eval.metrics import GrounderFn
from repro.obs.metrics import Histogram
from repro.obs.profiler import SpanTotals, collect_spans

#: Span names whose time counts as "model time" for a timed call.
MODEL_SPANS = ("yollo.forward", "twostage.match")


@dataclass
class TimingReport:
    """Per-query inference time statistics in seconds."""

    mean: float
    std: float
    num_queries: int
    proposal_mean: float = 0.0  #: stage-i time for two-stage models (0 for YOLLO)
    model_mean: float = 0.0  #: time inside the network forward (spans)
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0

    @property
    def total_mean(self) -> float:
        """Matching time plus proposal time — the end-to-end latency."""
        return self.mean + self.proposal_mean

    @property
    def overhead_mean(self) -> float:
        """End-to-end time not spent in the model forward."""
        return max(self.mean - self.model_mean, 0.0)


def summarize_latencies(
    durations: Sequence[float],
    proposal_mean: float = 0.0,
    model_mean: float = 0.0,
) -> TimingReport:
    """Condense a list of per-query latencies into a :class:`TimingReport`.

    Built on :class:`repro.obs.metrics.Histogram` so the mean/std/quantile
    semantics here are identical to the serving engine's
    :class:`repro.serve.ServerStats` and the profiler — one quantile
    implementation for every latency number in the repo.
    """
    histogram = Histogram("latency")
    histogram.observe_many(durations)
    summary = histogram.summary()
    return TimingReport(
        mean=summary.mean,
        std=summary.std,
        num_queries=summary.count,
        proposal_mean=proposal_mean,
        model_mean=model_mean,
        p50=summary.p50,
        p95=summary.p95,
        p99=summary.p99,
    )


def time_grounder(
    grounder: GrounderFn,
    samples: Sequence[GroundingSample],
    warmup: int = 2,
    proposal_timer: Optional[Callable[[GroundingSample], float]] = None,
) -> TimingReport:
    """Time a grounder one sample at a time.

    Each timed call runs under a span collector, so grounders that
    annotate their forward pass (``yollo.forward``, ``twostage.match``,
    ``twostage.propose``) get a model-time decomposition for free.

    ``proposal_timer``, when given, measures the stage-i cost per sample
    separately (the parenthesised "+0.29s" column of Table 5); spans are
    deliberately not used for it because the in-pipeline proposer time is
    already part of ``mean`` and would double-count in ``total_mean``.
    """
    samples = list(samples)
    for sample in samples[:warmup]:
        grounder([sample])

    durations = []
    spans = SpanTotals()
    with collect_spans(spans):
        for sample in samples:
            start = time.perf_counter()
            grounder([sample])
            durations.append(time.perf_counter() - start)

    num = max(len(samples), 1)
    model_mean = spans.total(MODEL_SPANS) / num

    proposal_mean = 0.0
    if proposal_timer is not None:
        proposal_mean = float(np.mean([proposal_timer(s) for s in samples]))

    return summarize_latencies(
        durations, proposal_mean=proposal_mean, model_mean=model_mean
    )


@dataclass
class EagerCompiledComparison:
    """Eager vs compiled inference timing for one grounder."""

    eager: TimingReport
    compiled: TimingReport
    compile_ms: float  #: one-time plan compilation cost (all plans)
    plans: int  #: plans compiled during the measurement

    @property
    def speedup(self) -> float:
        """End-to-end eager/compiled latency ratio (>1 = compiled wins)."""
        return self.eager.mean / max(self.compiled.mean, 1e-12)

    @property
    def model_speedup(self) -> float:
        """Forward-pass-only ratio (decode/dispatch overhead excluded)."""
        return self.eager.model_mean / max(self.compiled.model_mean, 1e-12)

    def render(self) -> str:
        return (
            f"eager    {self.eager.mean * 1e3:.2f}ms/query "
            f"(model {self.eager.model_mean * 1e3:.2f}ms)\n"
            f"compiled {self.compiled.mean * 1e3:.2f}ms/query "
            f"(model {self.compiled.model_mean * 1e3:.2f}ms)\n"
            f"speedup  {self.speedup:.2f}x end-to-end, "
            f"{self.model_speedup:.2f}x model, "
            f"{self.plans} plan(s) compiled in {self.compile_ms:.1f}ms"
        )


def compare_eager_compiled(
    grounder,
    samples: Sequence[GroundingSample],
    warmup: int = 2,
) -> EagerCompiledComparison:
    """Time a :class:`repro.core.Grounder` eager, then compiled.

    The grounder is compiled for the measurement and restored to its
    original mode afterwards.  Compilation happens during the compiled
    pass's warmup, so plan-build time never pollutes the timed samples;
    it is reported separately as ``compile_ms``.
    """
    was_compiled = getattr(grounder, "plan_cache", None) is not None
    grounder.uncompile()
    try:
        eager = time_grounder(grounder, samples, warmup=warmup)
        grounder.compile()
        compiled = time_grounder(grounder, samples, warmup=max(warmup, 1))
        cache = grounder.plan_cache
        events = cache.drain_compile_events()
        return EagerCompiledComparison(
            eager=eager,
            compiled=compiled,
            compile_ms=float(sum(ms for _key, ms in events)),
            plans=len(events),
        )
    finally:
        if not was_compiled:
            grounder.uncompile()
