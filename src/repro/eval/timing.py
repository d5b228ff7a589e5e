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
from repro.obs.metrics import Histogram, HistogramSummary
from repro.obs.profiler import SpanTotals, collect_spans

#: Span names whose time counts as "model time" for a timed call.
MODEL_SPANS = ("yollo.forward", "twostage.match")
#: Untimed calls :func:`time_grounder` makes before it starts timing.
TIMING_WARMUP = 2


@dataclass
class TimingReport:
    """Per-query inference time statistics in seconds."""

    latency: HistogramSummary  #: end-to-end per-query latency
    proposal_mean: float = 0.0  #: stage-i time for two-stage models (0 for YOLLO)
    model_mean: float = 0.0  #: time inside the network forward (spans)

    @property
    def total_mean(self) -> float:
        """Matching time plus proposal time — the end-to-end latency."""
        return self.latency.mean + self.proposal_mean

    @property
    def overhead_mean(self) -> float:
        """End-to-end time not spent in the model forward."""
        return max(self.latency.mean - self.model_mean, 0.0)


def time_grounder(
    grounder: GrounderFn,
    samples: Sequence[GroundingSample],
    proposal_timer: Optional[Callable[[GroundingSample], float]] = None,
) -> TimingReport:
    """Time a grounder one sample at a time.

    Each timed call runs under a span collector, so grounders that
    annotate their forward pass (``yollo.forward``, ``twostage.match``,
    ``twostage.propose``) get a model-time decomposition for free.

    ``proposal_timer``, when given, measures the stage-i cost per sample
    separately (the parenthesised "+0.29s" column of Table 5); spans are
    deliberately not used for it because the in-pipeline proposer time is
    already part of ``latency`` and would double-count in ``total_mean``.
    """
    samples = list(samples)
    for sample in samples[:TIMING_WARMUP]:
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

    latency = Histogram("latency")
    latency.observe_many(durations)
    return TimingReport(latency=latency.summary(),
                        proposal_mean=proposal_mean, model_mean=model_mean)
