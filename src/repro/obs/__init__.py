"""Observability subsystem: op-level profiler, trace spans, metrics.

Three layers, designed to be adopted piecemeal:

- :mod:`repro.obs.metrics` — counters, gauges, histograms (p50/p95/p99)
  and a thread-safe :class:`MetricsRegistry`; the single quantile
  implementation shared by serving stats, eval timing, and benchmarks.
- :mod:`repro.obs.profiler` — zero-overhead-when-off op profiler over
  ``repro.autograd`` (forward/backward attribution, shapes, bytes) plus
  :func:`trace_span` structural annotations.  It times ops as the
  shared handler on :mod:`repro.autograd.interpose`, the op interposer
  the graph tracer also uses; nothing stays wrapped once both are done.
- :mod:`repro.obs.report` — ASCII hot-op/span tables; Chrome
  ``trace_event`` export lives on :class:`Profiler` itself.

Quickstart::

    from repro.obs import profile, trace_span

    with profile() as prof:
        model.forward(images, token_ids, token_mask)
    print(prof.render(top=10))
    prof.export_chrome_trace("trace.json")  # open in chrome://tracing
"""

from repro.obs.metrics import (
    SUMMARY_QUANTILES,
    Counter,
    Gauge,
    Histogram,
    HistogramSummary,
    MetricsRegistry,
    get_registry,
    percentiles,
)
from repro.obs.profiler import (
    OpStat,
    Profiler,
    SpanTotals,
    TraceEvent,
    collect_spans,
    get_active_profiler,
    profile,
    trace_span,
)
from repro.obs.report import render_hot_ops, render_profile, render_spans

__all__ = [
    "SUMMARY_QUANTILES",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSummary",
    "MetricsRegistry",
    "get_registry",
    "percentiles",
    "OpStat",
    "Profiler",
    "SpanTotals",
    "TraceEvent",
    "collect_spans",
    "get_active_profiler",
    "profile",
    "trace_span",
    "render_hot_ops",
    "render_profile",
    "render_spans",
]
