"""Unified metrics primitives: counters, gauges, histograms, registry.

Every latency/quantile number in the repo flows through this module so
serving telemetry, the Table-5 timing path, and the profiler all share
one quantile implementation (:func:`percentiles`, linear interpolation,
matching ``np.percentile``'s default) and one latency summary
(:class:`HistogramSummary`, produced only by :meth:`Histogram.summary`).
A :class:`MetricsRegistry` is a thread-safe name -> metric namespace;
subsystems either publish into the process-wide registry
(:func:`get_registry`) or into a private one (e.g. each
:class:`repro.serve.ServeEngine` owns its own).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

#: Quantiles reported by every summary in the repo.
SUMMARY_QUANTILES = (50.0, 95.0, 99.0)


def percentiles(values: Sequence[float], qs: Sequence[float]) -> Tuple[float, ...]:
    """The repo's single quantile implementation.

    Linear interpolation between order statistics (``np.percentile``
    default).  An empty sample yields zeros, matching the previous
    behaviour of ``repro.serve.stats`` on an idle engine.
    """
    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        return tuple(0.0 for _ in qs)
    return tuple(float(v) for v in np.percentile(values, list(qs)))


@dataclass(frozen=True)
class HistogramSummary:
    """Immutable condensation of one histogram's samples."""

    count: int
    total: float
    mean: float
    std: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }

    def render_ms(self) -> str:
        """One line of a latency summary in milliseconds.

        ``n`` comes first so a tail quantile over a handful of samples
        cannot be read as a real tail.
        """
        return (
            f"n={self.count}  mean={self.mean * 1e3:.2f}ms  "
            f"p50={self.p50 * 1e3:.2f}ms  p95={self.p95 * 1e3:.2f}ms  "
            f"p99={self.p99 * 1e3:.2f}ms"
        )


_EMPTY_SUMMARY = HistogramSummary(
    count=0, total=0.0, mean=0.0, std=0.0,
    minimum=0.0, maximum=0.0, p50=0.0, p95=0.0, p99=0.0,
)


class Counter:
    """Monotonically increasing integer metric."""

    def __init__(self, name: str = ""):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> int:
        with self._lock:
            self._value += int(amount)
            return self._value

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """Last-write-wins float metric."""

    def __init__(self, name: str = ""):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """Sample-keeping distribution metric with quantile summaries.

    Samples are retained exactly (runs in this repo are small enough),
    so :meth:`percentile` agrees bit-for-bit with ``np.percentile`` over
    the recorded values — the semantics previously private to
    ``repro.serve.stats`` and now shared by every subsystem.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._lock = threading.Lock()
        self._values: List[float] = []

    def observe(self, value: float) -> None:
        with self._lock:
            self._values.append(float(value))

    def observe_many(self, values: Iterable[float]) -> None:
        with self._lock:
            self._values.extend(float(v) for v in values)

    def merge(self, other: Union["Histogram", Iterable[float]]) -> None:
        """Fold another histogram's raw samples into this one.

        Merging concatenates samples, so it is associative and — for
        every quantile — commutative: ``np.percentile`` sorts, making
        the p50/p95/p99 of a merged histogram independent of merge
        order.  ``total``/``mean``/``std`` are floating-point sums over
        the sample list and may differ across merge orders by normal
        summation-reordering error (~1e-12 relative), which is the
        documented tolerance for comparing aggregated per-rank metrics
        against a single-process run.
        """
        values = other.values() if isinstance(other, Histogram) else other
        self.observe_many(values)

    def values(self) -> List[float]:
        """Copy of the raw samples (thread-safe snapshot)."""
        with self._lock:
            return list(self._values)

    @property
    def count(self) -> int:
        with self._lock:
            return len(self._values)

    def percentile(self, q: Union[float, Sequence[float]]):
        if isinstance(q, (int, float)):
            return percentiles(self.values(), [float(q)])[0]
        return percentiles(self.values(), [float(v) for v in q])

    def summary(self) -> HistogramSummary:
        values = self.values()
        if not values:
            return _EMPTY_SUMMARY
        array = np.asarray(values, dtype=np.float64)
        p50, p95, p99 = percentiles(array, SUMMARY_QUANTILES)
        return HistogramSummary(
            count=int(array.size),
            total=float(array.sum()),
            mean=float(array.mean()),
            std=float(array.std()),
            minimum=float(array.min()),
            maximum=float(array.max()),
            p50=p50, p95=p95, p99=p99,
        )

    def reset(self) -> None:
        with self._lock:
            self._values = []


class MetricsRegistry:
    """Thread-safe name -> metric namespace with get-or-create semantics."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}

    def _get_or_create(self, name: str, kind: type):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(name)
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, requested {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    @contextmanager
    def timer(self, name: str):
        """Observe the wall time of a ``with`` block into a histogram."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.histogram(name).observe(time.perf_counter() - started)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> Optional[object]:
        with self._lock:
            return self._metrics.get(name)

    def snapshot(self) -> Dict[str, object]:
        """Plain-container snapshot: ints, floats, and summary dicts."""
        with self._lock:
            metrics = dict(self._metrics)
        out: Dict[str, object] = {}
        for name in sorted(metrics):
            metric = metrics[name]
            if isinstance(metric, Histogram):
                out[name] = metric.summary().as_dict()
            else:
                out[name] = metric.value
        return out

    def render(self) -> str:
        """Multi-line human-readable dump of every metric."""
        lines: List[str] = []
        for name, value in self.snapshot().items():
            if isinstance(value, dict):
                lines.append(
                    f"{name}  n={value['count']} mean={value['mean']:.6f} "
                    f"p50={value['p50']:.6f} p95={value['p95']:.6f} "
                    f"p99={value['p99']:.6f}"
                )
            else:
                lines.append(f"{name}  {value}")
        return "\n".join(lines)

    def dump(self) -> Dict[str, Dict[str, object]]:
        """Plain-container export of every metric's raw state.

        Unlike :meth:`snapshot` (which condenses histograms into
        summaries), a dump keeps raw histogram samples so dumps from
        several processes can be merged losslessly — the transport
        format for shipping per-rank worker metrics back to rank 0.
        """
        with self._lock:
            metrics = dict(self._metrics)
        out: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        for name in sorted(metrics):
            metric = metrics[name]
            if isinstance(metric, Counter):
                out["counters"][name] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][name] = metric.value
            elif isinstance(metric, Histogram):
                out["histograms"][name] = metric.values()
        return out

    def merge(self, dump: Dict[str, Dict[str, object]]) -> None:
        """Fold a :meth:`dump` into this registry.

        Counters add, gauges last-write-wins, histograms concatenate
        raw samples (associative; see :meth:`Histogram.merge` for the
        exact/tolerance contract on summaries).
        """
        for name, value in dump.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in dump.get("gauges", {}).items():
            self.gauge(name).set(float(value))
        for name, values in dump.get("histograms", {}).items():
            self.histogram(name).merge(values)

    def reset(self) -> None:
        """Reset every metric in place (handles held by callers stay valid)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()

    def remove(self, name: str) -> None:
        with self._lock:
            self._metrics.pop(name, None)


#: Process-wide registry: trainers and the runtime supervisor publish
#: here by default so one snapshot covers a whole run.
_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """Return the process-wide metrics registry."""
    return _GLOBAL_REGISTRY
