"""Serving telemetry: latency percentiles, throughput, cache/batch stats.

The engine feeds a thread-safe :class:`StatsRecorder` as requests flow
through it; :meth:`StatsRecorder.snapshot` condenses the raw samples
into an immutable :class:`ServerStats` report.  All distributions live
in :mod:`repro.obs` metrics (``serve.*`` names in a
:class:`~repro.obs.MetricsRegistry`), so quantile semantics are shared
with the profiler and the Table-5 timing path, and external observers
can read the same registry the engine publishes into.  Latency
summarisation reuses :class:`repro.eval.timing.TimingReport`, so serving
numbers are directly comparable with Table 5.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.eval.timing import TimingReport, summarize_latencies
from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class ServerStats:
    """One snapshot of a serving engine's counters and distributions."""

    requests: int
    completed: int
    cache_hits: int
    cache_misses: int
    batches: int
    wall_seconds: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    queue_depth_max: int
    queue_depth_mean: float
    batch_histogram: Dict[int, int] = field(default_factory=dict)
    timing: TimingReport = field(
        default_factory=lambda: TimingReport(mean=0.0, std=0.0, num_queries=0)
    )
    #: Plan compilations observed (compiled grounders only; 0 for eager).
    compile_count: int = 0
    #: Total milliseconds spent compiling plans, attributed separately
    #: from request latency so warm-up cost is visible, not averaged in.
    compile_ms_total: float = 0.0
    #: LRU evictions, read straight off the engine's cache.
    cache_evictions: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Hit fraction over the tallies of the engine's
        :class:`~repro.serve.cache.VersionedCache` (the only counting
        authority)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def throughput_qps(self) -> float:
        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def mean_batch_size(self) -> float:
        total = sum(size * count for size, count in self.batch_histogram.items())
        return total / self.batches if self.batches else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "requests": self.requests,
            "completed": self.completed,
            "throughput_qps": self.throughput_qps,
            "latency_mean": self.timing.mean,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "cache_hit_rate": self.cache_hit_rate,
            "cache_evictions": self.cache_evictions,
            "mean_batch_size": self.mean_batch_size,
            "queue_depth_max": self.queue_depth_max,
            "queue_depth_mean": self.queue_depth_mean,
            "compile_count": self.compile_count,
            "compile_ms_total": self.compile_ms_total,
        }

    def render(self) -> str:
        """Multi-line human-readable report."""
        histogram = " ".join(
            f"{size}x{count}" for size, count in sorted(self.batch_histogram.items())
        )
        lines = [
            f"served   {self.completed}/{self.requests} requests in "
            f"{self.wall_seconds:.3f}s  ({self.throughput_qps:.1f} qps)",
            f"latency  mean={self.timing.mean * 1e3:.2f}ms  "
            f"p50={self.latency_p50 * 1e3:.2f}ms  "
            f"p95={self.latency_p95 * 1e3:.2f}ms  "
            f"p99={self.latency_p99 * 1e3:.2f}ms",
            f"cache    hits={self.cache_hits} misses={self.cache_misses} "
            f"hit-rate={self.cache_hit_rate * 100:.1f}%",
            f"batches  {self.batches} run, mean size {self.mean_batch_size:.1f}"
            + (f", sizes {histogram}" if histogram else ""),
            f"queue    depth max={self.queue_depth_max} "
            f"mean={self.queue_depth_mean:.1f}",
        ]
        if self.compile_count:
            lines.append(
                f"compile  {self.compile_count} plans, "
                f"{self.compile_ms_total:.1f}ms total"
            )
        return "\n".join(lines)


class StatsRecorder:
    """Thread-safe accumulator behind :class:`ServerStats`.

    All counts and distributions are stored as ``serve.*`` metrics in a
    :class:`~repro.obs.MetricsRegistry` — the recorder owns a private
    registry unless one is injected, in which case the engine's numbers
    appear alongside whatever else that registry tracks.

    Cache hits, misses and evictions are not recorded here: the
    attached ``cache`` (:class:`~repro.serve.cache.VersionedCache`)
    counts them itself, :meth:`snapshot` reads its tallies and
    :meth:`reset` zeroes them.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 cache=None):
        self._lock = threading.Lock()
        self._cache = cache
        self.registry = registry if registry is not None else MetricsRegistry()
        self._requests = self.registry.counter("serve.requests")
        self._completed = self.registry.counter("serve.completed")
        self._latencies = self.registry.histogram("serve.latency_seconds")
        self._batch_sizes = self.registry.histogram("serve.batch_size")
        self._queue_depths = self.registry.histogram("serve.queue_depth")
        self._compile_ms = self.registry.histogram("serve.compile_ms")
        self._first_request: float = 0.0
        self._last_completion: float = 0.0

    def reset(self) -> None:
        """Reset the engine's own metrics (other registry entries stay)."""
        with self._lock:
            for metric in (self._requests, self._completed, self._latencies,
                           self._batch_sizes, self._queue_depths,
                           self._compile_ms):
                metric.reset()
            self._first_request = 0.0
            self._last_completion = 0.0
            if self._cache is not None:
                self._cache.reset_stats()

    def record_request(self) -> None:
        now = time.perf_counter()
        with self._lock:
            if self._requests.value == 0:
                self._first_request = now
            self._requests.inc()

    def record_completion(self, latency: float) -> None:
        now = time.perf_counter()
        with self._lock:
            self._completed.inc()
            self._latencies.observe(latency)
            self._last_completion = now

    def record_batch(self, size: int, queue_depth: int) -> None:
        with self._lock:
            self._batch_sizes.observe(size)
            self._queue_depths.observe(queue_depth)

    def record_compile(self, milliseconds: float) -> None:
        """Record one plan compilation (compiled grounders only)."""
        with self._lock:
            self._compile_ms.observe(milliseconds)

    def snapshot(self) -> ServerStats:
        with self._lock:
            latencies = self._latencies.values()
            batch_sizes = self._batch_sizes.values()
            depths = self._queue_depths.values()
            requests, completed = self._requests.value, self._completed.value
            compile_ms = self._compile_ms.values()
            wall = max(0.0, self._last_completion - self._first_request)
        cache = self._cache.stats() if self._cache is not None else None
        timing = summarize_latencies(latencies)
        histogram: Dict[int, int] = {}
        for size in batch_sizes:
            size = int(size)
            histogram[size] = histogram.get(size, 0) + 1
        return ServerStats(
            requests=requests,
            completed=completed,
            cache_hits=cache.hits if cache else 0,
            cache_misses=cache.misses if cache else 0,
            batches=len(batch_sizes),
            wall_seconds=wall,
            latency_p50=timing.p50,
            latency_p95=timing.p95,
            latency_p99=timing.p99,
            queue_depth_max=int(max(depths)) if depths else 0,
            queue_depth_mean=float(np.mean(depths)) if depths else 0.0,
            batch_histogram=histogram,
            timing=timing,
            compile_count=len(compile_ms),
            compile_ms_total=float(sum(compile_ms)),
            cache_evictions=cache.evictions if cache else 0,
        )
