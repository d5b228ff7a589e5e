"""Op-level profiler and trace spans over :mod:`repro.autograd`.

Design goals, in order:

1. **Zero overhead when off.**  Nothing in the hot path is permanently
   wrapped.  While a :class:`Profiler` with ``ops=True`` is active it is
   the shared handler on :mod:`repro.autograd.interpose`, the one
   mechanism that temporarily wraps the primitive tensor operations
   (``matmul``, ``conv2d``, ``softmax``, elementwise ops, reductions, …)
   on :class:`Tensor` and on every ``repro.*`` module binding.  The
   graph tracer is the other handler on the same mechanism; a thread
   that is tracing records into its graph, every other thread into the
   profiler.  When the last handler detaches every binding is restored,
   so the profiling-off code path is byte-identical to an
   uninstrumented build.  Inactive :func:`trace_span` blocks cost one
   global list check.

2. **Forward/backward attribution.**  Each timed op also wraps the
   backward closure it records on its output tensor, so the reverse pass
   is timed per-op and reported separately.

3. **Structure via spans.**  ``with trace_span("rel2att.block0"):``
   annotates model-level structure.  Spans broadcast to every active
   collector, so a full :class:`Profiler` and a lightweight
   :class:`SpanTotals` (used by ``repro.eval.timing``) can listen at
   the same time, nested or not.

Composite ops (``mean``, ``sub``, ``var``, ``stack``) suppress the
recording of the primitives they are built from (the interposer's
thread-local re-entrancy guard), so each forward numpy FLOP is
attributed exactly once.  Backward time of a composite is attributed to
its outermost closure; interior closures created while the guard was
held run untimed, which slightly under-reports composite backward time
— an accepted approximation documented in DESIGN.md.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.autograd import interpose
from repro.autograd.tensor import Tensor

# ----------------------------------------------------------------------
# Span broadcasting
# ----------------------------------------------------------------------
#: Active span collectors.  Appended/removed under _collectors_lock;
#: read without locking (CPython list reads are atomic) on the hot path.
_collectors: List[object] = []
_collectors_lock = threading.Lock()


def _add_collector(collector: object) -> None:
    with _collectors_lock:
        _collectors.append(collector)


def _remove_collector(collector: object) -> None:
    with _collectors_lock:
        if collector in _collectors:
            _collectors.remove(collector)


class trace_span:
    """Annotate a code region; near-free when no profiler is listening.

    ``with trace_span("yollo.forward"): ...`` records one span event
    (name, start, end) into every active collector.  When nothing is
    collecting, entry and exit are a single truthiness check each.
    """

    __slots__ = ("name", "_start")

    def __init__(self, name: str):
        self.name = name
        self._start = None

    def __enter__(self) -> "trace_span":
        if _collectors:
            self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._start is not None:
            end = time.perf_counter()
            for collector in list(_collectors):
                collector.record_span(self.name, self._start, end)
            self._start = None
        return False


class SpanTotals:
    """Minimal span collector: accumulated seconds and calls per name."""

    def __init__(self):
        self.totals: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def record_span(self, name: str, start: float, end: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + (end - start)
        self.calls[name] = self.calls.get(name, 0) + 1

    def total(self, names) -> float:
        """Summed seconds across the given span names."""
        return sum(self.totals.get(name, 0.0) for name in names)


@contextmanager
def collect_spans(collector: Optional[SpanTotals] = None):
    """Register a span collector for the duration of the block."""
    collector = collector if collector is not None else SpanTotals()
    _add_collector(collector)
    try:
        yield collector
    finally:
        _remove_collector(collector)


#: The single op-level profiler attached to the interposer, if any.
_op_profiler: Optional["Profiler"] = None


@dataclass
class TraceEvent:
    """One completed op or span occurrence."""

    name: str
    category: str  # "op" | "span"
    phase: str  # "forward" | "backward" | "" (spans)
    start: float  # absolute time.perf_counter() seconds
    duration: float
    thread: int
    shape: Optional[Tuple[int, ...]] = None
    nbytes: int = 0


@dataclass
class OpStat:
    """Aggregated per-op totals over one profiling session."""

    name: str
    calls: int = 0
    backward_calls: int = 0
    forward_seconds: float = 0.0
    backward_seconds: float = 0.0
    nbytes: int = 0

    @property
    def total_seconds(self) -> float:
        return self.forward_seconds + self.backward_seconds


class Profiler:
    """Record primitive-op timings and spans for one code region.

    Use through the :func:`profile` context manager::

        with profile() as prof:
            loss = trainer.forward_backward()
            trainer.apply_step(loss)
        print(prof.render(top=10))
        prof.export_chrome_trace("trace.json")

    Parameters
    ----------
    ops:
        Time the autograd primitives (op-level events).  Only one
        ops-profiler may be active at a time.  ``ops=False`` collects
        spans only — cheap enough to wrap timing loops.
    """

    def __init__(self, ops: bool = True):
        self.ops = ops
        self.events: List[TraceEvent] = []
        self._events_lock = threading.Lock()
        self._t0: Optional[float] = None
        self._t1: Optional[float] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "Profiler":
        global _op_profiler
        if self._t0 is not None:
            raise RuntimeError("Profiler instances are single-use")
        if self.ops:
            interpose.attach(self)  # raises if another op profiler is attached
            _op_profiler = self
        self._t0 = time.perf_counter()
        _add_collector(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _op_profiler
        self._t1 = time.perf_counter()
        _remove_collector(self)
        if self.ops:
            interpose.detach(self)
            _op_profiler = None
        return False

    @property
    def wall_seconds(self) -> float:
        if self._t0 is None:
            return 0.0
        end = self._t1 if self._t1 is not None else time.perf_counter()
        return end - self._t0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_span(self, name: str, start: float, end: float) -> None:
        event = TraceEvent(
            name=name, category="span", phase="",
            start=start, duration=end - start,
            thread=threading.get_ident(),
        )
        with self._events_lock:
            self.events.append(event)

    def record_op(self, name: str, start: float, duration: float,
                  shape: Optional[Tuple[int, ...]] = None, nbytes: int = 0,
                  phase: str = "forward") -> None:
        """Record one op event.

        The graph executor calls this to attribute compiled-plan kernels
        (including fused labels like ``conv2d+bn+relu``), which run as
        raw numpy and never pass through the interposed bindings.
        """
        event = TraceEvent(
            name=name, category="op", phase=phase,
            start=start, duration=duration,
            thread=threading.get_ident(), shape=shape, nbytes=nbytes,
        )
        with self._events_lock:
            self.events.append(event)

    def intercept(self, op: interpose.Op, fn: Callable, args: tuple, kwargs: dict):
        """Interposer handler: time one primitive op, hook its backward."""
        if op.kind not in ("method", "function"):  # a tracer's extra points
            return fn(*args, **kwargs)
        started = time.perf_counter()
        out = interpose.call_guarded(fn, args, kwargs)
        duration = time.perf_counter() - started
        if isinstance(out, Tensor):
            self.record_op(op.label, started, duration,
                           tuple(out.data.shape), int(out.data.nbytes))
            if out._backward is not None:
                self._hook_backward(op.label, out)
        else:
            self.record_op(op.label, started, duration)
        return out

    def _hook_backward(self, label: str, out: Tensor) -> None:
        inner = out._backward
        profiler = self

        def timed_backward(grad):
            if interpose.is_busy():
                return inner(grad)
            started = time.perf_counter()
            interpose.call_guarded(inner, (grad,), {})
            profiler.record_op(
                label, started, time.perf_counter() - started, phase="backward"
            )

        out._backward = timed_backward

    # ------------------------------------------------------------------
    # Aggregation and export
    # ------------------------------------------------------------------
    def snapshot_events(self) -> List[TraceEvent]:
        with self._events_lock:
            return list(self.events)

    def op_stats(self) -> List[OpStat]:
        """Per-op totals sorted by total time, descending."""
        stats: Dict[str, OpStat] = {}
        for event in self.snapshot_events():
            if event.category != "op":
                continue
            stat = stats.get(event.name)
            if stat is None:
                stat = stats[event.name] = OpStat(name=event.name)
            if event.phase == "backward":
                stat.backward_calls += 1
                stat.backward_seconds += event.duration
            else:
                stat.calls += 1
                stat.forward_seconds += event.duration
                stat.nbytes += event.nbytes
        return sorted(stats.values(), key=lambda s: -s.total_seconds)

    def span_totals(self) -> Dict[str, float]:
        """Accumulated seconds per span name."""
        totals: Dict[str, float] = {}
        for event in self.snapshot_events():
            if event.category == "span":
                totals[event.name] = totals.get(event.name, 0.0) + event.duration
        return totals

    def span_stats(self) -> List[Tuple[str, int, float]]:
        """(name, calls, total seconds) per span, sorted by total time."""
        totals: Dict[str, List[float]] = {}
        for event in self.snapshot_events():
            if event.category == "span":
                entry = totals.setdefault(event.name, [0, 0.0])
                entry[0] += 1
                entry[1] += event.duration
        return sorted(
            ((name, int(calls), total) for name, (calls, total) in totals.items()),
            key=lambda row: -row[2],
        )

    def chrome_trace(self) -> List[Dict[str, object]]:
        """Chrome ``trace_event`` complete events, sorted by timestamp.

        Load the exported JSON in ``chrome://tracing`` or Perfetto.
        Timestamps are microseconds relative to profiler start.
        """
        t0 = self._t0 if self._t0 is not None else 0.0
        trace: List[Dict[str, object]] = []
        for event in sorted(self.snapshot_events(), key=lambda e: e.start):
            args: Dict[str, object] = {}
            if event.phase:
                args["phase"] = event.phase
            if event.shape is not None:
                args["shape"] = list(event.shape)
                args["bytes"] = event.nbytes
            trace.append({
                "name": event.name,
                "cat": event.category,
                "ph": "X",
                "ts": (event.start - t0) * 1e6,
                "dur": event.duration * 1e6,
                "pid": 0,
                "tid": event.thread,
                "args": args,
            })
        return trace

    def export_chrome_trace(self, path: str) -> str:
        """Write the Chrome trace JSON; returns the path."""
        payload = {
            "traceEvents": self.chrome_trace(),
            "displayTimeUnit": "ms",
            "metadata": {
                "producer": "repro.obs",
                "wall_seconds": self.wall_seconds,
            },
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
        return path

    def render(self, top: int = 10) -> str:
        """Human-readable report: hot-op table plus span table."""
        from repro.obs.report import render_profile

        return render_profile(self, top=top)


@contextmanager
def profile(ops: bool = True):
    """Profile the enclosed block; yields the :class:`Profiler`."""
    profiler = Profiler(ops=ops)
    with profiler:
        yield profiler


def get_active_profiler() -> Optional[Profiler]:
    """The op-level profiler attached to the op interposer, if any."""
    return _op_profiler
