"""Shared machinery for the end-to-end benchmark in this directory.

Everything here runs inside one workload process (see ``worker.py``):
the metric catalogue read from ``BENCHMARK.json``, the result record a
workload fills, the measured windows and the host-speed probe that
normalizes them, the single-thread load generator (open and closed
loop), the timing shim that wraps a grounder handed to ``ServeEngine``,
the span self-time computation used by traced runs, and the op-level
profile pass.  Every layer is timed from outside, around calls into
public functions of ``repro``; nothing here patches the program.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import time
from collections import defaultdict
from concurrent.futures import TimeoutError as ResultTimeout, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.refcoco import GroundingSample
from repro.obs import Profiler, profile, trace_span
from repro.text.tokenizer import normalize_query, tokenize

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parents[1]
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
#: Results, Chrome traces, checkpoints and the backbone cache; never committed.
OUT_DIR = PERF_DIR / "out"

#: Seconds a request may stay unanswered before it counts as lost.
RESULT_TIMEOUT = 60.0
#: Units of duration metrics, which host-speed normalization applies to.
TIME_UNITS = ("s", "ms", "us")
#: Consecutive windows a measured phase is split into.  Every end-to-end
#: timing is computed per window and reported as the median over the
#: windows, so a few seconds of interference from other tenants of a
#: shared host move a minority of windows and not the reported value.
WINDOWS = 9
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def load_catalog() -> Dict[str, Any]:
    """The metric catalogue: ``BENCHMARK.json`` is the single source of
    metric names, units, directions and regression bounds."""
    with open(BENCHMARK_FILE) as handle:
        return json.load(handle)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def window_median(windows: Sequence[Sequence[Any]], factors: Sequence[float],
                  stat: Callable[[Sequence[Any]], float],
                  rate: bool = False,
                  raw: Optional[List[float]] = None) -> float:
    """Median over non-empty windows of ``stat(window)``, each normalized
    by its window's host-speed factor (divided by it when ``rate``).
    The unnormalized per-window values are appended to ``raw``."""
    values = [stat(w) for w in windows if len(w)]
    if raw is not None:
        raw.extend(values)
    scaled = [f for w, f in zip(windows, factors) if len(w)]
    return float(np.median([v / f if rate else v * f
                            for v, f in zip(values, scaled)]))


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def make_sample(image: np.ndarray, query: str) -> GroundingSample:
    """The sample a serving front door builds for a raw request."""
    query = normalize_query(query)
    return GroundingSample(image=image, query=query, tokens=tokenize(query),
                           target_box=np.zeros(4), target_index=-1,
                           scene=None, split="bench")


# ----------------------------------------------------------------------
# Result record
# ----------------------------------------------------------------------
class Result:
    """What one workload run reports: metrics, operation counts, gates.

    ``add`` accepts catalogue names only, so a run can never emit a name
    ``BENCHMARK.json`` does not declare.  ``n`` is the sample count
    behind a value; a layer the workload does not exercise reports 0
    with ``n == 0``.
    """

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        section = "per_layer" if trace else "end_to_end"
        self.units = {m["name"]: m["unit"] for m in load_catalog()[section]}
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.checks: Dict[str, Dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0
        self.info: Dict[str, Any] = {}

    def add(self, name: str, value: float, n: int = 1) -> None:
        if name not in self.units:
            raise KeyError(f"{name!r} is not a "
                           f"{'per-layer' if self.trace else 'end-to-end'} "
                           f"metric of {BENCHMARK_FILE.name}")
        self.metrics[name] = {"value": float(value), "unit": self.units[name],
                              "n": int(n)}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = {"ok": bool(ok), "detail": detail}

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    def scale_times(self, factor: float) -> None:
        """Normalize every duration metric added so far by ``factor``."""
        for metric in self.metrics.values():
            if metric["unit"] in TIME_UNITS:
                metric["value"] *= factor
        self.info["time_factor"] = factor

    def finish(self) -> None:
        """Report every catalogue metric the workload did not exercise as
        0, and order the metrics as the catalogue lists them."""
        for name in self.units:
            if name not in self.metrics:
                self.add(name, 0.0, n=0)
        self.metrics = {name: self.metrics[name] for name in self.units}

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(c["ok"] for c in self.checks.values())

    def to_json(self) -> Dict[str, Any]:
        return {
            "workload": self.workload, "seed": self.seed,
            "seconds": self.seconds, "trace": self.trace,
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": self.failed / max(1, self.attempted),
            "metrics": self.metrics, "checks": self.checks, "info": self.info,
        }


def pin_to_one_cpu() -> None:
    """Keep this process, and the threads it starts, on one CPU.

    Single-core workloads are pinned so that the host-speed probe runs
    on the very CPU the work runs on.  A no-op where affinity is not
    supported.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostSpeed:
    """How fast the host runs right now, from a fixed reference kernel.

    On a shared host, other tenants slow every CPU-bound kernel down by
    ~1.4x, one CPU at a time, for stretches of a second to minutes.
    Timings are therefore reported normalized: a duration measured
    between two probes is multiplied by ``REFERENCE_MS`` over the mean of
    the two probe times, which reads as the duration on a host where the
    kernel takes ``REFERENCE_MS``.  A probe times the kernel on every CPU
    the process may run on and averages them.  The kernel mixes an
    interpreter loop with small matrix products, as the workloads do,
    and runs no code of the system under test.

    The probe is not independent of that system: it runs inside the
    workload process while the system's own threads (the engine worker)
    and processes (fleet replicas and their heartbeats) share its CPUs.
    A change that adds background CPU work slows the probe too, and
    normalization then hides part of the regression.  The unnormalized
    values are kept in every record (``info["raw"]``), and ``compare.py``
    judges them as well.
    """

    REFERENCE_MS = 10.0
    _A = np.random.default_rng(0).standard_normal((128, 512))
    _B = np.random.default_rng(1).standard_normal((512, 256))

    def __init__(self):
        #: Every probe taken, in ms, in order.
        self.probes: List[float] = []
        self.cpus = (sorted(os.sched_getaffinity(0))
                     if hasattr(os, "sched_getaffinity") else [])

    @classmethod
    def _kernel(cls) -> None:
        total = 0
        for i in range(60000):
            total += i * i
        for _ in range(12):
            product = cls._A @ cls._B
            np.maximum(product, 0.0, out=product)

    def _time_ms(self) -> float:
        """Median of three kernel timings on the current CPU, in ms."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            times.append(1e3 * (time.perf_counter() - start))
        return float(np.median(times))

    def probe(self) -> float:
        """Kernel time averaged over the process's CPUs, in ms; recorded."""
        if len(self.cpus) <= 1:
            self.probes.append(self._time_ms())
            return self.probes[-1]
        per_cpu = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})  # this thread only
            per_cpu.append(self._time_ms())
        os.sched_setaffinity(0, set(self.cpus))
        self.probes.append(float(np.mean(per_cpu)))
        return self.probes[-1]

    def factor(self, before: float, after: float) -> float:
        """Normalizing factor for a duration measured between two probes."""
        return self.REFERENCE_MS / ((before + after) / 2.0)


def run_windows(host: HostSpeed,
                window: Callable[[int], None]) -> List[float]:
    """Run the measured windows with a host-speed probe around each.

    ``window(index)`` runs one window at its fixed offered load.
    Returns each window's normalizing factor.
    """
    probes = [host.probe()]
    for index in range(WINDOWS):
        window(index)
        probes.append(host.probe())
    return [host.factor(before, after)
            for before, after in zip(probes, probes[1:])]


def median_setup(setup: Callable[[], Any], teardown: Callable[[Any], None],
                 host: HostSpeed, result: "Result") -> Tuple[Any, float]:
    """Run ``setup`` :data:`SETUP_REPEATS` times; keep the last, report
    the median.

    Each set-up is timed between two host-speed probes and normalized;
    the normalized and raw times are kept in ``result.info``.  Earlier
    instances are torn down before the next is built, so every set-up
    starts from the same state and only one instance is alive.
    """
    times: List[float] = []
    raw: List[float] = []
    before = host.probe()
    for index in range(SETUP_REPEATS):
        start = time.perf_counter()
        built = setup()
        raw.append(time.perf_counter() - start)
        after = host.probe()
        times.append(raw[-1] * host.factor(before, after))
        before = after
        if index < SETUP_REPEATS - 1:
            teardown(built)
            del built
            gc.collect()
    result.info["setup_runs_s"] = times
    result.info.setdefault("raw", {})["setup_s"] = raw
    return built, float(np.median(times))


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TraceSwitch:
    """Turns span collection on partway through a measured phase.

    A traced run measures its first windows with tracing off and the
    rest with a span-only :class:`repro.obs.Profiler` listening;
    comparing the two gives the tracing overhead.
    """

    def __init__(self, on_start: Optional[Callable[[], None]] = None):
        #: Called once, just before collection starts (counter snapshots).
        self.on_start = on_start
        self.profiler: Optional[Profiler] = None
        self._stopped = False

    def on(self) -> None:
        if self.profiler is None:
            if self.on_start is not None:
                self.on_start()
            self.profiler = Profiler(ops=False)
            self.profiler.__enter__()

    @property
    def active(self) -> bool:
        return self.profiler is not None and not self._stopped

    def off(self) -> Optional[Profiler]:
        if self.active:
            self.profiler.__exit__(None, None, None)
            self._stopped = True
        return self.profiler


@dataclass
class Span:
    """A span event placed in its call tree; ``self_s`` excludes children."""

    name: str
    start: float
    end: float
    parent: Optional["Span"] = None
    children: List["Span"] = field(default_factory=list)
    self_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def encloses(self, name: str) -> bool:
        return any(node.name == name for node in self.walk())


def span_forest(profiler: Optional[Profiler]) -> List[Span]:
    """Every span the profiler saw, nested per thread, with self times.

    A span's self time is its duration minus the part of its interval
    that child spans (same thread, strictly inside it) cover.
    """
    if profiler is None:
        return []
    by_thread: Dict[int, list] = defaultdict(list)
    for event in profiler.snapshot_events():
        if event.category == "span":
            by_thread[event.thread].append(event)
    spans: List[Span] = []
    for events in by_thread.values():
        events.sort(key=lambda e: (e.start, -e.duration))
        stack: List[Span] = []
        for event in events:
            node = Span(event.name, event.start, event.start + event.duration,
                        self_s=event.duration)
            while stack and stack[-1].end <= node.start:
                stack.pop()
            if stack:
                node.parent = stack[-1]
                stack[-1].children.append(node)
                stack[-1].self_s -= node.duration
            stack.append(node)
            spans.append(node)
    return spans


#: Span name -> the per-layer metric its self time belongs to.  Spans
#: not listed here (``yollo.forward``'s own glue, ``serve.batch``) are
#: still part of the self-time sums but have no metric of their own.
_SPAN_LAYERS = {
    "yollo.encoder": "core.encoder_ms",
    "yollo.rel2att": "core.rel2att_ms",
    "yollo.detector": "core.detector_ms",
    "yollo.decode": "core.decode_ms",
    "graph.execute": "graph.execute_ms",
    "train.forward": "core.loss_ms",
    "train.backward": "train.backward_ms",
    "train.apply_step": "optim.apply_ms",
    "bench.forward_backward": "train.batch_ms",
    "bench.grounder": "core.predictor.self_ms",
}
#: Per-layer metrics that are span self times.
LAYER_METRICS = frozenset(_SPAN_LAYERS.values())


def span_layer(name: str) -> str:
    if name.startswith(("rel2att.block", "word2pix.block")):
        return "core.rel2att_ms"
    return _SPAN_LAYERS.get(name, name)


#: The one layer total that is a whole span duration, not a self time.
EAGER_FORWARD = "core.forward_eager_ms"


def layer_self_times(root: Span) -> Dict[str, float]:
    """Seconds of self time per layer over ``root``'s subtree.

    Also reports :data:`EAGER_FORWARD`: the whole duration of eager
    ``yollo.forward`` spans (those not replaying a compiled plan).
    """
    totals: Dict[str, float] = defaultdict(float)
    for node in root.walk():
        totals[span_layer(node.name)] += node.self_s
        if node.name == "yollo.forward" and not node.encloses("graph.execute"):
            totals[EAGER_FORWARD] += node.duration
    return totals


# ----------------------------------------------------------------------
# Timing shim around a served grounder
# ----------------------------------------------------------------------
class TimedGrounder:
    """Wraps the grounder given to ``ServeEngine`` and times every call.

    Each call is recorded as ``(start, end, keys)`` where ``keys`` are
    the ``(id(image), normalized query)`` pairs of its samples, so the
    load generator can tell which call answered which request.  Plan
    cache and model pass through, so the engine still drains compile
    events and the wrapped grounder behaves exactly as before.
    """

    def __init__(self, inner):
        self.inner = inner
        self.calls: List[Tuple[float, float, frozenset]] = []

    @property
    def plan_cache(self):
        return self.inner.plan_cache

    @property
    def model(self):
        return self.inner.model

    def __call__(self, samples):
        start = time.perf_counter()
        with trace_span("bench.grounder"):
            out = self.inner(samples)
        self.calls.append((start, time.perf_counter(),
                           frozenset((id(s.image), s.query) for s in samples)))
        return out

    def attribute(self, req: "Request") -> None:
        """Done-callback hook: mark the call that just answered ``req``.

        The engine resolves a batch's futures on its worker thread right
        after the call returns, so the newest call is the answering one
        when it carries the request's key and started after the request
        was sent; otherwise the request was served from the cache.
        """
        if not self.calls:
            return
        start, _, keys = self.calls[-1]
        if start >= req.sent and (id(req.image), normalize_query(req.query)) in keys:
            req.call = len(self.calls) - 1


# ----------------------------------------------------------------------
# Load generation: one generator thread (the caller's)
# ----------------------------------------------------------------------
@dataclass
class Request:
    """One operation the generator sends, and what happened to it."""

    image: np.ndarray
    query: str
    #: Scheduled offset in seconds from the phase start (open loop).
    offset: float = 0.0
    due: float = 0.0
    sent: float = 0.0
    #: When the caller saw the answer: the future's callback (open loop)
    #: or the return of the blocking wait (closed loop); 0 if never.
    end: float = 0.0
    submit_s: float = 0.0
    #: Answered before ``submit`` returned (a front-door cache hit).
    hit: bool = False
    #: Index into ``TimedGrounder.calls`` of the call that answered it.
    call: Optional[int] = None
    result: Any = None
    error: Optional[BaseException] = None
    traced: bool = False
    window: int = 0

    @property
    def latency(self) -> float:
        return self.end - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due

    @property
    def ok(self) -> bool:
        return self.end > 0.0 and self.error is None


def _complete(req: Request, on_done: Optional[Callable[[Request], None]],
              future) -> None:
    req.end = time.perf_counter()
    req.error = future.exception()
    if req.error is None:
        req.result = future.result()
    if on_done is not None:
        on_done(req)


def open_loop(submit: Callable, requests: Sequence[Request],
              on_done: Optional[Callable[[Request], None]] = None) -> int:
    """Send ``requests`` at their scheduled offsets; wait for every answer.

    Latency counts from each request's due time, so a stall also charges
    the requests queued behind it.  Returns how many requests were still
    unanswered after :data:`RESULT_TIMEOUT`.
    """
    futures = []
    start = time.perf_counter()
    for req in requests:
        req.due = start + req.offset
        delay = req.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        req.sent = time.perf_counter()
        future = submit(req.image, req.query)
        req.submit_s = time.perf_counter() - req.sent
        req.hit = future.done()
        future.add_done_callback(
            lambda f, req=req: _complete(req, on_done, f))
        futures.append(future)
    _, not_done = wait(futures, timeout=RESULT_TIMEOUT)
    return len(not_done)


def closed_loop(submit: Callable, pool: Sequence[Tuple[np.ndarray, str]],
                first: int, seconds: float,
                on_done: Optional[Callable[[Request], None]] = None,
                ) -> Tuple[List[Request], int]:
    """One client: send, wait for the answer, send the next, for ``seconds``.

    Requests cycle through ``pool`` starting at index ``first``.
    Latency runs from call to return.  Returns the requests sent and how
    many never answered.
    """
    sent: List[Request] = []
    lost = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        image, query = pool[(first + len(sent)) % len(pool)]
        req = Request(image, query)
        req.due = req.sent = time.perf_counter()
        future = submit(image, query)
        req.submit_s = time.perf_counter() - req.sent
        req.hit = future.done()
        if on_done is not None:
            future.add_done_callback(lambda f, req=req: on_done(req))
        try:
            req.result = future.result(timeout=RESULT_TIMEOUT)
            req.end = time.perf_counter()
        except ResultTimeout:
            lost += 1
        except Exception as exc:  # a failed request; counted by the caller
            req.error = exc
        sent.append(req)
    return sent, lost


def burst_rate(requests: Sequence[Request]) -> float:
    """Requests per second from the first send to the last answer."""
    answered = [r for r in requests if r.ok]
    if not answered:
        return 0.0
    first = min(r.sent for r in requests)
    return len(answered) / (max(r.end for r in answered) - first)


# ----------------------------------------------------------------------
# Per-request and per-call breakdowns (traced runs)
# ----------------------------------------------------------------------
def call_spans(calls: Sequence[Tuple[float, float, frozenset]],
               spans: Sequence[Span]) -> Dict[int, Span]:
    """Match each timed grounder call to its ``bench.grounder`` span."""
    grounder_spans = sorted((s for s in spans if s.name == "bench.grounder"),
                            key=lambda s: s.start)
    matched: Dict[int, Span] = {}
    cursor = 0
    for index, (start, end, _) in enumerate(calls):
        while cursor < len(grounder_spans) \
                and grounder_spans[cursor].start < start:
            cursor += 1
        if cursor < len(grounder_spans) and grounder_spans[cursor].end <= end:
            matched[index] = grounder_spans[cursor]
            cursor += 1
    return matched


def request_breakdown(requests: Sequence[Request], shim: TimedGrounder,
                      spans: Sequence[Span]) -> Dict[str, Any]:
    """Per-request latency decomposition of the traced requests.

    Each request splits into generator lateness, engine self time
    (latency minus lateness minus the grounder call that answered it)
    and the self times of every span inside that call, the shim's own
    ``bench.grounder`` span included.  The engine part is the only
    remainder and the self times of a call's spans add up to the call,
    so the total meets the latency by construction once spans nest right
    and requests are matched to their calls; it does not show that the
    per-layer metrics explain the latency.  ``layer_share`` does: the
    share of the answering calls' time that spans with a per-layer
    metric of their own cover (the rest is unnamed glue, such as
    ``yollo.forward``'s own self time).  Returns per-layer means in ms,
    the engine self-time p50, both sides of the sum and ``layer_share``.
    """
    traced = [r for r in requests if r.traced and r.ok]
    by_call = call_spans(shim.calls, spans)
    per_call = {index: layer_self_times(span) for index, span in by_call.items()}
    layer_sums: Dict[str, float] = defaultdict(float)
    engine_self: List[float] = []
    component_total = 0.0
    latency_total = 0.0
    named_s = call_total = 0.0
    for req in traced:
        call_s = 0.0
        layers: Dict[str, float] = {}
        if req.call is not None:
            start, end, _ = shim.calls[req.call]
            call_s = end - start
            layers = per_call.get(req.call, {})
        engine = req.latency - req.late - call_s
        engine_self.append(engine)
        for name, seconds in layers.items():
            layer_sums[name] += seconds
        component_total += req.late + engine + sum(
            seconds for name, seconds in layers.items() if name != EAGER_FORWARD)
        latency_total += req.latency
        if layers:
            call_total += call_s
            named_s += sum(seconds for name, seconds in layers.items()
                           if name in LAYER_METRICS)
    count = max(1, len(traced))
    return {
        "requests": len(traced),
        "layers_ms": {name: 1e3 * total / count
                      for name, total in layer_sums.items()},
        "engine_self_p50_ms": 1e3 * percentile(engine_self, 50),
        "sum_ms": 1e3 * component_total / count,
        "latency_ms": 1e3 * latency_total / count,
        "layer_share": named_s / call_total if call_total else 0.0,
    }


# ----------------------------------------------------------------------
# Op-level profile pass (traced runs)
# ----------------------------------------------------------------------
def op_pass(unit: Callable[[int], Any], units: int = 20) -> Dict[str, Tuple[float, int]]:
    """Run ``unit(0) .. unit(units - 1)`` under the op profiler.

    Returns conv/pool/matmul cost per unit.  Compiled plans report fused
    kernels (``conv2d+relu``); each label is attributed to its first op.
    MB are output tensor bytes, computed from tensor sizes.
    """
    with profile(ops=True) as prof:
        for index in range(units):
            unit(index)
    fwd: Dict[str, float] = defaultdict(float)
    bwd: Dict[str, float] = defaultdict(float)
    nbytes: Dict[str, int] = defaultdict(int)
    calls: Dict[str, int] = defaultdict(int)
    for stat in prof.op_stats():
        base = stat.name.split("+")[0]
        fwd[base] += stat.forward_seconds
        bwd[base] += stat.backward_seconds
        nbytes[base] += stat.nbytes
        calls[base] += stat.calls
    per = 1e3 / units
    return {
        "op.conv2d.fwd_ms": (fwd["conv2d"] * per, calls["conv2d"]),
        "op.conv2d.bwd_ms": (bwd["conv2d"] * per, calls["conv2d"]),
        "op.conv2d.mb": (nbytes["conv2d"] / 2**20 / units, calls["conv2d"]),
        "op.max_pool2d.ms": ((fwd["max_pool2d"] + bwd["max_pool2d"]) * per,
                             calls["max_pool2d"]),
        "op.matmul.ms": ((fwd["matmul"] + bwd["matmul"]) * per,
                         calls["matmul"]),
    }

