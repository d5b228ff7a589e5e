"""The four benchmark workloads: train, interactive, serve and fleet.

Each function takes a :class:`harness.Result`, generates every input
from ``result.seed``, sets its system up three times (``setup_s`` is
the median), measures ``harness.WINDOWS`` consecutive windows that
together last ``result.seconds``, checks the answers, and fills the
end-to-end metrics or, in a traced run, the per-layer ones.  A traced
run collects spans in the later windows only; the earlier, untraced
windows give the tracing overhead.  Why each workload exists, and which
layers it stresses, is recorded in ``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backbone import load_pretrained_backbone
from repro.core import Grounder, YolloTrainer
from repro.core.response import responses_equal
from repro.data import REFCOCO, build_dataset
from repro.lang import clause_token_masks, parse
from repro.obs import trace_span
from repro.runtime import CheckpointManager
from repro.scenarios import get_scenario
from repro.serve import (
    FleetConfig,
    FleetRouter,
    ReplicaSpec,
    ServeEngine,
    synthetic_trace,
)
from repro.text.tokenizer import normalize_query
from repro.utils import seed_everything, spawn_rng
from repro.zoo import build_model, build_preset_grounder

from harness import (
    OUT_DIR,
    RESULT_TIMEOUT,
    ROOT,
    SETUP_REPEATS,
    WINDOWS,
    Request,
    HostSpeed,
    Result,
    TimedGrounder,
    TraceSwitch,
    burst_rate,
    closed_loop,
    layer_self_times,
    make_sample,
    median_setup,
    op_pass,
    open_loop,
    peak_rss_mb,
    percentile,
    pin_to_one_cpu,
    request_breakdown,
    run_windows,
    span_forest,
    window_median,
)

PRESET = "tiny"
#: Seed of the model weights.  Every run serves and trains the same
#: model; the run's seed chooses the data and the requests.
MODEL_SEED = 0
#: Unique flat RefCOCO (image, query) pairs the serving workloads draw from.
FLAT_PAIRS = 1500
#: Answers checked against a reference per run.
CHECKED = 256
#: Operations the traced run's op-profile pass covers.
OP_PASS_UNITS = 20

TRAIN_SCALE = 2.0  # 480 train samples
TRAIN_BATCH = 16
TRAIN_WARMUP_STEPS = 3

ENGINE = dict(max_batch=16, max_wait=0.002, cache_size=256)

#: Below the issue's 120: serve runs on one pinned CPU at a fixed
#: schedule, and at 90 requests/s a host slowed 1.5x (probe ~15 ms)
#: saturated it (normalized p50 from ~9 ms to 17 ms).
SERVE_QPS = 60.0
#: Seed of the serve arrival times: every run sees the same Poisson
#: arrival pattern, so runs differ in the requests and not the clumping.
ARRIVAL_SEED = 0
SERVE_CLAUSE_SHARE = 0.25
#: Compositional scenes (two queries each).  With the 1500 flat pairs,
#: this pool makes about 15% of draws hit the 256-entry engine LRU.
SERVE_CLAUSE_SCENES = 200
#: Token budget covering the compositional queries; fixed, so compiled
#: plan shapes and memory do not depend on the seed.
SERVE_MAX_QUERY_LENGTH = 20
#: Burst requests per measured second, split evenly over the windows.
SERVE_BURST_PER_S = 100
#: Unmeasured requests sent first, enough to fill the engine LRU.
SERVE_WARMUP = 400

FLEET_QPS = 80.0
FLEET_REPLICAS = 2
FLEET_BURST_PER_S = 110
#: Share of fleet requests that repeat an earlier request of the run.
FLEET_REPEAT_FRACTION = 0.5
#: Windows that open with a rolling weight reload, and the version each
#: loads: two reloads, at 1/3 and 2/3 of the measured phase, v1 -> v2 -> v1.
RELOAD_WINDOWS = {WINDOWS // 3: "v2", 2 * WINDOWS // 3: "v1"}
#: The replica model: the zoo preset as an eager ranked grounder.
FLEET_BUILDER = dict(preset=PRESET, dataset_name="RefCOCO", scale=0.1,
                     pretrain_steps=1, compiled=False)


# ----------------------------------------------------------------------
# Inputs, windows and shared metrics
# ----------------------------------------------------------------------
def flat_dataset(seed: int):
    """1500 unique flat RefCOCO pairs (750 scenes, two queries each)."""
    seed_everything(seed)
    spec = dataclasses.replace(REFCOCO, seed_tag="perf",
                               scenes_per_split={"val": FLAT_PAIRS // 2})
    return build_dataset(spec)


def build_tiny(vocab_size: int, max_query_length: int, **overrides):
    """The zoo ``tiny`` model, initialised from :data:`MODEL_SEED`."""
    seed_everything(MODEL_SEED)
    return build_model(PRESET, vocab_size=vocab_size,
                       backbone=load_pretrained_backbone("tiny", steps=1),
                       max_query_length=max_query_length, **overrides)


def poisson(rate: float, seconds: float, rng: np.random.Generator) -> List[float]:
    """Arrival offsets of a Poisson process over ``[0, seconds)``."""
    offsets: List[float] = []
    at = rng.exponential(1.0 / rate)
    while at < seconds:
        offsets.append(float(at))
        at += rng.exponential(1.0 / rate)
    return offsets


def traced_window(result: Result, window: int) -> bool:
    """A traced run collects spans from the middle window on."""
    return result.trace and window >= WINDOWS // 2


def tag(requests: Sequence[Request], window: int, traced: bool) -> None:
    for req in requests:
        req.window, req.traced = window, traced


def by_window(requests: Sequence[Request]) -> List[List[Request]]:
    groups: List[List[Request]] = [[] for _ in range(WINDOWS)]
    for req in requests:
        groups[req.window].append(req)
    return groups


def checked_subset(requests: Sequence[Request], seed: int) -> List[Request]:
    """A seeded sample of the answered requests to verify."""
    answered = [r for r in requests if r.ok]
    rng = np.random.default_rng([seed, 7])
    count = min(CHECKED, len(answered))
    return [answered[i] for i in sorted(rng.choice(len(answered), count,
                                                   replace=False))]


def latency_ms(requests: Sequence[Request]) -> List[float]:
    """Latencies in ms; a failed or lost request misses every limit."""
    return [1e3 * (r.latency if r.ok else RESULT_TIMEOUT) for r in requests]


def add_windowed(result: Result, name: str, windows, factors: Sequence[float],
                 stat, rate: bool = False) -> None:
    """An end-to-end metric as the normalized median over windows; the
    raw per-window values and factors are kept in the record."""
    raw = result.info.setdefault("raw", {}).setdefault(name, [])
    result.info["window_factors"] = list(factors)
    result.add(name, window_median(windows, factors, stat, rate, raw),
               sum(len(w) for w in windows))


def add_latency(result: Result, requests: Sequence[Request],
                factors: Sequence[float]) -> None:
    windows = by_window(requests)
    for name, q in (("latency_p50_ms", 50), ("latency_p90_ms", 90)):
        add_windowed(result, name, windows, factors,
                     lambda w: percentile(latency_ms(w), q))


def add_pooled_latency(result: Result, requests: Sequence[Request],
                       factors: Sequence[float]) -> None:
    """Latency percentiles over the whole measured phase, not per window.

    Router-cache hits (under a millisecond) and misses (several) form two
    latency modes, and a window's hit share swings from about 0.1 right
    after a reload to about 0.6 with a long-warm cache, so a window's p50
    falls in either mode.  Over the whole phase the hit share stays near
    0.37, which keeps the p50 among the misses.  Each request's latency
    is normalized by its own window's factor.
    """
    raw = result.info.setdefault("raw", {})
    latencies = latency_ms(requests)
    scaled = [ms * factors[r.window] for ms, r in zip(latencies, requests)]
    for name, q in (("latency_p50_ms", 50), ("latency_p90_ms", 90)):
        raw[name] = [percentile(latencies, q)]
        result.add(name, percentile(scaled, q), len(requests))


def finish_trace(result: Result, windows: Sequence[Sequence[float]],
                 factors: Sequence[float], profiler) -> None:
    """Close a traced run: overhead, time normalization, Chrome trace.

    ``trace.overhead_pct`` compares the median-window p50 of the traced
    windows with that of the untraced ones; per-layer durations are
    normalized by the traced windows' median host-speed factor.
    """
    traced = [traced_window(result, i) for i in range(WINDOWS)]

    def p50(flag: bool) -> float:
        pick = [i for i in range(WINDOWS) if traced[i] == flag]
        return window_median([windows[i] for i in pick],
                             [factors[i] for i in pick],
                             lambda w: percentile(w, 50))

    result.scale_times(float(np.median(
        [f for f, flag in zip(factors, traced) if flag])))
    result.add("trace.overhead_pct", 100.0 * (p50(True) / p50(False) - 1.0),
               sum(len(w) for w in windows))
    export_trace(result, profiler)


def request_latencies(requests: Sequence[Request]) -> List[List[float]]:
    return [latency_ms(w) for w in by_window(requests)]


def add_lateness(result: Result, requests: Sequence[Request]) -> None:
    late = [1e3 * r.late for r in requests if r.traced]
    result.add("loadgen.late_ms_p99", percentile(late, 99), len(late))


def add_op_pass(result: Result, unit) -> None:
    for name, (value, n) in op_pass(unit, OP_PASS_UNITS).items():
        result.add(name, value, n)


def export_trace(result: Result, profiler) -> None:
    """Write the traced windows as a Chrome trace under ``out/``."""
    if profiler is None:
        return
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{result.workload}-seed{result.seed}.json"
    profiler.export_chrome_trace(str(path))
    result.info["chrome_trace"] = str(path.relative_to(ROOT))


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
def run_train(result: Result) -> None:
    pin_to_one_cpu()
    seed_everything(result.seed)
    dataset = build_dataset(REFCOCO.scaled(TRAIN_SCALE))

    def setup() -> YolloTrainer:
        model = build_tiny(len(dataset.vocab), max(8, dataset.max_query_length),
                           batch_size=TRAIN_BATCH)
        trainer = YolloTrainer(model, dataset, rng=spawn_rng("perf-train"))
        trainer.begin_run(iterations=10**9)
        for _ in range(TRAIN_WARMUP_STEPS):
            trainer.apply_step(trainer.forward_backward())
        return trainer

    host = HostSpeed()
    trainer, setup_s = median_setup(setup, lambda _: None, host, result)

    def step(_=None) -> None:
        with trace_span("bench.forward_backward"):
            loss = trainer.forward_backward()
        trainer.apply_step(loss)

    switch = TraceSwitch()
    windows: List[List[float]] = []  # step milliseconds per window

    def window(index: int) -> None:
        if traced_window(result, index):
            switch.on()
        times: List[float] = []
        end = time.perf_counter() + result.seconds / WINDOWS
        while time.perf_counter() < end:
            began = time.perf_counter()
            step()
            times.append(1e3 * (time.perf_counter() - began))
        windows.append(times)

    factors = run_windows(host, window)
    profiler = switch.off()
    result.info["host_probe_ms"] = host.probes

    losses = trainer.history.losses
    measured = losses[TRAIN_WARMUP_STEPS:]
    result.count(len(measured), sum(not np.isfinite(loss) for loss in measured))
    span = max(1, min(20, len(losses) // 2))
    first = float(np.mean(losses[:span]))
    last = float(np.mean(losses[-span:]))
    result.check("losses_finite", bool(np.all(np.isfinite(losses))),
                 f"{len(losses)} losses")
    result.check("loss_decreases", last < first,
                 f"mean of first {span} = {first:.4f}, "
                 f"of last {span} = {last:.4f}")

    if not result.trace:
        result.add("setup_s", setup_s, SETUP_REPEATS)
        result.add("peak_rss_mb", peak_rss_mb())
        for name, q in (("latency_p50_ms", 50), ("latency_p90_ms", 90)):
            add_windowed(result, name, windows, factors,
                         lambda w: percentile(w, q))
        add_windowed(result, "throughput_per_s", windows, factors,
                     lambda w: 1e3 * TRAIN_BATCH * len(w) / sum(w), rate=True)
        return

    traced_steps = sum(len(w) for i, w in enumerate(windows)
                       if traced_window(result, i))
    totals: Dict[str, float] = {}
    for root in span_forest(profiler):
        if root.parent is None:
            for name, seconds in layer_self_times(root).items():
                totals[name] = totals.get(name, 0.0) + seconds
    for name in ("train.batch_ms", "core.encoder_ms", "core.rel2att_ms",
                 "core.detector_ms", "core.loss_ms", "train.backward_ms",
                 "optim.apply_ms", "core.forward_eager_ms"):
        result.add(name, 1e3 * totals.get(name, 0.0) / max(1, traced_steps),
                   traced_steps)
    add_op_pass(result, step)
    finish_trace(result, windows, factors, profiler)


# ----------------------------------------------------------------------
# interactive and serve: one ServeEngine over a compiled ranked grounder
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Served:
    engine: ServeEngine
    shim: TimedGrounder
    compile_ms: float

    def counters(self) -> Dict[str, Any]:
        """Counters a measured stretch is judged by."""
        cache = self.shim.plan_cache
        return {"stats": self.engine.stats(), "lookups": cache.lookups,
                "compiles": cache.compiles, "calls": len(self.shim.calls)}


def serve_setup(vocab, max_query_length: int, clause_conditioning: bool,
                warm: Sequence[Sequence[Any]]) -> Served:
    """Model build, compile, one warm call per batch shape, engine start."""
    model = build_tiny(len(vocab), max_query_length)
    grounder = Grounder(model, vocab,
                        clause_conditioning=clause_conditioning).compile().ranked()
    for batch in warm:
        grounder(batch)
    compile_ms = sum(ms for _, ms in grounder.plan_cache.drain_compile_events())
    shim = TimedGrounder(grounder)
    return Served(ServeEngine(shim, **ENGINE).start(), shim, compile_ms)


def check_against_eager(result: Result, requests: Sequence[Request],
                        served: Served, vocab, max_query_length: int,
                        clause_conditioning: bool) -> None:
    """Served answers must equal a single-query eager grounder's."""
    model = build_tiny(len(vocab), max_query_length)
    model.load_state_dict(served.shim.model.state_dict())
    model.eval()
    reference = Grounder(model, vocab,
                         clause_conditioning=clause_conditioning).ranked()
    checked = checked_subset(requests, result.seed)
    mismatched = sum(
        not responses_equal(req.result,
                            reference([make_sample(req.image, req.query)])[0])
        for req in checked)
    result.count(0, mismatched)
    result.check("responses_equal", mismatched == 0 and len(checked) > 0,
                 f"{len(checked) - mismatched}/{len(checked)} served responses "
                 f"equal the single-query eager reference")


def add_serving_layers(result: Result, served: Served,
                       requests: Sequence[Request], profiler,
                       at_switch: Dict[str, Any], at_end: Dict[str, Any]) -> None:
    """Per-layer metrics of the traced windows of interactive or serve."""
    breakdown = request_breakdown(requests, served.shim, span_forest(profiler))
    n = breakdown["requests"]
    for name in ("core.encoder_ms", "core.rel2att_ms", "core.detector_ms",
                 "graph.execute_ms", "core.decode_ms", "core.predictor.self_ms",
                 "core.forward_eager_ms"):
        result.add(name, breakdown["layers_ms"].get(name, 0.0), n)
    result.add("serve.engine.self_ms_p50", breakdown["engine_self_p50_ms"], n)
    result.info["latency_breakdown_ms"] = breakdown
    result.check("self_times_add_up",
                 abs(breakdown["sum_ms"] - breakdown["latency_ms"])
                 <= 0.1 * breakdown["latency_ms"],
                 f"per-request self times sum to {breakdown['sum_ms']:.3f} ms "
                 f"against {breakdown['latency_ms']:.3f} ms mean latency")

    stats = at_end["stats"]  # the engine's stats were reset at the switch
    result.add("serve.engine.batches", stats.batches, stats.batches)
    result.add("serve.engine.batch_size_mean", stats.mean_batch_size, stats.batches)
    result.add("serve.engine.cache_hit_rate", stats.cache_hit_rate,
               stats.cache_hits + stats.cache_misses)
    result.add("serve.engine.queue_depth_max", stats.queue_depth_max,
               stats.batches)

    calls = served.shim.calls[at_switch["calls"]:at_end["calls"]]
    call_ms = [1e3 * (end - start) for start, end, _ in calls]
    result.add("core.predictor.call_ms_p50", percentile(call_ms, 50), len(calls))
    lookups = at_end["lookups"] - at_switch["lookups"]
    result.add("graph.eager_batch_share",
               1.0 - lookups / len(calls) if calls else 0.0, len(calls))


def run_serving(result: Result, open_loop_mode: bool) -> None:
    pin_to_one_cpu()
    dataset = flat_dataset(result.seed)
    samples = dataset["val"]
    rng = np.random.default_rng([result.seed, 1])
    window_s = result.seconds / WINDOWS
    if open_loop_mode:
        seed_everything(result.seed)
        pools = (samples,
                 get_scenario("compositional").eval_samples(SERVE_CLAUSE_SCENES))
        max_len = SERVE_MAX_QUERY_LENGTH

        def draw(clause: bool, offset: float = 0.0) -> Request:
            pool = pools[int(clause)]
            sample = pool[int(rng.integers(len(pool)))]
            return Request(sample.image, sample.query, offset=offset)

        def mix(count: int) -> np.ndarray:
            """Exactly the clause share, in seeded positions."""
            clause = np.arange(count) < round(SERVE_CLAUSE_SHARE * count)
            rng.shuffle(clause)
            return clause

        warmup = [draw(c) for c in mix(SERVE_WARMUP)]
        per_burst = max(1, int(SERVE_BURST_PER_S * result.seconds / WINDOWS))
        plan = []
        for index in range(WINDOWS):
            arrivals = poisson(SERVE_QPS, window_s,
                               np.random.default_rng([ARRIVAL_SEED, index]))
            plan.append(([draw(c, at) for c, at in zip(mix(len(arrivals)), arrivals)],
                         [draw(c) for c in mix(per_burst)]))
        warm = [[make_sample(s.image, s.query) for s in samples[:size]]
                for size in range(1, ENGINE["max_batch"] + 1)]
    else:
        pairs = [(samples[i].image, samples[i].query)
                 for i in rng.permutation(len(samples))]
        max_len = max(8, dataset.max_query_length)
        warm = [[make_sample(*pairs[0])]]
        warmup = []

    host = HostSpeed()
    served, setup_s = median_setup(
        lambda: serve_setup(dataset.vocab, max_len, open_loop_mode, warm),
        lambda s: s.engine.stop(), host, result)
    engine, shim = served.engine, served.shim
    lost = open_loop(engine.submit, warmup)
    engine.reset_stats()
    at_start = served.counters()
    at_switch: Dict[str, Any] = {}

    def snapshot_and_reset() -> None:
        at_switch.update(served.counters())
        engine.reset_stats()

    switch = TraceSwitch(on_start=snapshot_and_reset)
    phase: List[Request] = []
    bursts: List[List[Request]] = []

    def window(index: int) -> None:
        nonlocal lost
        if traced_window(result, index):
            switch.on()
        if open_loop_mode:
            sent, burst = plan[index]
            lost += open_loop(engine.submit, sent, on_done=shim.attribute)
            lost += open_loop(engine.submit, burst, on_done=shim.attribute)
            bursts.append(burst)
        else:
            sent, missing = closed_loop(engine.submit, pairs, len(phase),
                                        window_s, on_done=shim.attribute)
            lost += missing
        tag(sent, index, switch.active)
        phase.extend(sent)

    factors = run_windows(host, window)
    profiler = switch.off()
    at_end = served.counters()
    engine.stop()
    rss = peak_rss_mb()
    result.info["host_probe_ms"] = host.probes

    requests = phase + [req for burst in bursts for req in burst]
    result.count(len(warmup) + len(requests),
                 sum(not r.ok for r in warmup + requests) + lost)
    hits = at_end["stats"].cache_hits + (
        at_switch["stats"].cache_hits if at_switch else 0)
    result.info["engine_cache_hits"] = hits
    if not open_loop_mode:
        result.check("no_cache_hits", hits == 0,
                     f"{hits} engine cache hits on unique pairs")
    check_against_eager(result, requests, served, dataset.vocab, max_len,
                        open_loop_mode)

    if not result.trace:
        result.add("setup_s", setup_s, SETUP_REPEATS)
        result.add("peak_rss_mb", rss)
        add_latency(result, phase, factors)
        add_windowed(result, "throughput_per_s",
                     bursts if open_loop_mode else by_window(phase),
                     factors, burst_rate, rate=True)
        return

    add_serving_layers(result, served, phase, profiler, at_switch, at_end)
    result.add("graph.compiles", at_end["compiles"] - at_start["compiles"],
               len(shim.calls))
    result.add("graph.compile_ms_total", served.compile_ms, len(warm))
    units = [make_sample(r.image, r.query) for r in phase[:OP_PASS_UNITS]]
    add_op_pass(result, lambda i: shim.inner([units[i % len(units)]]))
    if open_loop_mode:
        add_lateness(result, phase)
        queries = [normalize_query(r.query) for r in phase]
        start = time.perf_counter()
        for query in queries:
            clause_token_masks(parse(query), max_len)
        result.add("lang.parse_us",
                   1e6 * (time.perf_counter() - start) / len(queries),
                   len(queries))
    finish_trace(result, request_latencies(phase), factors, profiler)


def run_interactive(result: Result) -> None:
    run_serving(result, open_loop_mode=False)


def run_serve(result: Result) -> None:
    run_serving(result, open_loop_mode=True)


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------
def perturbed(state: Dict[str, np.ndarray], seed: int) -> Dict[str, np.ndarray]:
    """A second weights version: every entry scaled by seeded noise."""
    rng = np.random.default_rng([seed, 2])
    return {key: value * (1.0 + 0.05 * rng.standard_normal(np.shape(value)))
            for key, value in state.items()}


def hit_rate(before, after) -> float:
    """Router cache hit rate between two ``FleetRouter.stats()``."""
    hits = after.cache_hits - before.cache_hits
    lookups = hits + after.cache_misses - before.cache_misses
    return hits / lookups if lookups else 0.0


class Reloads:
    """Rolling weight reloads fired while traffic flows (see
    :data:`RELOAD_WINDOWS`); each one flushes both cache tiers."""

    def __init__(self, router: Optional[FleetRouter], paths: Dict[str, str]):
        self.router = router
        self.paths = paths
        #: ``(version, started, finished)`` per completed reload.
        self.done: List[Tuple[str, float, float]] = []
        self.errors: List[BaseException] = []
        self._thread: Optional[threading.Thread] = None

    def fire(self, version: str) -> None:
        self._thread = threading.Thread(target=self._reload, args=(version,),
                                        name="bench-reload", daemon=True)
        self._thread.start()

    def _reload(self, version: str) -> None:
        began = time.perf_counter()
        try:
            self.router.reload_weights(self.paths[version])
        except Exception as exc:  # reported through the reload gate
            self.errors.append(exc)
            return
        self.done.append((version, began, time.perf_counter()))

    def join(self) -> None:
        if self._thread is not None:
            self._thread.join(RESULT_TIMEOUT)

    def allowed(self, req: Request) -> set:
        """Versions live at some moment of ``[sent, end]``.

        Before a reload starts only the old version is live, during it
        both are, and once it has finished only the new one is: an old
        answer to a request sent after that is stale.
        """
        segments = []
        current, since = "v1", float("-inf")
        for version, began, finished in self.done:
            segments.append((since, began, {current}))
            segments.append((began, finished, {current, version}))
            current, since = version, finished
        segments.append((since, float("inf"), {current}))
        allowed: set = set()
        for lo, hi, live in segments:
            if lo <= req.end and hi >= req.sent:
                allowed |= live
        return allowed


def run_fleet(result: Result) -> None:
    samples = flat_dataset(result.seed)["val"]
    window_s = result.seconds / WINDOWS
    rng = np.random.default_rng([result.seed, 3])
    warm_count = int(FLEET_QPS * result.seconds / 5)
    per_window = int(FLEET_QPS * window_s)
    per_burst = max(1, int(FLEET_BURST_PER_S * window_s))
    # One trace for the whole run in send order (warm-up, then each
    # window's open loop and burst), so a repeat may recall any earlier
    # request, as in one long ``timed_trace``; open-loop stretches get
    # its Poisson arrivals (exponential gaps at FLEET_QPS).
    trace = iter(synthetic_trace(
        samples, warm_count + WINDOWS * (per_window + per_burst),
        repeat_fraction=FLEET_REPEAT_FRACTION, rng=rng))

    def take(count: int, timed: bool = True) -> List[Request]:
        offsets = (np.cumsum(rng.exponential(1.0 / FLEET_QPS, count))
                   if timed else np.zeros(count))
        return [Request(t.image, t.query, offset=float(at))
                for at, t in zip(offsets, trace)]

    warm = take(warm_count)
    plan = [(take(per_window), take(per_burst, timed=False))
            for _ in range(WINDOWS)]

    # Replicas seed and build exactly like this, so this grounder answers
    # as they do; it is the reference for both weight versions.
    seed_everything(MODEL_SEED)
    reference = build_preset_grounder(**FLEET_BUILDER)
    versions = {"v1": reference.model.state_dict()}
    versions["v2"] = perturbed(versions["v1"], result.seed)
    manager = CheckpointManager(str(OUT_DIR / f"work-{os.getpid()}"), keep=2)
    paths = {name: manager.save(state, index)
             for index, (name, state) in enumerate(versions.items())}

    spec = ReplicaSpec(builder=build_preset_grounder, builder_kwargs=FLEET_BUILDER,
                       model_id=PRESET, cache_size=256, seed=MODEL_SEED)
    config = FleetConfig(replicas=FLEET_REPLICAS, router_cache=256,
                         max_queue=max(64, 4 * per_burst))

    def setup() -> FleetRouter:
        router = FleetRouter(spec, config).start()
        if not router.wait_healthy(120.0):
            router.stop()
            raise RuntimeError("fleet replicas never became healthy")
        return router

    host = HostSpeed()
    router, setup_s = median_setup(setup, lambda r: r.stop(), host, result)

    def submit(image, query):
        with trace_span("bench.fleet.submit"):
            return router.submit(image, query)

    at_switch: Dict[str, Any] = {}
    switch = TraceSwitch(on_start=lambda: at_switch.update(stats=router.stats()))
    reloads = Reloads(router, paths)
    lost = open_loop(submit, warm)
    at_start = router.stats()
    phase: List[Request] = []
    bursts: List[List[Request]] = []

    def window(index: int) -> None:
        nonlocal lost
        if traced_window(result, index):
            switch.on()
        sent, burst = plan[index]
        if index in RELOAD_WINDOWS:
            reloads.fire(RELOAD_WINDOWS[index])
        lost += open_loop(submit, sent)
        reloads.join()
        lost += open_loop(submit, burst)
        tag(sent, index, switch.active)
        phase.extend(sent)
        bursts.append(burst)

    factors = run_windows(host, window)
    profiler = switch.off()
    at_end = router.stats()
    router.stop()
    rss = peak_rss_mb()
    result.info["host_probe_ms"] = host.probes
    result.info["router_hit_rate"] = hit_rate(at_start, at_end)
    result.info["window_hit_share"] = [
        float(np.mean([r.hit for r in w])) if w else 0.0
        for w in by_window(phase)]
    for path in paths.values():
        os.remove(path)
    os.rmdir(manager.directory)

    served = phase + [req for burst in bursts for req in burst]
    result.check("reloads_completed",
                 not reloads.errors and len(reloads.done) == len(RELOAD_WINDOWS),
                 f"{len(reloads.done)}/{len(RELOAD_WINDOWS)} reloads, "
                 f"errors={reloads.errors!r}")
    result.check("no_lost_requests", lost == 0, f"{lost} futures never resolved")
    checked = checked_subset(served, result.seed)
    answers: Dict[str, list] = {}
    for version, state in versions.items():
        reference.model.load_state_dict(state)
        answers[version] = [reference([make_sample(r.image, r.query)])[0]
                            for r in checked]
    mismatched = stale = 0
    for index, req in enumerate(checked):
        matches = {v for v in answers
                   if responses_equal(req.result, answers[v][index])}
        if not matches & reloads.allowed(req):
            mismatched += 1
            stale += bool(matches)
    everything = warm + served
    result.count(len(everything),
                 sum(not r.ok for r in everything) + lost + mismatched)
    result.check("responses_match_version", mismatched == 0 and len(checked) > 0,
                 f"{len(checked) - mismatched}/{len(checked)} responses equal "
                 f"the reference of a live weights version; {stale} stale")

    if not result.trace:
        result.add("setup_s", setup_s, SETUP_REPEATS)
        result.add("peak_rss_mb", rss)
        add_pooled_latency(result, phase, factors)
        add_windowed(result, "throughput_per_s", bursts, factors, burst_rate,
                     rate=True)
        return

    traced = [r for r in phase if r.traced and r.ok]
    hits = [1e3 * r.latency for r in traced if r.hit]
    misses = [1e3 * r.latency for r in traced if not r.hit]
    result.add("fleet.submit_ms_p50",
               percentile([1e3 * r.submit_s for r in traced], 50), len(traced))
    result.add("fleet.hit_ms_p50", percentile(hits, 50), len(hits))
    result.add("fleet.miss_ms_p50", percentile(misses, 50), len(misses))
    result.add("fleet.miss_ms_p99", percentile(misses, 99), len(misses))
    before = at_switch["stats"]
    result.add("fleet.cache.hit_rate", hit_rate(before, at_end),
               at_end.cache_hits + at_end.cache_misses
               - before.cache_hits - before.cache_misses)
    for name, counter in (("fleet.cache.evictions", "cache_evictions"),
                          ("fleet.retries", "retries"), ("fleet.shed", "shed"),
                          ("fleet.stale_responses", "stale_responses")):
        result.add(name, getattr(at_end, counter) - getattr(before, counter),
                   len(traced))
    reload_s = [finished - began for _, began, finished in reloads.done]
    result.add("fleet.reload_s", float(np.mean(reload_s)) if reload_s else 0.0,
               len(reload_s))
    per_replica = [after["served"] - prior["served"]
                   for prior, after in zip(before.replicas, at_end.replicas)]
    result.add("fleet.replica_imbalance",
               max(per_replica) / max(1, min(per_replica)), sum(per_replica))
    add_lateness(result, phase)
    units = [make_sample(r.image, r.query) for r in phase[:OP_PASS_UNITS]]
    add_op_pass(result, lambda i: reference([units[i % len(units)]]))
    # Hits and misses form two latency modes, and the hit share differs
    # between the untraced early windows and the traced late ones, so the
    # tracing overhead is judged on misses alone.
    finish_trace(result, request_latencies([r for r in phase if not r.hit]),
                 factors, profiler)


WORKLOADS = {
    "train": run_train,
    "interactive": run_interactive,
    "serve": run_serve,
    "fleet": run_fleet,
}
