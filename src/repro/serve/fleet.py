"""Fault-tolerant serving fleet: a router over ``ServeEngine`` replicas.

:class:`FleetRouter` is the front door for the "millions of users"
serving story: it dispatches requests to N replica subprocesses (each a
micro-batching :class:`~repro.serve.ServeEngine`, see
:mod:`repro.serve.replica`) and keeps the fleet healthy:

* **Least-loaded routing** — each dispatch picks the live replica with
  the fewest outstanding requests, folding in the queue depth replicas
  report through heartbeats.
* **Backpressure** — admission is a bounded queue; when it is full the
  request is *shed* with a typed :class:`Overloaded` future instead of
  accumulating unbounded latency.  Per-replica in-flight is also capped
  so one slow replica cannot absorb the whole queue.
* **Deadlines** — every attempt has a deadline; an expired attempt is
  cancelled (its late response is ignored) and retried once on a
  different replica after a jittered backoff from
  :func:`repro.runtime.retry.backoff_delay`; a second expiry resolves
  the future with :class:`DeadlineExceeded`.
* **Supervision** — missed heartbeats, pipe EOF, or a dead process mark
  a replica dead: its in-flight requests are requeued onto survivors
  and a replacement is respawned (generation + 1, injected fault plans
  apply to generation 0 only — the PR-5 fault-aware rebuild idiom).
* **Rolling hot reload** — :meth:`FleetRouter.reload_weights` drains
  replicas one at a time, loads a checksummed
  :mod:`repro.runtime` checkpoint, and verifies the replica's post-load
  weight checksum against the payload the router read itself.  The rest
  of the fleet keeps serving; no in-flight request is dropped.
* **Router-tier response cache** — a
  :class:`~repro.serve.cache.VersionedCache` (the class each replica's
  engine caches with too) keyed on ``(model_id, image_digest, query)``
  answers repeats before admission (no pipe round-trip, and hits
  survive replica respawns).  A completed rolling reload invalidates it
  (dropping every pre-reload response and bumping its version), a failed
  roll leaves it untouched, and responses dispatched under an older
  version are refused insertion — stale results can neither be served
  nor stored.

Every counter and distribution is published as ``serve.fleet.*`` into a
:class:`~repro.obs.MetricsRegistry`; :meth:`FleetRouter.stats` snapshots
them into a :class:`FleetStats`.  The invariant the soak harness
(:mod:`repro.serve.soak`) asserts: **every submitted request resolves**
— success, :class:`Overloaded`, :class:`DeadlineExceeded`, or
:class:`FleetStopped` — never an unresolved future.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.autograd.tensor import as_compute_array
from repro.core.response import GroundingResponse, thaw_response
from repro.obs import HistogramSummary, MetricsRegistry
from repro.runtime.checkpoint import read_checkpoint, state_checksum
from repro.runtime.retry import backoff_delay
from repro.serve.cache import VersionedCache, image_digest
from repro.text.tokenizer import normalize_query
from repro.serve.replica import ReplicaSpec, _replica_entry
from repro.utils.logging import ProgressLogger
from repro.utils.seeding import spawn_rng


#: Outstanding requests per replica before the dispatcher holds back
#: (load is shed at admission, not piled up behind one replica).
MAX_REPLICA_INFLIGHT = 32
#: Total attempts per request (2 = one retry on a different replica).
RETRY_ATTEMPTS = 2
#: Base and cap (seconds) of the retry and respawn backoff delays.
RETRY_BASE_DELAY = 0.005
RETRY_MAX_DELAY = 0.25
#: Fractional jitter on retry and respawn backoff delays.
RETRY_JITTER = 0.5
#: Seconds :meth:`FleetRouter.stop` drains unless given a timeout.
STOP_TIMEOUT = 30.0
#: Seconds a spawned replica may take to report ready.
SPAWN_TIMEOUT = 120.0
#: Generations a replica slot may reach before it stays dead.
MAX_RESPAWNS = 8
#: Seconds between monitor sweeps (liveness, heartbeats, deadlines).
MONITOR_INTERVAL = 0.005


class FleetError(RuntimeError):
    """Base class for fleet-level request failures."""


class Overloaded(FleetError):
    """Shed at admission: the bounded queue was full (backpressure)."""


class DeadlineExceeded(FleetError):
    """Every allowed attempt ran past its deadline."""


class ReplicaLost(FleetError):
    """The serving replica died on every allowed attempt."""


class FleetStopped(FleetError):
    """The fleet shut down before this request could be served."""


class ReloadError(FleetError):
    """A rolling weight reload failed (bad checkpoint or bad handshake)."""


class UnknownModel(FleetError):
    """A request or reload targeted a model the fleet does not serve."""

    def __init__(self, model: str, available: Sequence[str]):
        self.model = model
        self.available = tuple(available)
        super().__init__(
            f"unknown model {model!r}; fleet serves: "
            f"{', '.join(repr(m) for m in available)}")


@dataclass
class FleetConfig:
    """The :class:`FleetRouter` settings a deployment chooses; in-flight
    cap, retry and stop drain time are this module's constants."""

    replicas: int = 2
    #: Bounded admission queue; a full queue sheds with ``Overloaded``.
    max_queue: int = 64
    #: Router-tier response cache entries (0 disables).  Repeats hit in
    #: the router without a replica round-trip; a completed rolling
    #: reload invalidates the cache so stale responses are never served.
    router_cache: int = 256
    #: Per-attempt deadline (seconds) used when ``submit`` gives none.
    default_deadline: float = 30.0
    heartbeat_timeout: float = 5.0

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if self.router_cache < 0:
            raise ValueError("router_cache must be non-negative")


@dataclass
class ReloadReport:
    """What one rolling reload did, replica by replica."""

    path: str
    checksum: str
    replicas: List[Dict[str, Any]] = field(default_factory=list)
    wall_seconds: float = 0.0


@dataclass(frozen=True)
class FleetStats:
    """One snapshot of the fleet's counters and latency distribution."""

    submitted: int
    completed: int
    shed: int
    retries: int
    deadline_exceeded: int
    failed: int
    respawns: int
    reloads: int
    stale_responses: int
    latency: HistogramSummary
    reload_seconds_total: float
    #: Router-tier cache tallies (0s when ``router_cache=0``).
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    #: Version of the router cache: completed rolling reloads so far.
    cache_epoch: int = 0
    replicas: Tuple[Dict[str, Any], ...] = ()

    @property
    def alive(self) -> int:
        return sum(1 for r in self.replicas if r["state"] == "up")

    @property
    def cache_hit_rate(self) -> float:
        """Router-tier hit fraction (hits answered before admission)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def resolved(self) -> int:
        """Requests resolved one way or another (none may be missing)."""
        return self.completed + self.shed + self.deadline_exceeded + self.failed

    def render(self) -> str:
        lines = [
            f"fleet    {self.completed}/{self.submitted} served, "
            f"{self.shed} shed, {self.deadline_exceeded} deadline-exceeded, "
            f"{self.failed} failed",
            f"latency  {self.latency.render_ms()}",
            f"faults   {self.retries} retries, {self.respawns} respawns, "
            f"{self.stale_responses} stale responses",
            f"reloads  {self.reloads} "
            f"({self.reload_seconds_total:.3f}s total)",
            f"cache    hits={self.cache_hits} misses={self.cache_misses} "
            f"evictions={self.cache_evictions} epoch={self.cache_epoch} "
            f"hit-rate={self.cache_hit_rate * 100:.1f}%",
        ]
        for info in self.replicas:
            model = info.get("model", "")
            lines.append(
                f"replica{info['index']}  {info['state']:<9} "
                f"gen={info['generation']} depth={info['depth']} "
                f"in-flight={info['in_flight']} served={info['served']}"
                + (f" model={model}" if model else "")
            )
        return "\n".join(lines)


@dataclass
class _FleetRequest:
    """Router-side bookkeeping for one submitted request."""

    req_id: int
    image: np.ndarray
    query: str
    deadline: float
    future: Future
    enqueued: float
    attempts: int = 0
    deadline_ts: float = 0.0
    tried: Set[int] = field(default_factory=set)
    done: bool = False
    #: Model this request must be served by (``None`` = any replica).
    model: Optional[str] = None
    #: Router-cache key ``(model_id, image_digest, query)`` — ``None``
    #: when the router cache is disabled or the request is untargeted in
    #: a heterogeneous fleet (any replica may answer, so no single model
    #: identity exists to key the entry under).
    key: Optional[Tuple[str, str, str]] = None
    #: Router-cache version at submit time — the response is offered to
    #: the cache under it, so an answer that races a completed weight
    #: roll is refused rather than cached as current.
    version: int = 0


class _Slot:
    """One replica slot: the process currently filling it plus state."""

    def __init__(self, index: int, model_id: str = ""):
        self.index = index
        self.model_id = model_id
        self.generation = -1
        self.process = None
        self.conn = None
        self.send_lock = threading.Lock()
        #: starting -> up -> (draining <-> up) -> lost/dead
        self.state = "new"
        self.started_at = 0.0
        self.last_heartbeat = 0.0
        self.depth = 0
        self.served = 0
        self.in_flight: Dict[int, _FleetRequest] = {}
        self.control: "queue.Queue" = queue.Queue()
        self.respawn_at: Optional[float] = None

    def info(self) -> Dict[str, Any]:
        return {
            "index": self.index, "state": self.state,
            "generation": self.generation, "depth": self.depth,
            "in_flight": len(self.in_flight), "served": self.served,
            "model": self.model_id,
        }


class FleetRouter:
    """Front-door router over N serving replica processes.

    Use as a context manager, or call :meth:`start`/:meth:`stop`.
    """

    def __init__(self, spec: Union[ReplicaSpec, Sequence[ReplicaSpec]],
                 config: FleetConfig = None,
                 metrics: MetricsRegistry = None,
                 logger: Optional[ProgressLogger] = None,
                 rng=None):
        # One spec = homogeneous fleet (the common case); a sequence of
        # specs makes a *heterogeneous* fleet: slot i runs
        # ``specs[i % len(specs)]``, so N replicas round-robin over the
        # models and model-tagged requests route only to matching slots.
        if isinstance(spec, ReplicaSpec):
            self.specs: Tuple[ReplicaSpec, ...] = (spec,)
        else:
            self.specs = tuple(spec)
            if not self.specs:
                raise ValueError("at least one ReplicaSpec is required")
        self.spec = self.specs[0]
        #: Distinct model identities, in spec order.
        self.model_ids: Tuple[str, ...] = tuple(
            dict.fromkeys(s.model_id for s in self.specs))
        self.config = config if config is not None else FleetConfig()
        if self.config.replicas < len(self.specs):
            raise ValueError(
                f"{len(self.specs)} replica specs need at least that many "
                f"replicas (config.replicas={self.config.replicas})")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.logger = logger or ProgressLogger("fleet", enabled=False)
        self._rng = rng if rng is not None else spawn_rng("fleet-backoff")
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.RLock()
        self._slots: Dict[int, _Slot] = {}
        self._admission: "queue.Queue" = queue.Queue(
            maxsize=self.config.max_queue)
        self._response_cache = VersionedCache(
            self.config.router_cache, self.metrics, "serve.fleet.cache.")
        self._retry_heap: List[Tuple[float, int, _FleetRequest]] = []
        self._seq = itertools.count()
        #: Last rolled checkpoint per model identity — respawned
        #: replicas of a model rejoin at that model's weights.
        self._current_checkpoints: Dict[str, Optional[str]] = {
            s.model_id: s.initial_checkpoint for s in self.specs}
        self._closing = threading.Event()
        self._closed = False
        self._started = False
        self._threads: List[threading.Thread] = []

        m = self.metrics
        self._m_submitted = m.counter("serve.fleet.requests")
        self._m_completed = m.counter("serve.fleet.completed")
        self._m_shed = m.counter("serve.fleet.shed")
        self._m_retries = m.counter("serve.fleet.retries")
        self._m_deadline = m.counter("serve.fleet.deadline_exceeded")
        self._m_failed = m.counter("serve.fleet.failed")
        self._m_respawns = m.counter("serve.fleet.respawns")
        self._m_reloads = m.counter("serve.fleet.reloads")
        self._m_stale = m.counter("serve.fleet.stale_responses")
        self._m_latency = m.histogram("serve.fleet.latency_seconds")
        self._m_reload_s = m.histogram("serve.fleet.reload_seconds")
        self._m_depth = m.histogram("serve.fleet.replica_queue_depth")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FleetRouter":
        with self._lock:
            if self._started:
                return self
            self._started = True
            for index in range(self.config.replicas):
                slot = _Slot(index,
                             model_id=self._spec_for(index).model_id)
                self._slots[index] = slot
                self._spawn(slot)
        self._spawn_thread(self._dispatch_loop, "fleet-dispatch")
        self._spawn_thread(self._monitor_loop, "fleet-monitor")
        return self

    def __enter__(self) -> "FleetRouter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _spawn_thread(self, target, name: str) -> None:
        thread = threading.Thread(target=target, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    def _spec_for(self, index: int) -> ReplicaSpec:
        """The replica spec that fills slot ``index``."""
        return self.specs[index % len(self.specs)]

    def _spawn(self, slot: _Slot) -> None:
        """Launch a (re)placement process into ``slot``."""
        slot.generation += 1
        base = self._spec_for(slot.index)
        # Injected fault plans apply to generation 0 only: a respawned
        # replica runs clean (PR-5 fault-aware rebuild idiom), and it
        # joins at its model's last completed rolling reload.
        spec = replace(
            base,
            fault_plan=base.fault_plan if slot.generation == 0 else None,
            initial_checkpoint=self._current_checkpoints[base.model_id],
        )
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_replica_entry,
            args=(spec, slot.index, slot.generation, child_conn),
            name=f"serve-replica-{slot.index}-{slot.generation}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        slot.process = process
        slot.conn = parent_conn
        slot.state = "starting"
        slot.started_at = self._now()
        slot.respawn_at = None
        slot.depth = 0
        self._spawn_thread(lambda: self._receive_loop(slot, parent_conn),
                           f"fleet-recv-{slot.index}-{slot.generation}")

    def stop(self, timeout: Optional[float] = None) -> None:
        """Drain in-flight work, stop replicas, resolve every future."""
        timeout = timeout if timeout is not None else STOP_TIMEOUT
        with self._lock:
            if self._closed:
                return
            self._closed = True  # submit() now rejects with FleetStopped
        deadline = self._now() + timeout
        while self._now() < deadline:
            with self._lock:
                busy = (not self._admission.empty() or self._retry_heap
                        or any(slot.in_flight
                               for slot in self._slots.values()))
            if not busy:
                break
            time.sleep(0.005)
        self._closing.set()
        # Fail whatever could not drain in time — typed, never silent.
        leftovers: List[_FleetRequest] = []
        with self._lock:
            while True:
                try:
                    leftovers.append(self._admission.get_nowait())
                except queue.Empty:
                    break
            leftovers.extend(req for _, _, req in self._retry_heap)
            self._retry_heap.clear()
            for slot in self._slots.values():
                leftovers.extend(slot.in_flight.values())
                slot.in_flight.clear()
        for req in leftovers:
            self._finish(req, error=FleetStopped(
                "fleet stopped before this request was served"))
        with self._lock:
            slots = list(self._slots.values())
        for slot in slots:
            if slot.process is not None and slot.process.is_alive():
                try:
                    with slot.send_lock:
                        slot.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        join_deadline = self._now() + 10.0
        for slot in slots:
            if slot.process is not None:
                slot.process.join(max(0.1, join_deadline - self._now()))
                if slot.process.is_alive():
                    slot.process.terminate()
                    slot.process.join(5.0)
            if slot.conn is not None:
                try:
                    slot.conn.close()
                except OSError:
                    pass
            slot.state = "stopped"

    # ------------------------------------------------------------------
    # Request API
    # ------------------------------------------------------------------
    def submit(self, image: np.ndarray, query: str,
               deadline: Optional[float] = None,
               model: Optional[str] = None) -> Future:
        """Enqueue one request; the future resolves to the replica's
        :class:`~repro.core.GroundingResponse` or a typed
        :class:`FleetError`; it is never left unresolved.

        ``model`` pins the request to replicas serving that model
        identity (see :attr:`ReplicaSpec.model_id`); an unknown identity
        resolves the future with :class:`UnknownModel`.  In a
        homogeneous fleet ``model=None`` targets the fleet's single
        model; in a heterogeneous fleet it means "any replica" — and
        such requests bypass the router cache, since no one model
        identity can vouch for the answer.

        Repeats are answered from the router-tier cache before
        admission: no queue slot, no replica round-trip, and the hit
        survives any replica crash or respawn.  Entries are keyed by
        ``(model_id, image_digest, query)`` — a hit is only ever served
        back to the model that computed it — and a completed weight roll
        invalidates the cache, so no pre-reload response is returned
        after it.
        """
        if not self._started:
            self.start()
        future: Future = Future()
        with self._lock:
            if self._closed:
                future.set_exception(FleetStopped("fleet is stopped"))
                return future
        if model is not None and model not in self.model_ids:
            future.set_exception(UnknownModel(model, self.model_ids))
            return future
        target = model
        if target is None and len(self.model_ids) == 1:
            target = self.model_ids[0]
        # Normalise once at the front door, so whitespace/case variants
        # of one query share a single entry in the router-tier cache AND
        # (via the forwarded request) in every replica's engine cache.
        # The image is keyed, piped and batched in the compute dtype.
        query = normalize_query(str(query))
        image = as_compute_array(image)
        self._m_submitted.inc()
        enqueued = self._now()
        key: Optional[Tuple[str, str, str]] = None
        version = 0
        if self._response_cache.capacity and target is not None:
            key = (target, image_digest(image), query)
            cached = self._response_cache.get(key)
            if cached is not None:
                self._m_completed.inc()
                self._m_latency.observe(self._now() - enqueued)
                # Defensive thaw: the stored response is shared by every
                # later hit and must not be mutable through a caller's
                # copy (thaw deep-copies its box and score arrays).
                future.set_result(thaw_response(cached))
                return future
            version = self._response_cache.version
        req = _FleetRequest(
            req_id=next(self._seq), image=image, query=query,
            deadline=float(deadline if deadline is not None
                           else self.config.default_deadline),
            future=future, enqueued=enqueued,
            model=target, key=key, version=version,
        )
        try:
            self._admission.put_nowait(req)
        except queue.Full:
            self._m_shed.inc()
            future.set_exception(Overloaded(
                f"admission queue full ({self.config.max_queue}); "
                f"request shed"))
        return future

    def ground(self, image: np.ndarray, query: str,
               deadline: Optional[float] = None,
               timeout: float = 60.0,
               model: Optional[str] = None) -> GroundingResponse:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(image, query, deadline=deadline,
                           model=model).result(timeout=timeout)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def alive_replicas(self) -> int:
        with self._lock:
            return sum(1 for slot in self._slots.values()
                       if slot.state == "up")

    def wait_healthy(self, timeout: float = 60.0) -> bool:
        """Block until every replica slot reports ready (or timeout)."""
        deadline = self._now() + timeout
        while self._now() < deadline:
            if self.alive_replicas() == self.config.replicas:
                return True
            time.sleep(0.01)
        return self.alive_replicas() == self.config.replicas

    def stats(self) -> FleetStats:
        with self._lock:
            infos = tuple(self._slots[i].info() for i in sorted(self._slots))
        cache = self._response_cache.stats()
        return FleetStats(
            submitted=self._m_submitted.value,
            completed=self._m_completed.value,
            shed=self._m_shed.value,
            retries=self._m_retries.value,
            deadline_exceeded=self._m_deadline.value,
            failed=self._m_failed.value,
            respawns=self._m_respawns.value,
            reloads=self._m_reloads.value,
            stale_responses=self._m_stale.value,
            latency=self._m_latency.summary(),
            reload_seconds_total=float(sum(self._m_reload_s.values())),
            cache_hits=cache.hits,
            cache_misses=cache.misses,
            cache_evictions=cache.evictions,
            cache_epoch=cache.version,
            replicas=infos,
        )

    # ------------------------------------------------------------------
    # Rolling hot reload
    # ------------------------------------------------------------------
    def reload_weights(self, checkpoint_path: str,
                       timeout: float = 60.0,
                       model: Optional[str] = None) -> ReloadReport:
        """Roll new weights across the fleet, one replica at a time.

        In a heterogeneous fleet ``model`` names which model's replicas
        to roll (required when the fleet serves more than one — weights
        for one preset must never be loaded into another's replicas);
        a homogeneous fleet may omit it.

        The checkpoint is read and checksum-verified by the router
        first; each replica is drained (no new dispatches, in-flight
        allowed to finish), told to reload, and must answer with a
        checksum over its re-extracted post-load state matching the
        router's.  A replica that fails the handshake is killed and
        respawned (it would otherwise serve unknown weights); a replica
        that fails to *load* (corrupt file racing the write, say) keeps
        its old weights and the reload raises.  Other replicas keep
        serving throughout — in-flight requests are never dropped.
        """
        if model is None:
            if len(self.model_ids) > 1:
                raise ReloadError(
                    "fleet serves multiple models "
                    f"({', '.join(repr(m) for m in self.model_ids)}); "
                    "pass model= to say which one to reload")
            model = self.model_ids[0]
        elif model not in self.model_ids:
            raise UnknownModel(model, self.model_ids)
        started = self._now()
        expected = state_checksum(read_checkpoint(checkpoint_path).payload)
        # Respawns of this model from here on join at the new weights.
        self._current_checkpoints[model] = checkpoint_path
        report = ReloadReport(path=checkpoint_path, checksum=expected)
        with self._lock:
            indices = [i for i in sorted(self._slots)
                       if self._slots[i].model_id == model]
        for index in indices:
            slot = self._slots[index]
            if not self._drain_for_reload(slot, timeout):
                continue  # dead/never-ready slot: respawn path covers it
            reload_started = self._now()
            try:
                with slot.send_lock:
                    slot.conn.send(("reload", checkpoint_path))
                reply = slot.control.get(timeout=timeout)
            except (BrokenPipeError, OSError, queue.Empty):
                with self._lock:
                    if slot.state == "draining":
                        slot.state = "lost"  # monitor respawns it
                raise ReloadError(
                    f"replica {index} did not answer the reload "
                    f"handshake within {timeout}s")
            if reply[0] == "reload-failed":
                with self._lock:
                    slot.state = "up"  # still serving the old weights
                raise ReloadError(
                    f"replica {index} failed to load "
                    f"{checkpoint_path}: {reply[1]}")
            _, checksum, seconds = reply
            if checksum != expected:
                with self._lock:
                    slot.state = "lost"  # unknown weights: kill + respawn
                raise ReloadError(
                    f"replica {index} checksum handshake mismatch: "
                    f"expected {expected[:12]}, got {checksum[:12]}")
            self._m_reload_s.observe(self._now() - reload_started)
            with self._lock:
                slot.state = "up"
            report.replicas.append({
                "index": index, "generation": slot.generation,
                "checksum": checksum, "seconds": seconds,
            })
            self.logger.log(f"replica {index} reloaded in {seconds:.3f}s")
        # Whole roll succeeded (each reloaded replica invalidated its own
        # cache before acking): invalidate the router cache in one atomic
        # step.  No pre-reload entry is served from this instant, and no
        # response dispatched before it can be stored; a raise anywhere
        # above skips this, leaving the entries of the weights the fleet
        # still serves valid.  The cache is fleet-global, so in a
        # heterogeneous fleet rolling one model also drops the *other*
        # models' entries: deliberately conservative (a cold cache is a
        # latency cost; a stale answer is a correctness bug).
        self._response_cache.invalidate()
        self._m_reloads.inc()
        report.wall_seconds = self._now() - started
        return report

    def _drain_for_reload(self, slot: _Slot, timeout: float) -> bool:
        """Stop dispatching to ``slot`` and wait out its in-flight work."""
        deadline = self._now() + timeout
        while self._now() < deadline:
            with self._lock:
                if slot.state == "up":
                    slot.state = "draining"
                if slot.state == "draining" and not slot.in_flight:
                    return True
                if slot.state in ("dead", "lost", "stopped"):
                    return False
            time.sleep(0.005)
        with self._lock:
            if slot.state == "draining":
                slot.state = "up"
        raise ReloadError(
            f"replica {slot.index} still has in-flight requests after "
            f"{timeout}s drain")

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return time.monotonic()

    def _next_request(self) -> Optional[_FleetRequest]:
        with self._lock:
            if self._retry_heap and self._retry_heap[0][0] <= self._now():
                return heapq.heappop(self._retry_heap)[2]
        try:
            return self._admission.get(timeout=0.01)
        except queue.Empty:
            return None

    def _dispatch_loop(self) -> None:
        while not self._closing.is_set():
            req = self._next_request()
            if req is None:
                continue
            self._dispatch(req)

    def _dispatch(self, req: _FleetRequest) -> None:
        """Send one request to the least-loaded replica (waits for one)."""
        while not self._closing.is_set():
            with self._lock:
                if req.done:
                    return
                slot = self._pick_slot(req.tried, req.model)
                if slot is not None:
                    req.attempts += 1
                    req.tried.add(slot.index)
                    req.deadline_ts = self._now() + req.deadline
                    slot.in_flight[req.req_id] = req
                    try:
                        with slot.send_lock:
                            slot.conn.send(
                                ("request", req.req_id, req.image, req.query))
                        return
                    except (BrokenPipeError, OSError):
                        # Found out before the monitor did: undo the
                        # bookkeeping and try another replica.
                        slot.in_flight.pop(req.req_id, None)
                        slot.state = "lost"
                        req.attempts -= 1
                        continue
                if not self._any_capacity_coming(req.model):
                    self._finish(req, error=ReplicaLost(
                        "no serving replica available and respawn "
                        "budget exhausted"))
                    return
            time.sleep(0.002)
        # The fleet closed while this request was waiting for capacity.
        self._finish(req, error=FleetStopped(
            "fleet stopped before this request could be dispatched"))

    def _pick_slot(self, exclude: Set[int],
                   model: Optional[str] = None) -> Optional[_Slot]:
        """Least-loaded live replica (of ``model``, when pinned),
        preferring ones not yet tried."""
        candidates = [
            slot for slot in self._slots.values()
            if slot.state == "up"
            and (model is None or slot.model_id == model)
            and len(slot.in_flight) < MAX_REPLICA_INFLIGHT
        ]
        if not candidates:
            return None
        fresh = [slot for slot in candidates if slot.index not in exclude]
        pool = fresh or candidates
        return min(pool, key=lambda s: (len(s.in_flight) + s.depth, s.index))

    def _any_capacity_coming(self, model: Optional[str] = None) -> bool:
        """Is any (matching) replica up, starting, draining, or due to
        respawn?"""
        return any(
            (slot.state in ("up", "starting", "draining")
             or slot.respawn_at is not None)
            and (model is None or slot.model_id == model)
            for slot in self._slots.values()
        )

    # ------------------------------------------------------------------
    # Completion / failure
    # ------------------------------------------------------------------
    def _finish(self, req: _FleetRequest, result=None, error=None) -> None:
        with self._lock:
            if req.done:
                return
            req.done = True
        if error is not None:
            if isinstance(error, DeadlineExceeded):
                self._m_deadline.inc()
            else:
                self._m_failed.inc()
            req.future.set_exception(error)
        else:
            self._m_completed.inc()
            self._m_latency.observe(self._now() - req.enqueued)
            # Defensive copy: the caller owns its answer outright —
            # mutating it must never reach the router cache or another
            # waiter.
            req.future.set_result(thaw_response(result))

    def _handle_failure(self, req: _FleetRequest, error: FleetError) -> None:
        """Retry on a different replica, or resolve with the typed error."""
        with self._lock:
            if req.done:
                return
            if req.attempts < RETRY_ATTEMPTS:
                delay = backoff_delay(
                    req.attempts,
                    base_delay=RETRY_BASE_DELAY,
                    max_delay=RETRY_MAX_DELAY,
                    jitter=RETRY_JITTER,
                    rng=self._rng,
                )
                self._m_retries.inc()
                heapq.heappush(
                    self._retry_heap,
                    (self._now() + delay, next(self._seq), req))
                return
        self._finish(req, error=error)

    # ------------------------------------------------------------------
    # Receive / monitor
    # ------------------------------------------------------------------
    def _receive_loop(self, slot: _Slot, conn) -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "response":
                _, req_id, response = message
                with self._lock:
                    req = slot.in_flight.pop(req_id, None)
                if req is None:
                    self._m_stale.inc()  # deadline-cancelled attempt
                else:
                    with self._lock:
                        slot.served += 1
                    if req.key is not None:
                        # Offered under the submit-time version: if a
                        # weight roll completed while this response was
                        # in flight, the put is refused — a pre-reload
                        # answer never enters the post-reload cache.
                        self._response_cache.put(req.key, response,
                                                 req.version)
                    self._finish(req, result=response)
            elif kind == "error":
                _, req_id, detail = message
                with self._lock:
                    req = slot.in_flight.pop(req_id, None)
                if req is not None:
                    self._handle_failure(req, FleetError(
                        f"replica {slot.index} error: {detail}"))
            elif kind == "heartbeat":
                _, depth, served = message
                with self._lock:
                    slot.last_heartbeat = self._now()
                    slot.depth = int(depth)
                    # responses already bump served router-side; the
                    # heartbeat view only ever catches it up (cache hits
                    # served inside the replica, say), never rolls back
                    slot.served = max(slot.served, int(served))
                self._m_depth.observe(int(depth))
                self.metrics.gauge(
                    f"serve.fleet.replica{slot.index}.queue_depth"
                ).set(int(depth))
            elif kind == "ready":
                with self._lock:
                    slot.last_heartbeat = self._now()
                    if slot.state == "starting":
                        slot.state = "up"
            elif kind in ("reloaded", "reload-failed"):
                slot.control.put(message)
        # EOF: flag for the monitor unless this generation was replaced
        # or the fleet is shutting down.
        with self._lock:
            if (slot.conn is conn
                    and slot.state not in ("dead", "stopped")):
                slot.state = "lost"

    def _monitor_loop(self) -> None:
        while not self._closing.wait(MONITOR_INTERVAL):
            now = self._now()
            with self._lock:
                slots = list(self._slots.values())
            for slot in slots:
                self._check_slot(slot, now)
            self._check_deadlines(now)

    def _check_slot(self, slot: _Slot, now: float) -> None:
        with self._lock:
            state = slot.state
            process_dead = (slot.process is not None
                            and not slot.process.is_alive())
        if state == "lost" or (
                state in ("starting", "up", "draining") and process_dead):
            self._declare_dead(slot, "process exited")
        elif state in ("up", "draining") and (
                now - slot.last_heartbeat > self.config.heartbeat_timeout):
            self._declare_dead(slot, "missed heartbeats")
        elif state == "starting" and (
                now - slot.started_at > SPAWN_TIMEOUT):
            self._declare_dead(slot, "never became ready")
        elif state == "dead" and slot.respawn_at is not None \
                and now >= slot.respawn_at:
            with self._lock:
                if self._closed:
                    slot.respawn_at = None
                    return
                slot.respawn_at = None
                self._m_respawns.inc()
                self.logger.log(
                    f"respawning replica {slot.index} "
                    f"(generation {slot.generation + 1})")
                self._spawn(slot)

    def _declare_dead(self, slot: _Slot, reason: str) -> None:
        with self._lock:
            if slot.state in ("dead", "stopped"):
                return
            slot.state = "dead"
            orphans = list(slot.in_flight.values())
            slot.in_flight.clear()
            slot.depth = 0
            process, conn = slot.process, slot.conn
            if not self._closed and slot.generation + 1 <= MAX_RESPAWNS:
                slot.respawn_at = self._now() + backoff_delay(
                    slot.generation + 1,
                    base_delay=RETRY_BASE_DELAY,
                    max_delay=RETRY_MAX_DELAY,
                    jitter=RETRY_JITTER,
                    rng=self._rng,
                )
        self.logger.log(f"replica {slot.index} dead ({reason}); "
                        f"{len(orphans)} request(s) requeued")
        if process is not None and process.is_alive():
            process.terminate()
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        for req in orphans:
            self._handle_failure(req, ReplicaLost(
                f"replica {slot.index} died ({reason}) with the request "
                f"in flight"))

    def _check_deadlines(self, now: float) -> None:
        expired: List[_FleetRequest] = []
        with self._lock:
            for slot in self._slots.values():
                for req_id, req in list(slot.in_flight.items()):
                    if now > req.deadline_ts:
                        slot.in_flight.pop(req_id, None)
                        expired.append(req)
        for req in expired:
            # The attempt is cancelled: its late response (if the
            # replica ever answers) is counted as stale and ignored.
            self._handle_failure(req, DeadlineExceeded(
                f"deadline of {req.deadline}s exceeded after "
                f"{req.attempts} attempt(s)"))
