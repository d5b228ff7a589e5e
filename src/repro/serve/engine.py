"""Micro-batching inference engine — the serving layer over any grounder.

Requests enter a queue; one worker thread takes the first, adds whatever
else is already queued (up to ``max_batch``) and at once runs ONE
batched forward pass under ``no_grad`` through the wrapped grounder.  It
never sleeps waiting for stragglers: a lone query dispatches as soon as
it arrives, and under load the requests that queue during one forward
form the next batch.  Repeated (image, query) pairs are answered from a
:class:`~repro.serve.cache.VersionedCache` without touching the model
at all.  Every request's latency, every batch's size, and the queue
depth are recorded into a :class:`repro.serve.stats.StatsRecorder`.

The engine serves the one grounder protocol: ``grounder(samples)``
returns one :class:`~repro.core.GroundingResponse` per
:class:`GroundingSample` (ranked boxes + confidences + an explicit
not-found decision), so any grounder the evaluator scores is served
unchanged.  A plain ``Grounder(model, vocab)`` and the two-stage
baselines serve the paper's single answer box; ``Grounder.ranked`` and
the scenario oracles serve ranked lists.  Responses are frozen (deep
read-only copies) on cache insertion and thawed (deep writable copies)
on the way out, so a caller can never mutate a cached answer.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

from repro.autograd import no_grad
from repro.autograd.tensor import as_compute_array
from repro.core.response import GroundingResponse, thaw_response
from repro.data.refcoco import GroundingSample, request_sample
from repro.obs import MetricsRegistry, trace_span
from repro.serve.cache import VersionedCache, image_digest
from repro.serve.stats import ServerStats, StatsRecorder
from repro.text.tokenizer import normalize_query

#: Queue sentinel that tells the worker to drain out.
_SHUTDOWN = object()


class EngineStopped(RuntimeError):
    """The engine was stopping (or stopped) before this request was served.

    Raised synchronously by :meth:`ServeEngine.submit` for requests that
    race an in-progress :meth:`ServeEngine.stop`, and set on any future
    whose request was still queued when the worker drained out — no
    future is ever left permanently unresolved by a shutdown.
    """


class EngineDrainTimeout(RuntimeError):
    """``stop`` timed out waiting for the worker to drain.

    The worker thread is still alive and still referenced (``running``
    stays truthful); call :meth:`ServeEngine.stop` again to finish the
    shutdown once the in-flight batch completes.
    """


@dataclass
class _Pending:
    """One queued request awaiting its batch."""

    sample: GroundingSample
    key: Tuple[str, str]
    future: Future
    enqueued: float


class ServeEngine:
    """Serve grounding requests with dynamic micro-batching and caching.

    Parameters
    ----------
    grounder:
        Any grounder (``samples -> [GroundingResponse]``).
    max_batch:
        Largest batch one forward pass may carry.  The worker dispatches
        what is queued as soon as it is free; it never waits for a
        batch to fill.
    max_wait:
        Accepted and ignored (it must still be non-negative); it will be
        removed together with its last caller in the benchmark harness.
    cache_size:
        LRU entries for (image digest, query) -> response; 0 disables.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry` the engine publishes
        its ``serve.*`` metrics (the cache's ``serve.cache_*`` tallies
        included) into; defaults to a private registry (readable via
        :attr:`metrics`).

    Use as a context manager, or call :meth:`start`/:meth:`stop`.
    ``submit`` starts the worker lazily, so the one-liner
    ``ServeEngine(grounder).ground(image, "red dog")``
    also works.
    Submitting after a completed ``stop`` restarts the worker (documented
    lazy restart); submitting while a ``stop`` is draining raises
    :class:`EngineStopped`, and a shutdown resolves every still-queued
    future with :class:`EngineStopped` — no request is ever lost.
    """

    def __init__(
        self,
        grounder: Callable[[Sequence[GroundingSample]],
                           List[GroundingResponse]],
        max_batch: int = 16,
        max_wait: float = 0.0,
        cache_size: int = 256,
        metrics: MetricsRegistry = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_wait < 0:
            raise ValueError("max_wait must be non-negative")
        self.grounder = grounder
        self.max_batch = max_batch
        self._queue: "queue.Queue" = queue.Queue()
        registry = metrics if metrics is not None else MetricsRegistry()
        self._cache = VersionedCache(cache_size, registry, "serve.cache_")
        self._recorder = StatsRecorder(registry=registry, cache=self._cache)
        self._thread: threading.Thread = None
        # Guards the submit/stop race: enqueueing a request and pushing
        # the shutdown sentinel are serialised, so a request either lands
        # ahead of the sentinel (and is served) or observes ``_stopping``
        # and is rejected with ``EngineStopped`` — never silently lost
        # behind the sentinel.
        self._lifecycle = threading.Lock()
        self._stopping = False

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry this engine's ``serve.*`` metrics live in."""
        return self._recorder.registry

    @property
    def cache(self) -> VersionedCache:
        """The response cache; new weights call its ``invalidate()``."""
        return self._cache

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "ServeEngine":
        if not self.running:
            self._thread = threading.Thread(
                target=self._worker, name="serve-engine", daemon=True
            )
            self._thread.start()
        return self

    @property
    def queue_depth(self) -> int:
        """Requests currently queued ahead of the worker (approximate)."""
        return self._queue.qsize()

    def stop(self, timeout: float = 30.0) -> None:
        """Drain queued requests, then stop the worker thread.

        Raises :class:`EngineDrainTimeout` if the worker has not drained
        within ``timeout`` seconds; the thread reference is kept (so
        :attr:`running` stays truthful) and ``stop`` may be called again.
        Any request still queued after the worker exits — possible only
        for requests that raced a previous timed-out stop — has its
        future resolved with :class:`EngineStopped` rather than being
        left to hang.
        """
        with self._lifecycle:
            if not self.running:
                self._thread = None
                self._fail_leftovers()
                return
            self._stopping = True
            self._queue.put(_SHUTDOWN)
            thread = self._thread
        try:
            thread.join(timeout)
            if thread.is_alive():
                raise EngineDrainTimeout(
                    f"serve worker still draining after {timeout}s; "
                    f"engine is still running — call stop() again"
                )
            self._thread = None
            self._fail_leftovers()
        finally:
            with self._lifecycle:
                self._stopping = False

    def _fail_leftovers(self) -> None:
        """Resolve any still-queued requests with ``EngineStopped``."""
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is _SHUTDOWN:
                continue
            if not item.future.done():
                item.future.set_exception(EngineStopped(
                    "engine stopped before this request was served"
                ))

    def __enter__(self) -> "ServeEngine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Request API
    # ------------------------------------------------------------------
    def submit(self, image: np.ndarray, query: str) -> Future:
        """Enqueue one request; the future resolves to the grounder's
        :class:`~repro.core.GroundingResponse`.

        Submitting to a fully stopped engine restarts the worker (the
        documented lazy-start behaviour backing the one-liner usage);
        submitting *while* :meth:`stop` is draining raises
        :class:`EngineStopped` instead of racing the shutdown sentinel.
        """
        now = time.perf_counter()
        self._recorder.record_request()
        # Normalise once at the front door: whitespace/case/punctuation
        # variants of the same query share one cache entry (and one
        # model pass) in every tier downstream, and the image is keyed
        # and batched in the compute dtype whatever the client sent.
        query = normalize_query(str(query))
        image = as_compute_array(image)
        key = (image_digest(image), query)
        cached = self._cache.get(key)
        future: Future = Future()
        if cached is not None:
            self._recorder.record_completion(time.perf_counter() - now)
            future.set_result(thaw_response(cached))
            return future
        with self._lifecycle:
            if self._stopping:
                raise EngineStopped("engine is stopping; request rejected")
            self.start()
            self._queue.put(_Pending(request_sample(image, query), key, future, now))
        return future

    def ground(self, image: np.ndarray, query: str,
               timeout: float = 60.0) -> GroundingResponse:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(image, query).result(timeout=timeout)

    def ground_many(self, requests: Iterable,
                    timeout: float = 300.0) -> List[GroundingResponse]:
        """Submit a burst of requests and gather the answers in order.

        ``requests`` yields objects with ``image`` and ``query``
        attributes (e.g. :class:`repro.serve.TraceRequest`) or
        ``(image, query)`` tuples.
        """
        futures = []
        for request in requests:
            if hasattr(request, "image"):
                image, query = request.image, request.query
            else:
                image, query = request
            futures.append(self.submit(image, query))
        return [future.result(timeout=timeout) for future in futures]

    def stats(self) -> ServerStats:
        """Snapshot of throughput, latency, cache, and batching telemetry."""
        return self._recorder.snapshot()

    def reset_stats(self) -> None:
        """Zero the engine's metrics, the cache's tallies included."""
        self._recorder.reset()

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    def _collect_batch(self, first: _Pending) -> Tuple[List[_Pending], bool]:
        """``first`` plus whatever is already queued, up to ``max_batch``.

        Never waits: the one worker is idle whenever it collects, so
        waiting for stragglers would only delay the requests in hand.
        """
        batch = [first]
        while len(batch) < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                return batch, False
            batch.append(item)
        return batch, True

    def _drain_compile_events(self) -> None:
        """Attribute plan compilations to ``serve.compile_ms``.

        Compiled grounders (``Grounder.compile()``) expose a plan cache;
        each batch may trigger at most a handful of compiles (one per new
        input shape), and recording them separately keeps warm-up cost
        out of the steady-state latency distribution.
        """
        plan_cache = getattr(self.grounder, "plan_cache", None)
        if plan_cache is None:
            return
        for _key, milliseconds in plan_cache.drain_compile_events():
            self._recorder.record_compile(milliseconds)

    def _resolve(self, pending: _Pending, response: GroundingResponse) -> None:
        latency = time.perf_counter() - pending.enqueued
        self._recorder.record_completion(latency)
        pending.future.set_result(thaw_response(response))

    @staticmethod
    def _check_results(raw, count: int) -> List[GroundingResponse]:
        """The grounder's batch output, checked to be one response per
        sample."""
        responses = list(raw)
        if len(responses) != count or not all(
                isinstance(r, GroundingResponse) for r in responses):
            raise TypeError(
                f"grounder must return one GroundingResponse per sample "
                f"({count}), got {type(raw).__name__} of "
                f"{len(responses)} item(s)")
        return responses

    def _run_batch(self, batch: List[_Pending]) -> None:
        depth = self._queue.qsize()
        version = self._cache.version
        # Re-check the cache at execution time (a request queued during a
        # burst may have been answered by an earlier batch by now) and
        # collapse identical in-flight requests onto one forward slot.
        groups: "dict[Tuple[str, str], List[_Pending]]" = {}
        for pending in batch:
            cached = self._cache.get(pending.key)
            if cached is not None:
                self._resolve(pending, cached)
                continue
            groups.setdefault(pending.key, []).append(pending)
        if not groups:
            return
        samples = [group[0].sample for group in groups.values()]
        try:
            with trace_span("serve.batch"), no_grad():
                raw = self.grounder(samples)
            responses = self._check_results(raw, len(samples))
        except Exception as exc:  # surface the failure on every waiter
            for group in groups.values():
                for pending in group:
                    pending.future.set_exception(exc)
            return
        finally:
            self._drain_compile_events()
        self._recorder.record_batch(len(samples), depth)
        for (key, group), response in zip(groups.items(), responses):
            # The first requester paid for the forward pass: its put
            # counts the miss.  An invalidate() since this batch started
            # (hot weight reload) makes the put refuse these retired
            # weights' answers; the waiters are served all the same.
            self._cache.put(key, response, version)
            self._resolve(group[0], response)
            for pending in group[1:]:
                # In-flight duplicates read the answer back through the
                # cache, which counts their hits.
                cached = self._cache.get(key)
                self._resolve(pending, response if cached is None else cached)

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            batch, keep_running = self._collect_batch(item)
            self._run_batch(batch)
            if not keep_running:
                return
