"""Trace-driven soak harness for the serving fleet.

Replays a :func:`~repro.serve.trace.timed_trace` against a
:class:`~repro.serve.fleet.FleetRouter` at the trace's own arrival
times (open-loop load), optionally firing a rolling weight reload
mid-run, and then classifies **every** submitted future:

``ok`` / ``shed`` (:class:`Overloaded`) / ``deadline``
(:class:`DeadlineExceeded`) / ``failed`` (other typed errors) /
``lost`` (a future that never resolved — the invariant violation the
whole fleet design exists to prevent).

Because traces carry a repeat fraction, the soak also exercises the
cache tier end to end: the router-tier hit counters land in the
report's :class:`~repro.serve.fleet.FleetStats`, and an optional
``post_reload_check`` verifies the *content* of every successful
response submitted after a mid-run rolling reload completed — a result
computed by pre-reload weights (served from an uninvalidated replica or
router cache) is counted in ``stale_served``.

Scenario-mix traces (:mod:`repro.scenarios`) add two more dimensions:

* every request tagged with a ``scenario`` contributes to that
  scenario's own latency summary (``scenario_latency``), so one slow
  workload cannot hide inside the aggregate p99;
* requests marked ``expect_not_found`` (the described object is absent)
  must be answered with ``not_found`` True — anything else is a
  ``false_found`` correctness violation.

:meth:`SoakReport.check` turns the classification into a pass/fail
verdict: zero lost requests, zero stale responses, zero false-found
answers, a p99 latency SLO (aggregate and optionally per scenario),
the full replica count restored after any injected crash, and
(optionally) a minimum router-tier cache hit rate.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.response import GroundingResponse, responses_equal
from repro.data.refcoco import request_sample
from repro.obs.metrics import Histogram, HistogramSummary
from repro.serve.cache import image_digest
from repro.serve.fleet import (
    DeadlineExceeded,
    FleetError,
    FleetRouter,
    FleetStats,
    Overloaded,
)
from repro.serve.trace import TimedRequest
from repro.utils.seeding import seed_everything

@dataclass(frozen=True)
class SoakReport:
    """Outcome of one soak run: per-request classification plus stats."""

    submitted: int
    ok: int
    shed: int
    deadline: int
    failed: int
    #: Futures that never resolved — must be zero, always.
    lost: int
    wall_seconds: float
    stats: FleetStats
    reload_report: Optional[Any] = None
    reload_error: Optional[str] = None
    failures: Tuple[str, ...] = ()
    #: Successful responses (submitted after a mid-run reload completed)
    #: whose content failed ``post_reload_check`` — answers computed from
    #: pre-reload weights.  Must be zero: versioned cache invalidation
    #: exists to make these impossible.
    stale_served: int = 0
    #: Requests whose described object was absent (``expect_not_found``).
    no_target_requests: int = 0
    #: Successful answers to no-target requests that claimed "found" —
    #: a correctness violation, must be zero.
    false_found: int = 0
    #: Latency summary per scenario tag (seconds); only tagged requests
    #: that completed successfully contribute.
    scenario_latency: Dict[str, HistogramSummary] = field(default_factory=dict)
    #: Successful responses that failed the per-request ``content_check``
    #: (e.g. a heterogeneous-fleet answer that does not match the
    #: request's own model reference) — must be zero.
    content_mismatches: int = 0

    @property
    def resolved(self) -> int:
        return self.ok + self.shed + self.deadline + self.failed

    def check(self, slo_p99: Optional[float] = None,
              expected_replicas: Optional[int] = None,
              scenario_slo_p99: Optional[float] = None) -> List[str]:
        """Return the list of violated invariants (empty == pass)."""
        violations: List[str] = []
        if self.lost:
            violations.append(
                f"{self.lost} request(s) lost (unresolved futures)")
        if self.stale_served:
            violations.append(
                f"{self.stale_served} response(s) served from pre-reload "
                f"weights after the reload completed")
        if self.false_found:
            violations.append(
                f"{self.false_found} no-target request(s) answered "
                f"\"found\" (of {self.no_target_requests})")
        if self.content_mismatches:
            violations.append(
                f"{self.content_mismatches} response(s) failed the "
                f"per-request content check")
        if self.resolved != self.submitted:
            violations.append(
                f"classification mismatch: {self.resolved} resolved vs "
                f"{self.submitted} submitted")
        if slo_p99 is not None and self.stats.latency.p99 > slo_p99:
            violations.append(
                f"p99 latency {self.stats.latency.p99 * 1e3:.2f}ms exceeds "
                f"SLO {slo_p99 * 1e3:.2f}ms")
        if scenario_slo_p99 is not None:
            for name, latency in sorted(self.scenario_latency.items()):
                if latency.p99 > scenario_slo_p99:
                    violations.append(
                        f"scenario '{name}' p99 {latency.p99 * 1e3:.2f}ms "
                        f"exceeds SLO {scenario_slo_p99 * 1e3:.2f}ms")
        if expected_replicas is not None \
                and self.stats.alive != expected_replicas:
            violations.append(
                f"{self.stats.alive} replicas alive, expected "
                f"{expected_replicas}")
        if self.reload_error is not None:
            violations.append(f"rolling reload failed: {self.reload_error}")
        return violations

    def render(self) -> str:
        lines = [
            f"soak     {self.ok}/{self.submitted} ok, {self.shed} shed, "
            f"{self.deadline} deadline, {self.failed} failed, "
            f"{self.lost} LOST in {self.wall_seconds:.2f}s",
        ]
        if self.no_target_requests:
            lines.append(
                f"absent   {self.no_target_requests} no-target request(s), "
                f"{self.false_found} false-found")
        for name, latency in sorted(self.scenario_latency.items()):
            lines.append(f"scenario {name:<10} {latency.render_ms()}")
        if self.reload_report is not None:
            lines.append(
                f"reload   rolled {len(self.reload_report.replicas)} "
                f"replica(s) in {self.reload_report.wall_seconds:.2f}s "
                f"mid-soak")
        if self.reload_error is not None:
            lines.append(f"reload   FAILED: {self.reload_error}")
        if self.stale_served:
            lines.append(f"stale    {self.stale_served} response(s) from "
                         f"pre-reload weights — STALE")
        if self.content_mismatches:
            lines.append(f"content  {self.content_mismatches} response(s) "
                         f"failed the content check — WRONG MODEL?")
        lines.append(self.stats.render())
        return "\n".join(lines)


@dataclass
class _ReloadTask:
    """Background rolling-reload fired when the trace reaches an index."""

    router: FleetRouter
    checkpoint: str
    report: Optional[Any] = None
    error: Optional[str] = None
    thread: Optional[threading.Thread] = None

    def fire(self) -> None:
        def run() -> None:
            try:
                self.report = self.router.reload_weights(self.checkpoint)
            except Exception as exc:
                self.error = repr(exc)

        self.thread = threading.Thread(target=run, name="soak-reload",
                                       daemon=True)
        self.thread.start()

    def join(self, timeout: float) -> None:
        if self.thread is not None:
            self.thread.join(timeout)
            if self.thread.is_alive() and self.error is None:
                self.error = f"reload still running after {timeout}s"


def preset_reference_check(
    trace: Sequence[TimedRequest], presets: Sequence[str], seed: int,
    **preset_kwargs: Any,
) -> Tuple[Callable[[TimedRequest, GroundingResponse], bool], Dict[str, Any]]:
    """Tag ``trace`` round-robin across ``presets``; build its content check.

    Per preset, this process builds the single-engine reference grounder
    (:func:`repro.zoo.build_preset_grounder`, seeded like the replicas)
    and records its answer to each request tagged with that preset.
    Returns ``(content_check, references)``: the :func:`run_soak` check
    passes only responses byte-identical to their preset's reference,
    and ``references`` maps each preset to its reference grounder.
    """
    from repro.zoo import build_preset_grounder

    for index, request in enumerate(trace):
        request.model = presets[index % len(presets)]
    expected: Dict[Tuple[str, str, str], GroundingResponse] = {}
    references: Dict[str, Any] = {}
    for name in presets:
        seed_everything(seed)
        reference = build_preset_grounder(preset=name, **preset_kwargs)
        references[name] = reference
        for request in trace:
            key = (name, image_digest(request.image), str(request.query))
            if request.model == name and key not in expected:
                expected[key] = reference(
                    [request_sample(request.image, request.query)])[0]
    seed_everything(seed)

    def content_check(request: TimedRequest,
                      result: GroundingResponse) -> bool:
        key = (request.model, image_digest(request.image),
               str(request.query))
        return responses_equal(expected[key], result)

    return content_check, references


def run_soak(
    router: FleetRouter,
    trace: Sequence[TimedRequest],
    deadline: Optional[float] = None,
    reload_at: Optional[int] = None,
    reload_checkpoint: Optional[str] = None,
    settle_timeout: float = 60.0,
    post_reload_check: Optional[Callable[[GroundingResponse], bool]] = None,
    content_check: Optional[
        Callable[[TimedRequest, GroundingResponse], bool]] = None,
) -> SoakReport:
    """Replay ``trace`` against ``router`` and classify every outcome.

    Requests are submitted open-loop at each request's ``arrival``
    offset (never waiting on responses — queueing pressure is part of
    the test).  If ``reload_at`` is given, a rolling reload of
    ``reload_checkpoint`` starts in the background the moment that many
    requests have been submitted.  After the last submission, futures
    are awaited up to ``settle_timeout``; anything still unresolved is
    counted as **lost**.

    ``post_reload_check`` receives the
    :class:`~repro.core.GroundingResponse` of every *successful* request
    submitted after the rolling reload had completed and returns
    ``True`` if it was computed by the new weights (e.g. it carries the
    reloaded checkpoint's version fingerprint).  Responses failing the
    check are counted in :attr:`SoakReport.stale_served` — the
    checksum-verified "zero responses from pre-reload weights"
    invariant.

    ``content_check`` receives ``(request, result)`` for every
    successful response and returns ``True`` if the answer is the one
    this request should have gotten — e.g. bit-identical to the
    request's own model's single-engine output in a heterogeneous
    fleet.  Failures land in :attr:`SoakReport.content_mismatches`.
    Requests carrying a ``model`` tag are pinned to that model's
    replicas (see :meth:`~repro.serve.fleet.FleetRouter.submit`).
    """
    if (reload_at is None) != (reload_checkpoint is None):
        raise ValueError(
            "reload_at and reload_checkpoint must be given together")
    router.start()
    reload_task = (_ReloadTask(router, reload_checkpoint)
                   if reload_checkpoint is not None else None)
    futures: List[Future] = []
    #: Whether the rolling reload had already *completed* when the
    #: request was submitted — only those responses are required to
    #: carry the new weights (earlier ones legitimately race the roll).
    after_reload: List[bool] = []
    #: index -> seconds from submission to future resolution, stamped by
    #: a done-callback (covers cache hits that resolve synchronously).
    finished_in: Dict[int, float] = {}
    started = time.monotonic()
    for index, request in enumerate(trace):
        if reload_task is not None and index == reload_at:
            reload_task.fire()
        lag = started + request.arrival - time.monotonic()
        if lag > 0:
            time.sleep(lag)
        after_reload.append(
            reload_task is not None and reload_task.report is not None)
        submit_ts = time.monotonic()
        future = router.submit(request.image, request.query,
                               deadline=deadline,
                               model=(getattr(request, "model", "") or None))
        future.add_done_callback(
            lambda f, i=index, t0=submit_ts:
            finished_in.__setitem__(i, time.monotonic() - t0))
        futures.append(future)
    if reload_task is not None and reload_task.thread is None:
        reload_task.fire()  # reload_at beyond the trace: fire at the end

    counts: Dict[str, int] = {"ok": 0, "shed": 0, "deadline": 0,
                              "failed": 0, "lost": 0, "stale": 0,
                              "no_target": 0, "false_found": 0,
                              "mismatch": 0}
    scenario_latencies: Dict[str, Histogram] = defaultdict(Histogram)
    failures: List[str] = []
    settle_deadline = time.monotonic() + settle_timeout
    for index, (future, post_reload) in enumerate(zip(futures, after_reload)):
        request = trace[index]
        expect_absent = bool(getattr(request, "expect_not_found", False))
        if expect_absent:
            counts["no_target"] += 1
        remaining = max(0.01, settle_deadline - time.monotonic())
        try:
            result = future.result(timeout=remaining)
            counts["ok"] += 1
            tag = str(getattr(request, "scenario", "") or "")
            if tag:
                scenario_latencies[tag].observe(finished_in.get(index, 0.0))
            if expect_absent and not result.not_found:
                counts["false_found"] += 1
                failures.append(
                    f"no-target query answered found: {request.query!r} "
                    f"-> {result!r}")
            if post_reload and post_reload_check is not None \
                    and not post_reload_check(result):
                counts["stale"] += 1
                failures.append(f"stale response after reload: {result!r}")
            if content_check is not None \
                    and not content_check(request, result):
                counts["mismatch"] += 1
                failures.append(
                    f"content check failed for {request.query!r} "
                    f"(model={getattr(request, 'model', '')!r}) "
                    f"-> {result!r}")
        except Overloaded:
            counts["shed"] += 1
        except DeadlineExceeded:
            counts["deadline"] += 1
        except FleetError as exc:
            counts["failed"] += 1
            failures.append(repr(exc))
        except TimeoutError:
            counts["lost"] += 1
        except Exception as exc:  # non-fleet error: a real bug, count it
            counts["failed"] += 1
            failures.append(repr(exc))
    if reload_task is not None:
        reload_task.join(max(0.01, settle_deadline - time.monotonic()))

    return SoakReport(
        submitted=len(futures),
        ok=counts["ok"], shed=counts["shed"], deadline=counts["deadline"],
        failed=counts["failed"], lost=counts["lost"],
        wall_seconds=time.monotonic() - started,
        stats=router.stats(),
        reload_report=reload_task.report if reload_task else None,
        reload_error=reload_task.error if reload_task else None,
        failures=tuple(failures[:10]),
        stale_served=counts["stale"],
        no_target_requests=counts["no_target"],
        false_found=counts["false_found"],
        scenario_latency={name: histogram.summary() for name, histogram
                          in scenario_latencies.items()},
        content_mismatches=counts["mismatch"],
    )
