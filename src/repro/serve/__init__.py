"""Serving layer: micro-batched, cached, fault-tolerant grounding inference.

``ServeEngine`` queues incoming (image, query) requests and, as soon as
its worker is free, batches whatever is queued (up to ``max_batch``
requests, never waiting for stragglers), runs one ``no_grad`` forward
per batch through any grounder, and answers repeats from a
``VersionedCache``.  ``ServerStats`` reports p50/p95/p99 latency,
throughput, queue depth, cache hit rate, and the batch-size histogram.

``FleetRouter`` scales that engine out: N replica subprocesses behind a
least-loaded router with bounded-queue backpressure (typed
``Overloaded`` shedding), per-request deadlines with one cross-replica
retry, crash detection + respawn, and rolling hot weight reloads
verified by a checksum handshake.  A router-tier ``VersionedCache``
answers repeats before admission; a completed reload invalidates it, so
stale answers are unreachable the instant new weights are live, and
hits survive replica respawns.  ``run_soak`` replays a timed trace
against the fleet — with deterministic fault injection — and asserts the
no-lost-requests / no-stale-responses / p99 SLO invariants.

Every tier handles one answer type, the ranked
:class:`~repro.core.GroundingResponse` (top-k boxes, calibrated
``not_found`` decision; ``top_k=1`` is the paper's single box) — see
:mod:`repro.core.response`.
Scenario-tagged traces (:mod:`repro.scenarios`) additionally let the
soak harness report per-scenario p99 and assert that no-target queries
are never answered "found".
"""

from repro.serve.cache import CacheStats, VersionedCache, image_digest
from repro.serve.engine import (
    EngineDrainTimeout,
    EngineStopped,
    ServeEngine,
)
from repro.serve.fleet import (
    DeadlineExceeded,
    FleetConfig,
    FleetError,
    FleetRouter,
    FleetStats,
    FleetStopped,
    Overloaded,
    ReloadError,
    ReloadReport,
    ReplicaLost,
    UnknownModel,
)
from repro.serve.replica import (
    LatencyGrounder,
    ReplicaSpec,
    build_latency_grounder,
    load_checkpoint_payload,
    state_checksum,
)
from repro.serve.soak import SoakReport, run_soak
from repro.serve.stats import ServerStats, StatsRecorder
from repro.serve.trace import (
    TimedRequest,
    TraceRequest,
    synthetic_trace,
    timed_trace,
)

__all__ = [
    "VersionedCache",
    "CacheStats",
    "image_digest",
    "ServeEngine",
    "EngineStopped",
    "EngineDrainTimeout",
    "ServerStats",
    "StatsRecorder",
    "TraceRequest",
    "TimedRequest",
    "synthetic_trace",
    "timed_trace",
    "FleetRouter",
    "FleetConfig",
    "FleetStats",
    "FleetError",
    "Overloaded",
    "DeadlineExceeded",
    "ReplicaLost",
    "FleetStopped",
    "ReloadError",
    "ReloadReport",
    "UnknownModel",
    "ReplicaSpec",
    "LatencyGrounder",
    "build_latency_grounder",
    "state_checksum",
    "load_checkpoint_payload",
    "SoakReport",
    "run_soak",
]
