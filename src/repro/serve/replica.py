"""Serving replica: one ``ServeEngine`` wrapped in an OS process.

The fleet router (:mod:`repro.serve.fleet`) spawns ``replicas`` of
these (``spawn`` start method, like :mod:`repro.dist.worker` — the
builder must be a module-level callable with picklable kwargs).  Each
replica builds its grounder, wraps it in the ordinary micro-batching
:class:`~repro.serve.ServeEngine`, and then services a duplex pipe:

* ``("request", req_id, image, query)`` — submitted to the engine; the
  future's completion callback ships ``("response", req_id, response)``
  (a :class:`~repro.core.GroundingResponse`, or ``("error", req_id,
  detail)``) back to the router.
* ``("reload", path)`` — loads a :mod:`repro.runtime` checkpoint into
  the grounder's weights, invalidates the engine's response cache (an
  answer computed by the old weights must not outlive them), and
  answers ``("reloaded", checksum, seconds)``, where ``checksum`` is
  :func:`state_checksum` over the replica's *re-extracted* post-load
  state — the router compares it to the checksum of the checkpoint
  payload it read itself, so a torn or partial load cannot silently
  serve wrong weights.
* ``("stop",)`` — drain the engine and exit cleanly.

A heartbeat thread reports queue depth and served count every
:data:`HEARTBEAT_INTERVAL` seconds so the router can route to the
least-loaded replica and detect hung processes.  Deterministic replica kills are
injected through :meth:`repro.runtime.faults.FaultPlan
.on_replica_request`: the resulting :class:`SimulatedCrash` is turned
into ``os._exit`` — the process dies with requests in flight, exactly
like a real kill.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.core.response import GroundingResponse
from repro.runtime.checkpoint import read_checkpoint, state_checksum
from repro.runtime.faults import FaultPlan, SimulatedCrash
from repro.serve.engine import ServeEngine
from repro.utils.seeding import seed_everything

#: Seconds between a replica's heartbeats (queue depth, served count).
HEARTBEAT_INTERVAL = 0.05


def apply_weights(grounder, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Load ``payload`` into a grounder and return its re-extracted state.

    Works with anything exposing ``load_state_dict``/``state_dict``
    directly (e.g. :class:`LatencyGrounder`) or through a ``.model``
    attribute (e.g. :class:`repro.core.Grounder`).
    """
    target = grounder if hasattr(grounder, "load_state_dict") else grounder.model
    target.load_state_dict(payload)
    return target.state_dict()


# ----------------------------------------------------------------------
# Builders (module-level: spawn-picklable)
# ----------------------------------------------------------------------
class LatencyGrounder:
    """Deterministic fixed-latency model stand-in for fleet harnesses.

    Each batch call sleeps ``latency`` seconds (one simulated forward
    pass) and answers each sample with a ``top_k=1`` response whose box
    is ``[image.sum(), len(tokens), version, bias]`` and whose
    ``version`` is the weights version.  ``version``/``bias`` are its
    only "weights", so hot reloads are observable in the responses and
    the checksum handshake round-trips exactly.  Because its cost is
    wall time rather than CPU, N replicas overlap it even on one core:
    the honest scaling model for a fleet fronting fixed-latency model
    servers.
    """

    def __init__(self, latency: float = 0.002, version: float = 0.0,
                 bias: float = 1.0):
        self.latency = float(latency)
        self.version = float(version)
        self.bias = float(bias)
        self.batches = 0

    def __call__(self, samples):
        if self.latency > 0:
            time.sleep(self.latency)
        self.batches += 1
        return [
            GroundingResponse(
                boxes=[float(s.image.sum()), float(len(s.tokens)),
                       self.version, self.bias],
                scores=[1.0], version=self.version)
            for s in samples
        ]

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {"version": np.array([self.version]),
                "bias": np.array([self.bias])}

    def load_state_dict(self, state) -> None:
        self.version = float(np.asarray(state["version"]).reshape(-1)[0])
        self.bias = float(np.asarray(state["bias"]).reshape(-1)[0])


def build_latency_grounder(latency: float = 0.002, version: float = 0.0,
                           bias: float = 1.0) -> LatencyGrounder:
    """Spawn-picklable builder for :class:`LatencyGrounder` replicas."""
    return LatencyGrounder(latency=latency, version=version, bias=bias)


# ----------------------------------------------------------------------
# Replica process
# ----------------------------------------------------------------------
@dataclass
class ReplicaSpec:
    """Everything a replica process needs to build and serve its engine.

    ``builder`` must be a module-level callable (picklable by qualified
    name) returning a grounder; ``builder_kwargs`` are
    passed to it verbatim inside the replica.
    """

    builder: Callable[..., Any]
    builder_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Identity of the model this replica serves (a zoo preset name or
    #: fingerprint).  A heterogeneous fleet routes model-tagged requests
    #: only to matching replicas and keys the shared response cache on
    #: this, so two presets can never cross-serve each other's answers.
    model_id: str = ""
    max_batch: int = 8
    cache_size: int = 256
    seed: int = 0
    #: Checkpoint applied right after build (respawned replicas join the
    #: fleet at the weights of the last completed rolling reload).
    initial_checkpoint: Optional[str] = None
    fault_plan: Optional[FaultPlan] = None


def _replica_entry(spec: ReplicaSpec, replica_id: int, generation: int,
                   conn) -> None:
    """Process entry point: build, serve the pipe, die realistically."""
    try:
        seed_everything(spec.seed)
        grounder = spec.builder(**spec.builder_kwargs)
        if spec.initial_checkpoint:
            apply_weights(grounder,
                          read_checkpoint(spec.initial_checkpoint).payload)
        engine = ServeEngine(grounder, max_batch=spec.max_batch,
                             cache_size=spec.cache_size)
        engine.start()

        send_lock = threading.Lock()
        served = [0]
        stop_beats = threading.Event()

        def send(message) -> None:
            with send_lock:
                conn.send(message)

        def heartbeat_loop() -> None:
            while not stop_beats.wait(HEARTBEAT_INTERVAL):
                try:
                    send(("heartbeat", engine.queue_depth, served[0]))
                except (BrokenPipeError, OSError):
                    return

        beats = threading.Thread(target=heartbeat_loop,
                                 name=f"replica-{replica_id}-heartbeat",
                                 daemon=True)
        beats.start()
        send(("ready", os.getpid(), generation))

        def on_done(req_id: int, future) -> None:
            try:
                exc = future.exception()
                if exc is None:
                    send(("response", req_id, future.result()))
                    served[0] += 1
                else:
                    send(("error", req_id, repr(exc)))
            except (BrokenPipeError, OSError):
                pass  # router gone; nothing left to report to

        received = 0
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # router side closed: shut down
            kind = message[0]
            if kind == "request":
                _, req_id, image, query = message
                received += 1
                if spec.fault_plan is not None:
                    spec.fault_plan.on_replica_request(replica_id, received)
                future = engine.submit(image, query)
                future.add_done_callback(
                    lambda f, req_id=req_id: on_done(req_id, f))
            elif kind == "reload":
                _, path = message
                started = time.perf_counter()
                try:
                    state = apply_weights(grounder,
                                          read_checkpoint(path).payload)
                    # Answers computed by the old weights must not
                    # outlive them: invalidate the engine's cache (which
                    # also refuses any in-flight batch's inserts) before
                    # acking, so the router never re-admits traffic to a
                    # replica that could still answer from pre-reload
                    # results.
                    engine.cache.invalidate()
                    checksum = state_checksum(state)
                    send(("reloaded", checksum,
                          time.perf_counter() - started))
                except Exception as exc:  # keep serving the old weights
                    send(("reload-failed", repr(exc)))
            elif kind == "stop":
                break
        stop_beats.set()
        engine.stop()
        conn.close()
    except SimulatedCrash:
        # Die the way a killed process does: no drain, no report — the
        # router finds out through EOF on the pipe.
        os._exit(17)
    except (BrokenPipeError, OSError):
        os._exit(18)
