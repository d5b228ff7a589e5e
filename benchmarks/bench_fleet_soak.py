"""Fleet soak + scaling — the fault-tolerance benchmark for serving.

Two claims, both asserted:

1. **Soak under faults**: a 3-replica fleet absorbing a timed trace
   with one deterministically injected replica crash *and* one rolling
   hot weight reload mid-run resolves **every** request (success or
   typed rejection — zero lost), restores the replica count, and holds
   a p99 latency SLO.
2. **Scaling**: the same burst trace through 3 replicas finishes at
   least ``MIN_SPEEDUP``x faster than a single ``ServeEngine`` serving
   the same fixed-latency model.  The replicas' cost is model *latency*
   (simulated forward wall time), which overlaps across processes even
   on one core — the honest scaling model for a router fronting
   fixed-latency model servers.
"""

import faulthandler
import time

import numpy as np
import pytest
from conftest import write_artifact

from repro.data.refcoco import GroundingSample
from repro.runtime import CheckpointManager, FaultPlan
from repro.serve import (
    FleetConfig,
    FleetRouter,
    LatencyGrounder,
    ReplicaSpec,
    ServeEngine,
    build_latency_grounder,
    run_soak,
    timed_trace,
)
from repro.utils import spawn_rng

pytestmark = pytest.mark.slow

REPLICAS = 3
SOAK_REQUESTS = 150
SOAK_RATE_QPS = 200.0
MODEL_LATENCY = 0.004
SLO_P99 = 2.0
SCALING_REQUESTS = 60
SCALING_LATENCY = 0.02
MIN_SPEEDUP = 2.0


@pytest.fixture(autouse=True)
def _watchdog():
    faulthandler.dump_traceback_later(300.0, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def _make_pool(count=8):
    rng = spawn_rng("fleet-bench-pool")
    return [
        GroundingSample(image=rng.random((8, 8, 3)),
                        query=f"benchmark object {i}", tokens=[],
                        target_box=np.zeros(4), target_index=-1,
                        scene=None, split="bench")
        for i in range(count)
    ]


def _spec(latency, fault_plan=None, max_batch=4):
    return ReplicaSpec(builder=build_latency_grounder,
                       builder_kwargs={"latency": latency},
                       max_batch=max_batch, cache_size=0,
                       fault_plan=fault_plan)


def test_fleet_soak_and_scaling(results_dir, tmp_path):
    pool = _make_pool()

    # ---- 1. fault-injected soak: crash + rolling reload under load ----
    manager = CheckpointManager(str(tmp_path))
    checkpoint = manager.save(
        {"version": np.array([2.0]), "bias": np.array([1.0])}, 1)
    plan = FaultPlan(kill_replica_on_request={0: 5})
    config = FleetConfig(replicas=REPLICAS, max_queue=256,
                         default_deadline=30.0, heartbeat_timeout=3.0)
    trace = timed_trace(pool, SOAK_REQUESTS, rate_qps=SOAK_RATE_QPS,
                        rng=spawn_rng("fleet-bench-trace"))
    with FleetRouter(_spec(MODEL_LATENCY, fault_plan=plan),
                     config) as router:
        assert router.wait_healthy(120.0), "fleet never became healthy"
        report = run_soak(router, trace, reload_at=SOAK_REQUESTS // 2,
                          reload_checkpoint=checkpoint,
                          settle_timeout=120.0)
        assert router.wait_healthy(120.0), "replica count not restored"
        stats = router.stats()
        # a post-reload response proves the new weights actually serve
        answer = router.ground(pool[0].image, pool[0].query, timeout=60.0)
    assert answer.version == 2.0, "reloaded weights not observable"
    assert stats.respawns >= 1, "injected crash produced no respawn"
    assert stats.reloads == 1
    violations = report.check(slo_p99=SLO_P99)
    assert violations == [], violations
    assert report.lost == 0 and report.resolved == SOAK_REQUESTS

    # ---- 2. scaling: 3 replicas vs one engine, same burst trace ----
    burst = timed_trace(pool, SCALING_REQUESTS, rate_qps=1e9,
                        rng=spawn_rng("fleet-bench-burst"))
    engine = ServeEngine(LatencyGrounder(latency=SCALING_LATENCY),
                         max_batch=1, cache_size=0)
    with engine:
        engine.ground(burst[0].image, burst[0].query)  # warm the worker
        start = time.perf_counter()
        futures = [engine.submit(r.image, r.query) for r in burst]
        for future in futures:
            future.result(timeout=120.0)
        single_wall = time.perf_counter() - start
    single_qps = SCALING_REQUESTS / single_wall

    # router cache OFF: the burst trace repeats ~30% of its requests,
    # and answering those at the router would flatter the scaling claim
    # (it is measured separately in bench_fleet_cache.py)
    scale_config = FleetConfig(replicas=REPLICAS, max_queue=256,
                               default_deadline=60.0, router_cache=0)
    with FleetRouter(_spec(SCALING_LATENCY, max_batch=1),
                     scale_config) as router:
        assert router.wait_healthy(120.0)
        router.ground(burst[0].image, burst[0].query)  # warm all paths
        start = time.perf_counter()
        futures = [router.submit(r.image, r.query) for r in burst]
        for future in futures:
            future.result(timeout=120.0)
        fleet_wall = time.perf_counter() - start
    fleet_qps = SCALING_REQUESTS / fleet_wall
    speedup = fleet_qps / single_qps

    lines = [
        f"Fleet soak ({SOAK_REQUESTS} requests @ {SOAK_RATE_QPS:.0f} qps, "
        f"{REPLICAS} replicas, 1 injected crash, 1 rolling reload)",
        "  " + report.render().replace("\n", "\n  "),
        "",
        f"Fleet scaling ({SCALING_REQUESTS}-request burst, "
        f"{SCALING_LATENCY * 1e3:.0f}ms simulated forward, max_batch=1)",
        f"  single engine : {single_qps:8.1f} qps  ({single_wall:.3f}s)",
        f"  {REPLICAS}-replica fleet: {fleet_qps:8.1f} qps  "
        f"({fleet_wall:.3f}s)",
        f"  speedup       : {speedup:.2f}x  (required >= "
        f"{MIN_SPEEDUP:.1f}x)",
    ]
    write_artifact(results_dir, "fleet_soak.txt", "\n".join(lines))

    assert speedup >= MIN_SPEEDUP, (
        f"{REPLICAS}-replica fleet only {speedup:.2f}x over one engine"
    )
