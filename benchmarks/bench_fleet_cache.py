"""Router-tier response cache — the cache-hit fast-path benchmark.

The claim, asserted: answering a repeated ``(image, query)`` from the
router-tier :class:`~repro.serve.cache.VersionedCache` is at
least ``MIN_SPEEDUP``x faster than the replica round-trip the miss path
pays (pipe hop + queue + simulated fixed-latency forward + pipe hop
back).  The model latency is simulated wall time, so the comparison is
honest on one core: a hit is an in-process dict lookup and never leaves
the router.

Also verifies the invalidation half of the design under load: after a
rolling reload mid-sequence, every response carries the new weights —
the router invalidates its warm cache in one step, and any response
still in flight from the old weights is refused insertion.
"""

import faulthandler
import time

import numpy as np
import pytest
from conftest import write_artifact

from repro.data.refcoco import request_sample
from repro.runtime import CheckpointManager
from repro.serve import (
    FleetConfig,
    FleetRouter,
    ReplicaSpec,
    build_latency_grounder,
)
from repro.utils import spawn_rng

pytestmark = pytest.mark.slow

REPLICAS = 2
KEYS = 12
ROUNDS = 6  # repeat passes over the key set (all router-tier hits)
MODEL_LATENCY = 0.01
MIN_SPEEDUP = 5.0


@pytest.fixture(autouse=True)
def _watchdog():
    faulthandler.dump_traceback_later(300.0, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def _make_pool(count):
    rng = spawn_rng("fleet-cache-pool")
    return [request_sample(rng.random((8, 8, 3)), f"cached object {i}")
            for i in range(count)]


def test_router_cache_hit_beats_replica_round_trip(results_dir, tmp_path):
    pool = _make_pool(KEYS)
    spec = ReplicaSpec(builder=build_latency_grounder,
                       builder_kwargs={"latency": MODEL_LATENCY},
                       max_batch=1, cache_size=0)
    config = FleetConfig(replicas=REPLICAS, max_queue=256,
                         default_deadline=60.0, router_cache=256)
    manager = CheckpointManager(str(tmp_path))
    checkpoint = manager.save(
        {"version": np.array([3.0]), "bias": np.array([2.0])}, 1)

    with FleetRouter(spec, config) as router:
        assert router.wait_healthy(120.0), "fleet never became healthy"
        router.ground(pool[0].image, "warmup", timeout=60.0)

        # ---- miss path: every key cold, full replica round-trip ----
        start = time.perf_counter()
        for sample in pool:
            router.ground(sample.image, sample.query, timeout=60.0)
        miss_wall = time.perf_counter() - start
        miss_mean = miss_wall / KEYS

        # ---- hit path: same keys, served at the router ----
        start = time.perf_counter()
        for _ in range(ROUNDS):
            for sample in pool:
                router.ground(sample.image, sample.query, timeout=60.0)
        hit_wall = time.perf_counter() - start
        hit_mean = hit_wall / (ROUNDS * KEYS)

        stats = router.stats()
        assert stats.cache_hits == ROUNDS * KEYS, (
            f"expected every repeat to hit the router tier, got "
            f"{stats.cache_hits}")

        # ---- invalidation: reload mid-sequence, zero stale after ----
        router.reload_weights(checkpoint, timeout=120.0)
        stale = sum(
            1 for sample in pool
            if router.ground(sample.image, sample.query,
                             timeout=60.0).version != 3.0)
        post_stats = router.stats()

    speedup = miss_mean / hit_mean
    lines = [
        f"Router-tier cache ({KEYS} keys x {ROUNDS} repeat rounds, "
        f"{REPLICAS} replicas, {MODEL_LATENCY * 1e3:.0f}ms simulated "
        f"forward, replica LRUs off)",
        f"  miss (replica round-trip): {miss_mean * 1e3:8.3f} ms/req",
        f"  hit  (router tier)       : {hit_mean * 1e3:8.3f} ms/req",
        f"  speedup                  : {speedup:8.1f}x  "
        f"(required >= {MIN_SPEEDUP:.0f}x)",
        f"  hit rate                 : "
        f"{post_stats.cache_hit_rate:8.2%}  "
        f"({post_stats.cache_hits} hits / {post_stats.cache_misses} "
        f"misses)",
        f"  reload invalidation      : version={post_stats.cache_epoch}, "
        f"stale responses after reload: {stale}",
    ]
    write_artifact(results_dir, "fleet_cache.txt", "\n".join(lines))

    assert stale == 0, f"{stale} stale response(s) after the reload"
    assert post_stats.cache_epoch == 1
    assert speedup >= MIN_SPEEDUP, (
        f"router-tier hit only {speedup:.1f}x faster than a replica "
        f"round-trip")
