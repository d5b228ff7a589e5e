"""Serving fleet: routing, backpressure, deadlines, respawn, hot reload.

The multi-process tests are marked ``dist`` (included in the tier-1 run,
like ``test_dist.py``) and every test in this module runs under a
``faulthandler`` watchdog: a hung fleet dumps all thread stacks and
kills the test run instead of wedging CI.
"""

import faulthandler
import time

import numpy as np
import pytest

from repro.core import responses_equal
from repro.data.refcoco import request_sample
from repro.runtime import CheckpointManager, FaultPlan
from repro.serve import (
    DeadlineExceeded,
    FleetConfig,
    FleetRouter,
    FleetStopped,
    Overloaded,
    ReloadError,
    ReplicaSpec,
    build_latency_grounder,
    run_soak,
    state_checksum,
    timed_trace,
)
from repro.serve import fleet, soak
from repro.serve.replica import apply_weights
from repro.utils.seeding import spawn_rng


@pytest.fixture(autouse=True)
def _watchdog():
    """Dump all stacks and abort if any fleet test wedges for 120s."""
    faulthandler.dump_traceback_later(120.0, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def make_samples(count, shape=(8, 8, 3), seed_name="fleet-samples"):
    rng = spawn_rng(seed_name)
    return [request_sample(rng.random(shape), f"object number {i}")
            for i in range(count)]


def latency_spec(latency=0.002, **overrides):
    kwargs = dict(
        builder=build_latency_grounder,
        builder_kwargs={"latency": latency},
        max_batch=4,
        cache_size=0,
    )
    kwargs.update(overrides)
    return ReplicaSpec(**kwargs)


def save_checkpoint(tmp_path, version, bias):
    manager = CheckpointManager(str(tmp_path))
    state = {"version": np.array([float(version)]),
             "bias": np.array([float(bias)])}
    return manager.save(state, int(version)), state


# ----------------------------------------------------------------------
# Pure-logic units (no subprocesses)
# ----------------------------------------------------------------------
class TestChecksum:
    def test_checksum_ignores_dtype_and_order(self):
        a = {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
             "b": np.ones(3, dtype=np.float32)}
        b = {"b": np.ones(3, dtype=np.float64),
             "w": np.arange(6, dtype=np.float64).reshape(2, 3)}
        assert state_checksum(a) == state_checksum(b)

    def test_checksum_distinguishes_values_and_shapes(self):
        base = {"w": np.zeros((2, 3))}
        assert state_checksum(base) != state_checksum({"w": np.ones((2, 3))})
        assert state_checksum(base) != state_checksum({"w": np.zeros((3, 2))})
        assert state_checksum(base) != state_checksum({"v": np.zeros((2, 3))})

    def test_float64_payload_matches_the_loaded_model(self, tmp_path,
                                                      monkeypatch):
        """The router hashes the payload it read, a replica the state it
        holds after loading it: a float64 payload must hash alike."""
        from repro.zoo import build_preset_grounder

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        grounder = build_preset_grounder(preset="tiny", scale=0.1,
                                         pretrain_steps=1)
        rng = np.random.default_rng(0)
        payload = {key: value * (1.0 + 0.05 * rng.standard_normal(value.shape))
                   for key, value in grounder.model.state_dict().items()}
        assert {value.dtype for value in payload.values()} == {np.dtype(np.float64)}
        assert state_checksum(payload) == state_checksum(
            apply_weights(grounder, payload))


class TestTimedTrace:
    def test_same_seed_same_trace(self):
        samples = make_samples(4)
        one = timed_trace(samples, 20, rate_qps=100.0, rng=spawn_rng("t"))
        two = timed_trace(samples, 20, rate_qps=100.0, rng=spawn_rng("t"))
        assert [r.arrival for r in one] == [r.arrival for r in two]
        assert [r.query for r in one] == [r.query for r in two]

    def test_arrivals_are_increasing_at_requested_rate(self):
        samples = make_samples(2)
        trace = timed_trace(samples, 200, rate_qps=50.0, rng=spawn_rng("t2"))
        arrivals = [r.arrival for r in trace]
        assert arrivals == sorted(arrivals)
        mean_gap = arrivals[-1] / len(arrivals)
        assert 0.5 / 50.0 < mean_gap < 2.0 / 50.0

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            timed_trace(make_samples(1), 5, rate_qps=0.0)


class TestReplicaKillPlan:
    def test_fires_once_on_the_scheduled_ordinal(self):
        from repro.runtime.faults import SimulatedCrash

        plan = FaultPlan(kill_replica_on_request={1: 3})
        plan.on_replica_request(1, 1)
        plan.on_replica_request(1, 2)
        with pytest.raises(SimulatedCrash):
            plan.on_replica_request(1, 3)
        # fire-once: the same (kind, key) never trips again
        plan.on_replica_request(1, 3)
        plan.on_replica_request(0, 3)


class TestFleetConfig:
    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            FleetConfig(replicas=0)
        with pytest.raises(ValueError):
            FleetConfig(max_queue=0)


# ----------------------------------------------------------------------
# Live fleets (spawned subprocess replicas)
# ----------------------------------------------------------------------
@pytest.mark.dist
class TestFleetServing:
    def test_requests_route_and_all_resolve(self):
        samples = make_samples(5)
        cfg = FleetConfig(replicas=2, max_queue=64, default_deadline=15.0)
        with FleetRouter(latency_spec(), cfg) as router:
            assert router.wait_healthy(60.0)
            futures = [router.submit(s.image, s.query)
                       for s in samples for _ in range(4)]
            answers = [f.result(timeout=30.0) for f in futures]
        for answer, sample in zip(answers,
                                  [s for s in samples for _ in range(4)]):
            assert answer.boxes.shape == (1, 4)
            assert answer.top_box[0] == pytest.approx(float(sample.image.sum()))
        stats = router.stats()
        assert stats.completed == len(futures)
        assert stats.shed == 0
        # least-loaded routing used both replicas
        assert sum(1 for r in stats.replicas if r["served"] > 0) == 2

    def test_stats_latency_is_the_router_histogram_summary(self):
        samples = make_samples(3)
        cfg = FleetConfig(replicas=1, max_queue=16, default_deadline=15.0)
        with FleetRouter(latency_spec(), cfg) as router:
            assert router.wait_healthy(60.0)
            for sample in samples:
                router.ground(sample.image, sample.query, timeout=30.0)
        stats = router.stats()
        histogram = router.metrics.histogram("serve.fleet.latency_seconds")
        assert stats.latency == histogram.summary()
        assert stats.latency.count == stats.completed == len(samples)
        assert f"n={len(samples)}" in stats.render()

    def test_overload_sheds_with_typed_rejection(self, monkeypatch):
        monkeypatch.setattr(fleet, "MAX_REPLICA_INFLIGHT", 1)
        samples = make_samples(2)
        cfg = FleetConfig(replicas=1, max_queue=2, default_deadline=30.0)
        with FleetRouter(latency_spec(latency=0.05, max_batch=1), cfg) \
                as router:
            assert router.wait_healthy(60.0)
            futures = [router.submit(samples[i % 2].image, f"burst {i}")
                       for i in range(10)]
            outcomes = {"ok": 0, "shed": 0}
            for future in futures:
                try:
                    future.result(timeout=60.0)
                    outcomes["ok"] += 1
                except Overloaded:
                    outcomes["shed"] += 1
        assert outcomes["shed"] >= 1, "bounded queue never shed load"
        assert outcomes["ok"] >= 1
        assert outcomes["ok"] + outcomes["shed"] == 10
        assert router.stats().shed == outcomes["shed"]

    def test_deadline_retries_then_types_out(self, monkeypatch):
        monkeypatch.setattr(fleet, "RETRY_BASE_DELAY", 0.001)
        monkeypatch.setattr(fleet, "RETRY_MAX_DELAY", 0.01)
        samples = make_samples(1)
        cfg = FleetConfig(replicas=2, max_queue=16)
        # every forward takes 0.4s; a 0.05s deadline can never be met
        with FleetRouter(latency_spec(latency=0.4, max_batch=1), cfg) \
                as router:
            assert router.wait_healthy(60.0)
            future = router.submit(samples[0].image, samples[0].query,
                                   deadline=0.05)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=30.0)
        stats = router.stats()
        assert stats.retries >= 1, "expired attempt was not retried"
        assert stats.deadline_exceeded == 1

    def test_crash_respawns_and_loses_nothing(self):
        samples = make_samples(4)
        plan = FaultPlan(kill_replica_on_request={0: 2})
        cfg = FleetConfig(replicas=2, max_queue=64, default_deadline=20.0,
                          heartbeat_timeout=3.0)
        with FleetRouter(latency_spec(fault_plan=plan), cfg) as router:
            assert router.wait_healthy(60.0)
            futures = [router.submit(samples[i % 4].image, f"req {i}")
                       for i in range(24)]
            answers = [f.result(timeout=60.0) for f in futures]
            assert len(answers) == 24
            assert router.wait_healthy(60.0), "replica count not restored"
        stats = router.stats()
        assert stats.respawns >= 1
        assert stats.completed == 24
        assert any(r["generation"] >= 1 for r in stats.replicas)

    def test_post_stop_submit_resolves_with_fleet_stopped(self):
        cfg = FleetConfig(replicas=1, max_queue=4)
        router = FleetRouter(latency_spec(), cfg).start()
        assert router.wait_healthy(60.0)
        router.stop()
        future = router.submit(np.ones((4, 4, 3)), "late request")
        with pytest.raises(FleetStopped):
            future.result(timeout=5.0)


@pytest.mark.dist
class TestHotReload:
    def test_rolling_reload_swaps_weights_without_drops(self, tmp_path):
        samples = make_samples(3)
        ckpt, state = save_checkpoint(tmp_path, version=7, bias=3)
        cfg = FleetConfig(replicas=2, max_queue=64, default_deadline=20.0)
        with FleetRouter(latency_spec(), cfg) as router:
            assert router.wait_healthy(60.0)
            before = router.ground(samples[0].image, samples[0].query)
            assert before.version == 0.0 and before.top_box[3] == 1.0
            report = router.reload_weights(ckpt, timeout=60.0)
            assert report.checksum == state_checksum(state)
            assert len(report.replicas) == 2
            assert all(r["checksum"] == report.checksum
                       for r in report.replicas)
            after = router.ground(samples[0].image, samples[0].query)
            assert after.version == 7.0 and after.top_box[3] == 3.0
        assert router.stats().reloads == 1

    def test_corrupt_checkpoint_is_rejected_before_any_replica(
            self, tmp_path):
        from repro.runtime import CheckpointCorruptError, corrupt_file

        ckpt, _ = save_checkpoint(tmp_path, version=9, bias=9)
        corrupt_file(ckpt)
        cfg = FleetConfig(replicas=1, max_queue=8)
        with FleetRouter(latency_spec(), cfg) as router:
            assert router.wait_healthy(60.0)
            with pytest.raises(CheckpointCorruptError):
                router.reload_weights(ckpt)
            # fleet still serves the old weights
            answer = router.ground(np.ones((4, 4, 3)), "still up")
            assert answer.version == 0.0 and answer.top_box[3] == 1.0

    def test_respawned_replica_joins_at_reloaded_weights(self, tmp_path):
        from repro.runtime.faults import SimulatedCrash  # noqa: F401

        samples = make_samples(2)
        ckpt, _ = save_checkpoint(tmp_path, version=5, bias=2)
        plan = FaultPlan(kill_replica_on_request={0: 1})
        cfg = FleetConfig(replicas=1, max_queue=16, default_deadline=20.0,
                          heartbeat_timeout=3.0)
        with FleetRouter(latency_spec(fault_plan=plan), cfg) as router:
            assert router.wait_healthy(60.0)
            report = router.reload_weights(ckpt, timeout=60.0)
            assert len(report.replicas) == 1
            # first request kills generation 0; the respawn must come
            # back at the *reloaded* weights, not the built-in defaults
            answer = router.ground(samples[0].image, samples[0].query,
                                   timeout=120.0)
            assert answer.version == 5.0 and answer.top_box[3] == 2.0
        assert router.stats().respawns >= 1


@pytest.mark.dist
class TestRouterCache:
    """Router-tier shared cache + reload invalidation, end to end."""

    def test_hit_skips_replica_round_trip_and_is_mutation_safe(self):
        samples = make_samples(1)
        cfg = FleetConfig(replicas=2, max_queue=32, default_deadline=20.0,
                          router_cache=32)
        with FleetRouter(latency_spec(), cfg) as router:
            assert router.wait_healthy(60.0)
            first = router.ground(samples[0].image, samples[0].query)
            first.boxes[:] = -1.0  # clobbering the returned response ...
            second = router.ground(samples[0].image, samples[0].query)
            stats = router.stats()
        assert second.top_box[0] == pytest.approx(
            float(samples[0].image.sum()))
        assert stats.cache_hits == 1 and stats.cache_misses == 1
        assert stats.cache_hit_rate == pytest.approx(0.5)
        # the hit never reached a replica
        assert sum(r["served"] for r in stats.replicas) == 1

    def test_query_variants_share_entries_across_tiers(self):
        """Whitespace/case variants of one query normalise at the router
        front door: one router-cache entry, one replica round trip.
        Replica caches are on too, so a missed normalisation would show
        up as extra replica serves at either tier."""
        samples = make_samples(1)
        cfg = FleetConfig(replicas=2, max_queue=32, default_deadline=20.0,
                          router_cache=32)
        with FleetRouter(latency_spec(cache_size=16), cfg) as router:
            assert router.wait_healthy(60.0)
            first = router.ground(samples[0].image, "the red car")
            for variant in ["  The red car. ", "THE RED CAR",
                            "the  red\tcar!"]:
                again = router.ground(samples[0].image, variant)
                assert responses_equal(again, first)
            stats = router.stats()
        assert stats.cache_hits == 3 and stats.cache_misses == 1
        assert sum(r["served"] for r in stats.replicas) == 1

    def test_float64_and_float32_twins_share_one_entry(self):
        image = make_samples(1)[0].image
        cfg = FleetConfig(replicas=2, max_queue=32, default_deadline=20.0,
                          router_cache=32)
        with FleetRouter(latency_spec(), cfg) as router:
            assert router.wait_healthy(60.0)
            first = router.ground(image, "the red car")
            second = router.ground(image.astype(np.float32), "the red car")
            stats = router.stats()
        assert responses_equal(first, second)
        assert first.top_box[0] == float(image.astype(np.float32).sum())
        assert stats.cache_hits == 1 and stats.cache_misses == 1
        assert sum(r["served"] for r in stats.replicas) == 1

    def test_reload_flushes_replica_lru(self, tmp_path):
        """THE headline regression: replica-private caches must be
        invalidated by the reload message, or repeats keep serving
        old-weight answers.

        Router cache off so the replica cache is the only one in play.
        """
        samples = make_samples(1)
        ckpt, _ = save_checkpoint(tmp_path, version=7, bias=3)
        cfg = FleetConfig(replicas=1, max_queue=16, default_deadline=20.0,
                          router_cache=0)
        with FleetRouter(latency_spec(cache_size=16), cfg) as router:
            assert router.wait_healthy(60.0)
            before = router.ground(samples[0].image, samples[0].query)
            assert before.version == 0.0 and before.top_box[3] == 1.0
            # warm the replica cache with the old-weight answer
            router.ground(samples[0].image, samples[0].query)
            router.reload_weights(ckpt, timeout=60.0)
            after = router.ground(samples[0].image, samples[0].query)
        assert after.version == 7.0 and after.top_box[3] == 3.0, (
            f"stale answer served from uninvalidated replica cache: {after!r}")

    def test_completed_reload_bumps_epoch_and_invalidates(self, tmp_path):
        samples = make_samples(1)
        ckpt, _ = save_checkpoint(tmp_path, version=4, bias=6)
        cfg = FleetConfig(replicas=1, max_queue=16, default_deadline=20.0,
                          router_cache=32)
        with FleetRouter(latency_spec(), cfg) as router:
            assert router.wait_healthy(60.0)
            router.ground(samples[0].image, samples[0].query)
            hit = router.ground(samples[0].image, samples[0].query)
            assert hit.version == 0.0  # served from router tier, old weights
            router.reload_weights(ckpt, timeout=60.0)
            after = router.ground(samples[0].image, samples[0].query)
            stats = router.stats()
        assert after.version == 4.0 and after.top_box[3] == 6.0, (
            f"stale answer served from router cache after reload: "
            f"{after!r}")
        assert stats.cache_epoch == 1
        assert stats.cache_hits == 1 and stats.cache_misses == 2

    def test_failed_reload_keeps_old_epoch_serving(self, tmp_path):
        from repro.runtime import CheckpointCorruptError, corrupt_file

        samples = make_samples(1)
        ckpt, _ = save_checkpoint(tmp_path, version=9, bias=9)
        corrupt_file(ckpt)
        cfg = FleetConfig(replicas=1, max_queue=16, default_deadline=20.0,
                          router_cache=32)
        with FleetRouter(latency_spec(), cfg) as router:
            assert router.wait_healthy(60.0)
            warm = router.ground(samples[0].image, samples[0].query)
            with pytest.raises(CheckpointCorruptError):
                router.reload_weights(ckpt)
            # the aborted roll must NOT invalidate: the cached answer is
            # still correct for the weights actually serving
            again = router.ground(samples[0].image, samples[0].query)
            stats = router.stats()
        assert responses_equal(again, warm)
        assert stats.cache_epoch == 0
        assert stats.cache_hits == 1

    def test_hits_survive_replica_crash_and_respawn(self):
        samples = make_samples(1)
        plan = FaultPlan(kill_replica_on_request={0: 1})
        cfg = FleetConfig(replicas=1, max_queue=16, default_deadline=20.0,
                          heartbeat_timeout=3.0, router_cache=32)
        with FleetRouter(latency_spec(fault_plan=plan), cfg) as router:
            assert router.wait_healthy(60.0)
            # first request kills generation 0 mid-flight; the retry on
            # the respawn resolves it and populates the router cache
            warm = router.ground(samples[0].image, samples[0].query,
                                 timeout=120.0)
            hit = router.ground(samples[0].image, samples[0].query)
            stats = router.stats()
        assert responses_equal(hit, warm)
        assert stats.respawns >= 1
        # the respawned replica has an empty private cache, but the
        # router-tier entry outlives it (same weights epoch)
        assert stats.cache_hits >= 1
        assert stats.cache_epoch == 0

    def test_soak_repeated_queries_reload_and_crash(self, tmp_path, monkeypatch):
        """The acceptance-criteria soak: repeated-query trace, mid-run
        rolling reload, injected crash — hit rate > 0, zero stale."""
        samples = make_samples(3)
        ckpt, _ = save_checkpoint(tmp_path, version=2, bias=4)
        # kill replica 0 on its first request: with the router cache
        # absorbing repeats, few requests reach replicas, and ties route
        # to index 0 — so the first miss reliably triggers the crash
        plan = FaultPlan(kill_replica_on_request={0: 1})
        cfg = FleetConfig(replicas=2, max_queue=128, default_deadline=20.0,
                          heartbeat_timeout=3.0, router_cache=128)
        trace = timed_trace(samples, 40, rate_qps=120.0,
                            repeat_fraction=0.6,
                            rng=spawn_rng("cache-soak"))
        with FleetRouter(latency_spec(fault_plan=plan), cfg) as router:
            assert router.wait_healthy(60.0)
            report = run_soak(
                router, trace, reload_at=20, reload_checkpoint=ckpt,
                settle_timeout=120.0,
                # answers computed by the reloaded weights carry version 2
                post_reload_check=lambda response: response.version == 2.0,
            )
            assert router.wait_healthy(60.0), report.render()
        assert report.lost == 0, report.render()
        assert report.stale_served == 0, report.render()
        assert report.reload_error is None, report.render()
        assert report.stats.respawns >= 1, report.render()
        assert report.stats.cache_hits > 0, report.render()
        monkeypatch.setattr(soak, "MIN_CACHE_HIT_RATE", 0.01)
        violations = report.check()
        assert violations == [], violations
        assert "cache" in report.stats.render()


@pytest.mark.dist
class TestSoakHarness:
    @pytest.mark.slow
    def test_soak_with_crash_and_reload_loses_nothing(self, tmp_path):
        samples = make_samples(6)
        ckpt, _ = save_checkpoint(tmp_path, version=2, bias=4)
        plan = FaultPlan(kill_replica_on_request={1: 4})
        # router cache off: this soak is about crash + reload resilience,
        # and the injected kill needs replica 1 to actually see its 4th
        # request (the cache-on soak lives in TestRouterCache)
        cfg = FleetConfig(replicas=3, max_queue=128, default_deadline=20.0,
                          heartbeat_timeout=3.0, router_cache=0)
        trace = timed_trace(samples, 60, rate_qps=150.0,
                            rng=spawn_rng("soak-test"))
        with FleetRouter(latency_spec(fault_plan=plan), cfg) as router:
            assert router.wait_healthy(60.0)
            report = run_soak(router, trace, reload_at=30,
                              reload_checkpoint=ckpt, settle_timeout=120.0)
            assert router.wait_healthy(60.0), report.render()
            stats = router.stats()
        assert report.lost == 0, report.render()
        assert report.submitted == 60
        assert report.resolved == 60
        assert report.reload_error is None, report.render()
        assert stats.respawns >= 1, report.render()
        assert stats.alive == 3, report.render()
        violations = report.check(expected_replicas=None, slo_p99=None)
        assert violations == [], violations

    def test_report_check_flags_violations(self, monkeypatch):
        from repro.obs import Histogram
        from repro.serve import FleetStats, SoakReport

        latency = Histogram("latency")
        latency.observe_many([0.01, 0.02, 0.5])
        stats = FleetStats(
            submitted=10, completed=8, shed=0, retries=0,
            deadline_exceeded=0, failed=0, respawns=0, reloads=0,
            stale_responses=0, latency=latency.summary(),
            reload_seconds_total=0.0,
            replicas=({"index": 0, "state": "up", "generation": 0,
                       "depth": 0, "in_flight": 0, "served": 8},),
        )
        report = SoakReport(submitted=10, ok=7, shed=1, deadline=0,
                            failed=0, lost=2, wall_seconds=1.0, stats=stats,
                            scenario_latency={"driving": latency.summary()})
        monkeypatch.setattr(soak, "MAX_SHED_FRACTION", 0.05)
        violations = report.check(slo_p99=0.1, expected_replicas=3,
                                  scenario_slo_p99=0.1)
        assert any("lost" in v for v in violations)
        assert any(v.startswith("shed fraction 10.00%") for v in violations)
        assert any(v.startswith("p99") for v in violations)
        assert any("scenario 'driving' p99" in v for v in violations)
        assert any("replicas" in v for v in violations)
        rendered = report.render()
        assert "LOST" in rendered
        assert "scenario driving    n=3 " in rendered


@pytest.mark.dist
class TestHeterogeneousFleet:
    """Multiple presets behind one router: tagged routing, keyed cache."""

    def _specs(self):
        return [
            latency_spec(builder_kwargs={"latency": 0.002, "version": 1.0},
                         model_id="model-a"),
            latency_spec(builder_kwargs={"latency": 0.002, "version": 2.0},
                         model_id="model-b"),
        ]

    def test_model_tagged_requests_route_to_matching_replicas(self):
        samples = make_samples(2)
        cfg = FleetConfig(replicas=2, max_queue=32, default_deadline=20.0)
        with FleetRouter(self._specs(), cfg) as router:
            assert router.wait_healthy(60.0)
            a = router.ground(samples[0].image, samples[0].query,
                              model="model-a")
            b = router.ground(samples[0].image, samples[0].query,
                              model="model-b")
            stats = router.stats()
        # the "version" weight is the model identity made observable
        assert a.version == 1.0 and b.version == 2.0
        models = {r["model"] for r in stats.replicas}
        assert models == {"model-a", "model-b"}

    def test_cache_never_cross_serves_models(self):
        """THE regression: same (image, query) under two models must hit
        two distinct cache entries — a repeat only hits its own model."""
        samples = make_samples(1)
        cfg = FleetConfig(replicas=2, max_queue=32, default_deadline=20.0,
                          router_cache=32)
        with FleetRouter(self._specs(), cfg) as router:
            assert router.wait_healthy(60.0)
            first_a = router.ground(samples[0].image, samples[0].query,
                                    model="model-a")
            first_b = router.ground(samples[0].image, samples[0].query,
                                    model="model-b")
            assert router.stats().cache_hits == 0, (
                "model-b answered from model-a's cache entry")
            hit_a = router.ground(samples[0].image, samples[0].query,
                                  model="model-a")
            hit_b = router.ground(samples[0].image, samples[0].query,
                                  model="model-b")
            stats = router.stats()
        assert first_a.version == 1.0 and first_b.version == 2.0
        assert responses_equal(hit_a, first_a)
        assert responses_equal(hit_b, first_b)
        assert stats.cache_hits == 2 and stats.cache_misses == 2
        # only the two misses reached replicas
        assert sum(r["served"] for r in stats.replicas) == 2

    def test_untagged_requests_bypass_cache_but_resolve(self):
        samples = make_samples(1)
        cfg = FleetConfig(replicas=2, max_queue=32, default_deadline=20.0,
                          router_cache=32)
        with FleetRouter(self._specs(), cfg) as router:
            assert router.wait_healthy(60.0)
            one = router.ground(samples[0].image, samples[0].query)
            two = router.ground(samples[0].image, samples[0].query)
            stats = router.stats()
        # untagged answers depend on which replica served them, so they
        # must never enter (or hit) the shared cache
        assert stats.cache_hits == 0 and stats.cache_misses == 0
        assert one.version in (1.0, 2.0) and two.version in (1.0, 2.0)

    def test_unknown_model_is_typed_and_lists_fleet(self):
        from repro.serve import UnknownModel

        cfg = FleetConfig(replicas=2, max_queue=8)
        with FleetRouter(self._specs(), cfg) as router:
            assert router.wait_healthy(60.0)
            future = router.submit(np.ones((4, 4, 3)), "query",
                                   model="model-z")
            with pytest.raises(UnknownModel) as excinfo:
                future.result(timeout=10.0)
        assert "model-z" in str(excinfo.value)
        assert "model-a" in str(excinfo.value)
        assert "model-b" in str(excinfo.value)

    def test_reload_targets_one_model_only(self, tmp_path):
        samples = make_samples(1)
        ckpt, state = save_checkpoint(tmp_path, version=7, bias=3)
        cfg = FleetConfig(replicas=2, max_queue=32, default_deadline=20.0)
        with FleetRouter(self._specs(), cfg) as router:
            assert router.wait_healthy(60.0)
            with pytest.raises(ReloadError):
                router.reload_weights(ckpt)  # must name a model
            report = router.reload_weights(ckpt, timeout=60.0,
                                           model="model-a")
            assert report.checksum == state_checksum(state)
            assert len(report.replicas) == 1
            a = router.ground(samples[0].image, samples[0].query,
                              model="model-a")
            b = router.ground(samples[0].image, samples[0].query,
                              model="model-b")
        assert a.version == 7.0, "model-a did not pick up the reload"
        assert b.version == 2.0, "reload leaked into model-b's replicas"

    def test_reload_unknown_model_is_typed(self, tmp_path):
        from repro.serve import UnknownModel

        ckpt, _ = save_checkpoint(tmp_path, version=7, bias=3)
        cfg = FleetConfig(replicas=2, max_queue=8)
        with FleetRouter(self._specs(), cfg) as router:
            assert router.wait_healthy(60.0)
            with pytest.raises(UnknownModel):
                router.reload_weights(ckpt, model="model-z")

    def test_fewer_replicas_than_specs_rejected(self):
        with pytest.raises(ValueError):
            FleetRouter(self._specs(), FleetConfig(replicas=1))

    def test_empty_spec_list_rejected(self):
        with pytest.raises(ValueError):
            FleetRouter([], FleetConfig(replicas=2))


@pytest.mark.dist
class TestFleetStopSemantics:
    def test_stop_resolves_every_outstanding_future(self, monkeypatch):
        monkeypatch.setattr(fleet, "MAX_REPLICA_INFLIGHT", 2)
        samples = make_samples(2)
        cfg = FleetConfig(replicas=1, max_queue=64, default_deadline=60.0)
        router = FleetRouter(latency_spec(latency=0.2, max_batch=1),
                             cfg).start()
        assert router.wait_healthy(60.0)
        futures = [router.submit(samples[i % 2].image, f"slow {i}")
                   for i in range(12)]
        time.sleep(0.05)
        router.stop(timeout=0.2)  # cannot drain 12 x 0.2s requests
        unresolved = [f for f in futures if not f.done()]
        assert unresolved == [], f"{len(unresolved)} futures left hanging"
        kinds = set()
        for future in futures:
            exc = future.exception(timeout=1.0)
            kinds.add(type(exc).__name__ if exc else "ok")
        assert kinds <= {"ok", "FleetStopped"}, kinds
        assert "FleetStopped" in kinds, "grace window drained everything"
