"""Serving engine: micro-batching, versioned cache, telemetry, traces."""

import hashlib
import threading
import time

import numpy as np
import pytest

from repro.core import (
    Grounder,
    GroundingResponse,
    YolloConfig,
    YolloModel,
    responses_equal,
)
from repro.data import REFCOCO, build_dataset, request_sample
from repro.eval import evaluate_grounder, pairwise_ious
from repro.serve import (
    EngineDrainTimeout,
    EngineStopped,
    ServeEngine,
    ServerStats,
    TraceRequest,
    image_digest,
    VersionedCache,
    synthetic_trace,
)
from repro.twostage import ListenerMatcher, SegmentationProposer, TwoStageGrounder
from repro.twostage import listener as listener_module
from repro.twostage import proposals
from repro.utils import seed_everything


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def stub_responses(samples):
    """One top-1 response per sample whose box encodes the request."""
    return [GroundingResponse(boxes=[s.image.sum(), len(s.tokens), 1.0, 2.0],
                              scores=[1.0])
            for s in samples]


class StubGrounder:
    """Deterministic grounder that records every batch it is handed."""

    def __init__(self, fail=False):
        self.batches = []
        self.fail = fail

    def __call__(self, samples):
        if self.fail:
            raise RuntimeError("model exploded")
        self.batches.append(len(samples))
        return stub_responses(samples)


def make_image(value, shape=(3, 4, 6)):
    return np.full(shape, float(value))


@pytest.fixture(scope="module")
def tiny_grounder():
    seed_everything(11)
    dataset = build_dataset(REFCOCO.scaled(0.05))
    cfg = YolloConfig(
        backbone="tiny", d_model=16, d_rel=24, ffn_hidden=24, head_hidden=24,
        num_rel2att=2, max_query_length=max(6, dataset.max_query_length),
    )
    model = YolloModel(cfg, vocab_size=len(dataset.vocab))
    model.eval()
    return Grounder(model, dataset.vocab), dataset


def top_boxes(responses):
    return np.stack([r.top_box for r in responses])


def response(value):
    return GroundingResponse(boxes=[value] * 4, scores=[1.0])


# ----------------------------------------------------------------------
# Versioned LRU cache
# ----------------------------------------------------------------------
class TestLRUCache:
    def test_put_get_roundtrip(self):
        cache = VersionedCache(2)
        assert cache.put("a", response(1), cache.version)
        assert responses_equal(cache.get("a"), response(1))

    def test_eviction_is_least_recently_used(self):
        cache = VersionedCache(2)
        cache.put("a", response(1), 0)
        cache.put("b", response(2), 0)
        cache.get("a")  # refresh "a": "b" is now coldest
        cache.put("c", response(3), 0)
        assert cache.get("b") is None
        assert cache.get("a").top_box[0] == 1
        assert cache.get("c").top_box[0] == 3
        assert cache.stats().evictions == 1

    def test_zero_capacity_disables(self):
        cache = VersionedCache(0)
        assert cache.put("a", response(1), 0) is False
        assert cache.get("a") is None and len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            VersionedCache(-1)

    @pytest.mark.parametrize("view", ["contiguous", "strided", "transposed",
                                      "fortran"])
    def test_image_digest_is_unchanged_by_hashing_in_place(self, view):
        image = np.arange(3 * 8 * 10, dtype=np.float32).reshape(3, 8, 10) / 7
        image = {"contiguous": image, "strided": image[:, ::2, 1::3],
                 "transposed": image.transpose(0, 2, 1),
                 "fortran": np.asfortranarray(image)}[view]
        array = np.ascontiguousarray(image)
        old = hashlib.sha1()
        old.update(str(array.dtype).encode("ascii"))
        old.update(str(array.shape).encode("ascii"))
        old.update(array.tobytes())
        assert image_digest(image) == old.hexdigest()

    def test_image_digest_content_sensitive(self):
        a = make_image(1.0)
        assert image_digest(a) == image_digest(a.copy())
        assert image_digest(a) != image_digest(make_image(2.0))
        assert image_digest(a) != image_digest(a.astype(np.float32))


# ----------------------------------------------------------------------
# Engine behaviour (stub grounder)
# ----------------------------------------------------------------------
class TestServeEngine:
    def test_all_requests_resolve_with_correct_results(self):
        stub = StubGrounder()
        with ServeEngine(stub, max_batch=4) as engine:
            futures = [
                engine.submit(make_image(i), f"query {i}") for i in range(10)
            ]
            answers = [f.result(timeout=10) for f in futures]
        for i, answer in enumerate(answers):
            assert answer.top_box[0] == pytest.approx(make_image(i).sum())
        assert all(size <= 4 for size in stub.batches)
        assert sum(stub.batches) == 10  # every unique request computed once

    def test_ground_many_preserves_order(self):
        stub = StubGrounder()
        requests = [TraceRequest(make_image(i), f"q{i}") for i in range(7)]
        with ServeEngine(stub, max_batch=3) as engine:
            answers = engine.ground_many(requests)
        assert len(answers) == 7
        for i, answer in enumerate(answers):
            assert answer.top_box[0] == pytest.approx(make_image(i).sum())

    def test_lone_request_does_not_wait_for_batch_mates(self):
        # max_wait is ignored: a lone request dispatches at once instead
        # of sleeping a second for stragglers that never come.
        stub = StubGrounder()
        with ServeEngine(stub, max_batch=64, max_wait=1.0) as engine:
            start = time.perf_counter()
            answer = engine.ground(make_image(3), "lonely request", timeout=10)
            elapsed = time.perf_counter() - start
        assert elapsed < 0.25
        assert answer.top_box[0] == pytest.approx(make_image(3).sum())
        assert stub.batches == [1]

    def test_requests_queued_during_a_forward_form_the_next_batch(self):
        blocker = _CountingBlockingGrounder()
        with ServeEngine(blocker, max_batch=8) as engine:
            futures = [engine.submit(make_image(0), "q0")]
            assert blocker.entered.wait(10.0)
            futures += [engine.submit(make_image(i), f"q{i}")
                        for i in range(1, 6)]
            blocker.release.set()
            answers = [f.result(timeout=10) for f in futures]
        assert blocker.sizes == [1, 5]
        for i, answer in enumerate(answers):
            assert answer.top_box[0] == pytest.approx(make_image(i).sum())

    def test_cache_hit_skips_forward_and_is_byte_identical(self):
        stub = StubGrounder()
        image = make_image(5)
        with ServeEngine(stub, max_batch=4) as engine:
            first = engine.ground(image, "red dog", timeout=10)
            second = engine.ground(image, "red dog", timeout=10)
            stats = engine.stats()
        assert sum(stub.batches) == 1  # second request never reached the model
        assert responses_equal(first, second)
        assert stats.cache_hits == 1 and stats.cache_misses == 1
        assert stats.cache_hit_rate == pytest.approx(0.5)

    def test_in_flight_duplicates_deduplicated(self):
        blocker = _CountingBlockingGrounder()
        image = make_image(9)
        with ServeEngine(blocker, max_batch=8) as engine:
            # Hold the worker in another forward so the six duplicates
            # queue together and meet in one batch.
            held = engine.submit(make_image(1), "held")
            assert blocker.entered.wait(10.0)
            futures = [engine.submit(image, "same query") for _ in range(6)]
            blocker.release.set()
            held.result(timeout=10)
            answers = [f.result(timeout=10) for f in futures]
            stats = engine.stats()
        assert blocker.sizes == [1, 1]  # one forward slot for six requests
        assert all(responses_equal(a, answers[0]) for a in answers)
        assert answers[0].top_box[0] == pytest.approx(image.sum())
        assert stats.cache_hits == 5 and stats.cache_misses == 2

    def test_query_variants_share_one_cache_entry(self):
        """Whitespace/case/trailing-punctuation variants normalise at the
        front door and hit one cache entry."""
        stub = StubGrounder()
        image = make_image(7)
        with ServeEngine(stub, max_batch=4) as engine:
            first = engine.ground(image, "the red car", timeout=10)
            for variant in ["  The red car. ", "THE RED CAR",
                            "the  red\tcar!"]:
                again = engine.ground(image, variant, timeout=10)
                assert responses_equal(again, first)
            stats = engine.stats()
        assert sum(stub.batches) == 1
        assert stats.cache_hits == 3 and stats.cache_misses == 1

    def test_float64_and_float32_twins_share_one_cache_entry(self):
        seen = []

        def grounder(samples):
            seen.extend(s.image.dtype for s in samples)
            return stub_responses(samples)

        image = np.random.default_rng(0).random((3, 4, 6))
        with ServeEngine(grounder, max_batch=4) as engine:
            first = engine.ground(image, "red dog", timeout=10)
            second = engine.ground(image.astype(np.float32), "red dog",
                                   timeout=10)
            stats = engine.stats()
        assert seen == [np.dtype(np.float32)]
        assert responses_equal(first, second)
        assert stats.cache_hits == 1 and stats.cache_misses == 1

    def test_cached_result_is_immutable_copy(self):
        stub = StubGrounder()
        image = make_image(2)
        with ServeEngine(stub) as engine:
            first = engine.ground(image, "q", timeout=10)
            first.boxes[:] = -1.0  # clobbering the returned response ...
            second = engine.ground(image, "q", timeout=10)
        # ... cannot poison the cache
        assert second.top_box[0] == pytest.approx(image.sum())

    def test_cache_disabled_recomputes(self):
        stub = StubGrounder()
        image = make_image(4)
        with ServeEngine(stub, cache_size=0) as engine:
            engine.ground(image, "q", timeout=10)
            engine.ground(image, "q", timeout=10)
            stats = engine.stats()
        assert sum(stub.batches) == 2
        assert stats.cache_hits == 0

    def test_bare_boxes_are_rejected(self):
        """Only responses are served: a grounder answering ``(n, 4)``
        boxes fails its waiters with a TypeError."""
        def boxes_only(samples):
            return np.zeros((len(samples), 4))

        with ServeEngine(boxes_only) as engine:
            future = engine.submit(make_image(1), "q")
            with pytest.raises(TypeError, match="GroundingResponse"):
                future.result(timeout=10)

    def test_grounder_failure_propagates_to_waiters(self):
        with ServeEngine(StubGrounder(fail=True)) as engine:
            future = engine.submit(make_image(1), "q")
            with pytest.raises(RuntimeError, match="model exploded"):
                future.result(timeout=10)

    def test_stats_snapshot_counts_and_percentiles(self):
        stub = StubGrounder()
        with ServeEngine(stub, max_batch=4) as engine:
            engine.ground_many(
                [TraceRequest(make_image(i), f"q{i}") for i in range(8)]
            )
            stats = engine.stats()
        assert isinstance(stats, ServerStats)
        assert stats.requests == 8 and stats.completed == 8
        assert stats.batches == len(stub.batches)
        assert stats.latency.p50 <= stats.latency.p95 <= stats.latency.p99
        assert stats.latency.count == 8
        assert stats.throughput_qps > 0
        assert sum(stats.batch_histogram.values()) == stats.batches
        report = stats.render()
        assert "qps" in report and "hit-rate" in report

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ServeEngine(StubGrounder(), max_batch=0)
        with pytest.raises(ValueError):
            ServeEngine(StubGrounder(), max_wait=-1.0)

    def test_stop_is_idempotent_and_restartable(self):
        stub = StubGrounder()
        engine = ServeEngine(stub)
        engine.stop()  # never started: no-op
        assert engine.ground(make_image(1), "a", timeout=10) is not None
        engine.stop()
        engine.stop()
        assert engine.ground(make_image(2), "b", timeout=10) is not None
        engine.stop()


# ----------------------------------------------------------------------
# Stop / submit race (shutdown semantics)
# ----------------------------------------------------------------------
class _BlockingGrounder:
    """Grounder that parks inside the forward until released."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, samples):
        self.entered.set()
        assert self.release.wait(30.0), "blocking grounder never released"
        return [GroundingResponse() for _ in samples]


class TestStopSemantics:
    def test_drain_timeout_keeps_thread_and_reports(self):
        blocker = _BlockingGrounder()
        engine = ServeEngine(blocker, max_batch=1, cache_size=0)
        future = engine.submit(make_image(1), "q")
        assert blocker.entered.wait(10.0)
        with pytest.raises(EngineDrainTimeout):
            engine.stop(timeout=0.05)
        # the worker is still referenced and still truthfully running
        assert engine.running
        blocker.release.set()
        engine.stop(timeout=10.0)  # second stop finishes the shutdown
        assert not engine.running
        assert future.result(timeout=5.0) is not None

    def test_submit_during_stop_raises_engine_stopped(self):
        blocker = _BlockingGrounder()
        engine = ServeEngine(blocker, max_batch=1, cache_size=0)
        engine.submit(make_image(1), "q")
        assert blocker.entered.wait(10.0)

        errors = []

        def stopper():
            try:
                engine.stop(timeout=10.0)
            except EngineDrainTimeout as exc:  # pragma: no cover
                errors.append(exc)

        thread = threading.Thread(target=stopper)
        thread.start()
        # wait until stop() has actually entered its draining phase
        deadline = time.perf_counter() + 5.0
        while not engine._stopping and time.perf_counter() < deadline:
            time.sleep(0.001)
        assert engine._stopping, "stop() never reached the draining phase"
        with pytest.raises(EngineStopped):
            engine.submit(make_image(2), "rejected")
        blocker.release.set()
        thread.join(10.0)
        assert not thread.is_alive() and errors == []
        assert not engine.running

    def test_leftover_queued_requests_resolve_with_engine_stopped(self):
        # White-box: a request stranded behind the shutdown sentinel (the
        # pre-fix race) must be resolved by stop(), not left hanging.
        from concurrent.futures import Future

        from repro.serve.engine import _SHUTDOWN, _Pending

        engine = ServeEngine(StubGrounder(), cache_size=0)
        orphan: Future = Future()
        engine._queue.put(_SHUTDOWN)
        engine._queue.put(_Pending(
            request_sample(make_image(3), "orphan"), ("k", "orphan"),
            orphan, 0.0))
        engine.stop()
        with pytest.raises(EngineStopped):
            orphan.result(timeout=5.0)

    def test_stop_never_started_engine_fails_stranded_futures(self):
        from concurrent.futures import Future

        from repro.serve.engine import _Pending

        engine = ServeEngine(StubGrounder(), cache_size=0)
        orphan: Future = Future()
        engine._queue.put(_Pending(
            request_sample(make_image(4), "orphan"), ("k", "orphan"),
            orphan, 0.0))
        engine.stop()
        with pytest.raises(EngineStopped):
            orphan.result(timeout=5.0)


# ----------------------------------------------------------------------
# Cache invalidation (weight reloads flush the response cache)
# ----------------------------------------------------------------------
class _CountingBlockingGrounder:
    """Blocking grounder that records batch sizes and returns real boxes."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.sizes = []

    def __call__(self, samples):
        self.sizes.append(len(samples))
        self.entered.set()
        assert self.release.wait(30.0), "blocking grounder never released"
        return stub_responses(samples)


class TestClearCache:
    def test_clear_cache_forces_recompute(self):
        stub = StubGrounder()
        image = make_image(3)
        with ServeEngine(stub) as engine:
            engine.ground(image, "q", timeout=10)
            engine.cache.invalidate()
            engine.ground(image, "q", timeout=10)
            stats = engine.stats()
        assert sum(stub.batches) == 2  # no hit across the clear
        assert stats.cache_misses == 2 and stats.cache_hits == 0

    def test_clear_preserves_stats_tallies(self):
        stub = StubGrounder()
        image = make_image(6)
        with ServeEngine(stub) as engine:
            engine.ground(image, "q", timeout=10)
            engine.ground(image, "q", timeout=10)  # hit
            engine.cache.invalidate()
            stats = engine.stats()
        assert stats.cache_hits == 1 and stats.cache_misses == 1

    def test_clear_during_in_flight_batch_blocks_reinsert(self):
        """A forward racing ``invalidate`` must not repopulate the cache.

        The batch snapshot was computed by the *old* weights; letting it
        land after the clear would resurrect exactly the staleness the
        clear exists to remove.  The waiter still gets its box.
        """
        blocker = _CountingBlockingGrounder()
        image = make_image(7)
        with ServeEngine(blocker) as engine:
            future = engine.submit(image, "q")
            assert blocker.entered.wait(10.0)
            engine.cache.invalidate()  # fires while the forward is in flight
            blocker.release.set()
            answer = future.result(timeout=10.0)
            assert answer.top_box[0] == pytest.approx(image.sum())
            # The in-flight result must NOT have been inserted: the same
            # request goes back to the model.
            second = engine.ground(image, "q", timeout=10.0)
            assert second.top_box[0] == pytest.approx(image.sum())
        assert blocker.sizes == [1, 1]
        assert engine.cache.stats().stale_puts == 1

    def test_stats_and_registry_counters_agree_live(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        stub = StubGrounder()
        image = make_image(8)
        with ServeEngine(stub, metrics=registry) as engine:
            engine.ground(image, "q", timeout=10)
            engine.ground(image, "q", timeout=10)
            stats = engine.stats()
        # The cache's tallies are the registry counters themselves.
        assert stats.cache_hits == registry.counter("serve.cache_hits").value
        assert stats.cache_misses \
            == registry.counter("serve.cache_misses").value
        assert stats.cache_evictions == 0
        assert (stats.cache_hits, stats.cache_misses) == (1, 1)

    def test_reset_stats_zeroes_cache_tallies(self):
        stub = StubGrounder()
        image = make_image(8)
        with ServeEngine(stub) as engine:
            engine.ground(image, "q", timeout=10)
            engine.reset_stats()
            engine.ground(image, "q", timeout=10)  # the entry survived
            stats = engine.stats()
        assert (stats.cache_hits, stats.cache_misses) == (1, 0)


# ----------------------------------------------------------------------
# Synthetic traces
# ----------------------------------------------------------------------
class TestSyntheticTrace:
    def test_deterministic_given_rng(self, tiny_grounder):
        _, dataset = tiny_grounder
        pool = list(dataset["val"])
        a = synthetic_trace(pool, 20, rng=np.random.default_rng(3))
        b = synthetic_trace(pool, 20, rng=np.random.default_rng(3))
        assert [r.query for r in a] == [r.query for r in b]

    def test_repeats_present_at_high_fraction(self, tiny_grounder):
        _, dataset = tiny_grounder
        pool = list(dataset["val"])
        trace = synthetic_trace(pool, 50, repeat_fraction=0.9,
                                rng=np.random.default_rng(0))
        assert len(trace) == 50
        keys = [(id(r.image), r.query) for r in trace]
        assert len(set(keys)) < len(keys)

    def test_validation(self, tiny_grounder):
        _, dataset = tiny_grounder
        with pytest.raises(ValueError):
            synthetic_trace([], 5)
        with pytest.raises(ValueError):
            synthetic_trace(list(dataset["val"]), 5, repeat_fraction=1.5)


# ----------------------------------------------------------------------
# End-to-end with the real YOLLO grounder
# ----------------------------------------------------------------------
class TestServeYollo:
    def test_engine_matches_direct_predictions(self, tiny_grounder, monkeypatch):
        yollo, dataset = tiny_grounder
        samples = list(dataset["val"])
        targets = np.stack([s.target_box for s in samples])
        monkeypatch.setattr(listener_module, "EMBED_DIM", 12)
        listener = ListenerMatcher(dataset.vocab,
                                   max_query_length=dataset.max_query_length)
        # Full quality and no jitter: proposals depend on the image only,
        # so the evaluator's pass and the served pass see the same ones.
        monkeypatch.setattr(proposals, "QUALITY", 1.0)
        monkeypatch.setattr(proposals, "JITTER_COPIES", 0)
        two_stage = TwoStageGrounder(SegmentationProposer(),
                                     {"listener": listener})
        for grounder in (yollo, two_stage):
            direct = top_boxes(grounder(samples))
            report = evaluate_grounder(grounder, samples)
            with ServeEngine(grounder, max_batch=4) as engine:
                served = engine.ground_many(
                    [TraceRequest(s.image, s.query) for s in samples]
                )
            assert all(len(r) == 1 for r in served), grounder
            assert np.array_equal(top_boxes(served), direct), grounder
            # the served top boxes are exactly the ones the evaluator scores
            assert pairwise_ious(top_boxes(served), targets).tobytes() == \
                report.ious.tobytes(), grounder

    def test_cached_response_byte_identical_to_uncached(self, tiny_grounder):
        grounder, dataset = tiny_grounder
        sample = dataset["val"][0]
        with ServeEngine(grounder) as engine:
            uncached = engine.ground(sample.image, sample.query, timeout=30)
            cached = engine.ground(sample.image, sample.query, timeout=30)
            stats = engine.stats()
        assert responses_equal(uncached, cached)
        assert stats.cache_hits == 1

    def test_model_stays_in_eval_mode_under_serving(self, tiny_grounder):
        grounder, dataset = tiny_grounder
        grounder.model.eval()
        sample = dataset["val"][0]
        with ServeEngine(grounder) as engine:
            engine.ground(sample.image, sample.query, timeout=30)
        assert not grounder.model.training


# ----------------------------------------------------------------------
# Compiled serving
# ----------------------------------------------------------------------
class TestServeCompiled:
    def test_compiled_serving_matches_eager_and_records_compiles(
        self, tiny_grounder
    ):
        grounder, dataset = tiny_grounder
        samples = list(dataset["val"])[:4]
        eager = top_boxes(grounder(samples))
        grounder.compile()
        try:
            with ServeEngine(grounder, max_batch=4) as engine:
                served = engine.ground_many(
                    [TraceRequest(s.image, s.query) for s in samples]
                )
                stats = engine.stats()
            assert top_boxes(served).tobytes() == eager.tobytes()
            assert stats.compile_count >= 1
            assert stats.compile_ms_total > 0.0
            assert "compile" in stats.render()
        finally:
            grounder.uncompile()

    def test_eager_engine_records_no_compiles(self, tiny_grounder):
        grounder, dataset = tiny_grounder
        sample = dataset["val"][0]
        with ServeEngine(grounder) as engine:
            engine.ground(sample.image, sample.query, timeout=30)
            stats = engine.stats()
        assert stats.compile_count == 0
        assert "compile" not in stats.render()

    def test_cached_hit_skips_plan_lookup_entirely(self, tiny_grounder):
        grounder, dataset = tiny_grounder
        sample = dataset["val"][0]
        grounder.compile()
        try:
            with ServeEngine(grounder) as engine:
                engine.ground(sample.image, sample.query, timeout=30)
                lookups_after_miss = grounder.plan_cache.lookups
                cached = engine.ground(sample.image, sample.query, timeout=30)
                stats = engine.stats()
            # The repeat was answered from the response cache before any
            # plan-cache interaction: the lookup counter never moved.
            assert stats.cache_hits == 1
            assert grounder.plan_cache.lookups == lookups_after_miss
            assert cached.boxes.shape == (1, 4)
        finally:
            grounder.uncompile()

    def test_two_shapes_racing_keep_plan_cache_consistent(self, tiny_grounder):
        import threading

        grounder, dataset = tiny_grounder
        samples = list(dataset["val"])
        expected = {
            batch: top_boxes(grounder(samples[:batch])) for batch in (1, 2)
        }
        grounder.compile(max_plans=4)
        errors = []

        def pound(batch):
            try:
                for _ in range(5):
                    got = top_boxes(grounder(samples[:batch]))
                    assert got.tobytes() == expected[batch].tobytes()
            except BaseException as exc:
                errors.append(exc)

        try:
            threads = [
                threading.Thread(target=pound, args=(batch,))
                for batch in (1, 2, 1, 2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, errors[0]
            stats = grounder.plan_cache.stats()
            # Two batch shapes raced their first compiles: every miss
            # compiled exactly once, counters stayed coherent, and both
            # plans survived (no spurious evictions).
            assert stats["plans"] == 2
            assert stats["evictions"] == 0
            assert stats["lookups"] >= 20
            assert stats["hits"] + stats["compiles"] == stats["lookups"]
        finally:
            grounder.uncompile()

    def test_concurrent_submitters_compile_under_serving(self, tiny_grounder):
        import threading

        grounder, dataset = tiny_grounder
        samples = list(dataset["val"])[:6]
        eager = top_boxes(grounder(samples))
        grounder.compile(max_plans=8)
        errors = []
        try:
            # cache_size=0: every request must reach the model, so the
            # racing submitters genuinely exercise plan compilation for
            # whatever batch shapes the engine happens to form.
            with ServeEngine(grounder, max_batch=4,
                             cache_size=0) as engine:

                def submit(index):
                    try:
                        sample = samples[index % len(samples)]
                        got = engine.ground(sample.image, sample.query,
                                            timeout=60)
                        assert got.top_box.tobytes() == eager[
                            index % len(samples)
                        ].tobytes()
                    except BaseException as exc:
                        errors.append(exc)

                threads = [
                    threading.Thread(target=submit, args=(i,))
                    for i in range(12)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                stats = engine.stats()
            assert not errors, errors[0]
            assert stats.completed == 12
            cache_stats = grounder.plan_cache.stats()
            assert cache_stats["hits"] + cache_stats["compiles"] == \
                cache_stats["lookups"]
            assert cache_stats["evictions"] == 0
        finally:
            grounder.uncompile()

    def test_compile_ms_histogram_lives_in_engine_registry(self, tiny_grounder):
        grounder, dataset = tiny_grounder
        sample = dataset["val"][0]
        grounder.compile()
        try:
            with ServeEngine(grounder) as engine:
                engine.ground(sample.image, sample.query, timeout=30)
                histogram = engine.metrics.histogram("serve.compile_ms")
                assert len(histogram.values()) >= 1
        finally:
            grounder.uncompile()


# ----------------------------------------------------------------------
# Shared observability registry
# ----------------------------------------------------------------------
class TestServeMetrics:
    def test_engine_publishes_into_injected_registry(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        stub = StubGrounder()
        with ServeEngine(stub, max_batch=4, metrics=registry) as engine:
            engine.ground(make_image(1), "a", timeout=10)
            engine.ground(make_image(1), "a", timeout=10)  # cache hit
        assert engine.metrics is registry
        assert registry.counter("serve.requests").value == 2
        assert registry.counter("serve.cache_hits").value == 1
        assert registry.histogram("serve.latency_seconds").count == 2
        snap = registry.snapshot()
        assert snap["serve.latency_seconds"]["count"] == 2

    def test_default_registry_is_private_per_engine(self):
        first = ServeEngine(StubGrounder())
        second = ServeEngine(StubGrounder())
        assert first.metrics is not second.metrics

    def test_stats_quantiles_match_shared_histogram(self):
        from repro.obs.metrics import percentiles
        from repro.serve.stats import StatsRecorder

        recorder = StatsRecorder()
        latencies = [0.010, 0.020, 0.030, 0.500]
        for latency in latencies:
            recorder.record_request()
            recorder.record_completion(latency)
        stats = recorder.snapshot()
        p50, p95, p99 = percentiles(latencies, (50.0, 95.0, 99.0))
        assert stats.latency.p50 == p50
        assert stats.latency.p95 == p95
        assert stats.latency.p99 == p99

    def test_reset_only_touches_serve_metrics(self):
        from repro.obs import MetricsRegistry
        from repro.serve.stats import StatsRecorder

        registry = MetricsRegistry()
        registry.counter("train.steps").inc(3)
        recorder = StatsRecorder(registry=registry)
        recorder.record_request()
        recorder.reset()
        assert registry.counter("serve.requests").value == 0
        assert registry.counter("train.steps").value == 3

    def test_batch_spans_recorded_while_collecting(self):
        from repro.obs import collect_spans

        stub = StubGrounder()
        with collect_spans() as spans:
            with ServeEngine(stub, max_batch=2) as engine:
                engine.ground(make_image(3), "q", timeout=10)
        assert spans.calls.get("serve.batch", 0) >= 1


# ----------------------------------------------------------------------
# No-graph inference regression
# ----------------------------------------------------------------------
class TestInferenceAllocatesNoGraph:
    def test_predict_builds_no_grad_tensors(self, tiny_grounder):
        from tests.conftest import record_grad_children

        grounder, dataset = tiny_grounder
        sample = dataset["val"][0]
        with record_grad_children() as tracked:
            grounder.ground(sample.image, sample.query)
        assert tracked == [], (
            f"inference allocated {len(tracked)} grad-tracked tensors"
        )

    def test_serve_engine_builds_no_grad_tensors(self, tiny_grounder):
        from tests.conftest import record_grad_children

        grounder, dataset = tiny_grounder
        sample = dataset["val"][0]
        with record_grad_children() as tracked:
            with ServeEngine(grounder) as engine:
                engine.ground(sample.image, sample.query, timeout=30)
        assert tracked == []
