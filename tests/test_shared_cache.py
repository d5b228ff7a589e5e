"""The versioned LRU response cache both serving tiers share.

Pure-logic units (no subprocesses) for
:class:`repro.serve.cache.VersionedCache`: LRU order, version-based
invalidation, copy-in safety and the hit/miss tallies, plus a seeded
model-based test against a dict-plus-version reference.  The engine
side lives in ``tests/test_serve.py``; the fleet side (replica cache
invalidated on reload, router invalidation after a roll, hits surviving
respawns) in ``tests/test_fleet.py``.
"""

import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest

from repro.core import GroundingResponse
from repro.serve import CacheStats, VersionedCache


def box(*values):
    """A top-1 response whose box is ``values``."""
    return GroundingResponse(boxes=np.asarray(values, dtype=np.float64),
                             scores=[1.0])


class TestSharedCacheBasics:
    def test_roundtrip_and_lru_eviction(self):
        cache = VersionedCache(2)
        cache.put("a", box(1, 1, 1, 1), 0)
        cache.put("b", box(2, 2, 2, 2), 0)
        assert cache.get("a").top_box[0] == 1.0  # refreshes recency
        cache.put("c", box(3, 3, 3, 3), 0)  # evicts b (coldest)
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None
        assert cache.stats().evictions == 1

    def test_hit_miss_counters(self):
        cache = VersionedCache(4)
        assert cache.get("missing") is None  # a lookup alone counts nothing
        cache.put("k", box(0, 0, 0, 0), 0)  # the computed answer: a miss
        assert cache.get("k") is not None
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_rate == pytest.approx(0.5)
        assert isinstance(stats, CacheStats)
        assert stats.as_dict()["hit_rate"] == pytest.approx(0.5)

    def test_capacity_zero_disables(self):
        cache = VersionedCache(0)
        assert cache.put("k", box(1, 2, 3, 4), 0) is False
        assert cache.get("k") is None
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 0 and len(cache) == 0

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            VersionedCache(-1)


class TestSharedCacheSafety:
    def test_stored_box_is_a_readonly_copy(self):
        cache = VersionedCache(4)
        source = box(1, 2, 3, 4)
        cache.put("k", source, 0)
        source.boxes[:] = -1.0  # mutating the caller's response after put ...
        stored = cache.get("k")
        assert stored.top_box[0] == 1.0  # ... cannot reach the cache
        with pytest.raises(ValueError):
            stored.boxes[0, 0] = 99.0  # the stored arrays are immutable

    def test_concurrent_readers_and_writers(self):
        cache = VersionedCache(16)
        errors = []
        hits = [0] * 4

        def worker(tag):
            try:
                for i in range(200):
                    cache.put((tag, i % 8), box(i, i, i, i), cache.version)
                    hits[tag] += cache.get((tag, (i + 1) % 8)) is not None
                    if i % 50 == 0:
                        cache.invalidate()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force interleavings
        try:
            threads = [threading.Thread(target=worker, args=(t,))
                       for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = cache.stats()
        # A lost update would break either exact count.
        assert stats.misses == 4 * 200  # every put counted exactly once
        assert stats.hits == sum(hits)
        assert stats.size <= 16 and stats.version == 4 * 4


class TestEpochInvalidation:
    def test_bump_makes_every_entry_unreachable(self):
        cache = VersionedCache(8)
        cache.put("k", box(1, 1, 1, 1), 0)
        assert cache.get("k") is not None
        assert cache.invalidate() == 1
        assert cache.get("k") is None and len(cache) == 0
        assert cache.stats().version == 1

    def test_old_epoch_put_is_refused(self):
        cache = VersionedCache(8)
        version_at_dispatch = cache.version
        cache.invalidate()  # weight roll completes while in flight
        assert cache.put("k", box(9, 9, 9, 9), version_at_dispatch) is False
        assert cache.get("k") is None
        assert cache.stats().stale_puts == 1

    def test_current_epoch_put_lands_after_bump(self):
        cache = VersionedCache(8)
        cache.invalidate()
        assert cache.put("k", box(5, 5, 5, 5), cache.version) is True
        assert cache.get("k").top_box[0] == 5.0


class TestLRUCacheCounting:
    """The cache's tallies: hits from ``get``, misses from ``put``."""

    def test_get_counts_hits_and_misses(self):
        cache = VersionedCache(4)
        assert cache.get("a") is None
        cache.put("a", box(1, 1, 1, 1), 0)
        assert cache.get("a").top_box[0] == 1.0
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_rate == pytest.approx(0.5)

    def test_clear_keeps_tallies_reset_stats_zeroes(self):
        cache = VersionedCache(2)
        cache.put("a", box(1, 1, 1, 1), 0)
        cache.put("b", box(2, 2, 2, 2), 0)
        cache.put("c", box(3, 3, 3, 3), 0)  # evicts a
        cache.get("b")
        cache.invalidate()
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (1, 3, 1)
        cache.reset_stats()
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (0, 0, 0)
        assert stats.version == 1

    def test_tallies_are_registry_counters(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        cache = VersionedCache(1, registry, "tier.cache.")
        cache.put("a", box(1, 1, 1, 1), 0)
        cache.put("b", box(2, 2, 2, 2), 0)  # evicts a
        cache.get("b")
        cache.put("c", box(3, 3, 3, 3), 0)
        cache.invalidate()
        cache.put("d", box(4, 4, 4, 4), 0)  # stale
        stats = cache.stats()
        for name in ("hits", "misses", "evictions", "stale_puts"):
            assert registry.counter(f"tier.cache.{name}").value \
                == getattr(stats, name)
        assert registry.gauge("tier.cache.version").value == 1


class TestModelIdentityKeys:
    """Cache keys carry the model identity (heterogeneous-fleet fix).

    The router keys its cache on ``(model_id, image_digest, query)`` and
    the cache itself refuses answers computed under an older version —
    together the effective identity is (preset, weights version, image,
    query).  These are the unit-level regressions for the bug where two
    presets sharing one cache could serve each other's answers.
    """

    def _router_key(self, model, image, query):
        from repro.serve import image_digest

        return (model, image_digest(image), str(query))

    def test_same_content_different_models_are_distinct_entries(self):
        cache = VersionedCache(8)
        image = np.ones((4, 4, 3))
        key_a = self._router_key("tiny", image, "the red box")
        key_b = self._router_key("tiny-word2pix", image, "the red box")
        assert key_a != key_b
        cache.put(key_a, box(1, 1, 1, 1), 0)
        assert cache.get(key_b) is None, (
            "preset B answered from preset A's cache entry")
        cache.put(key_b, box(2, 2, 2, 2), 0)
        assert cache.get(key_a).top_box[0] == 1.0
        assert cache.get(key_b).top_box[0] == 2.0

    def test_epoch_bump_invalidates_every_model(self):
        cache = VersionedCache(8)
        image = np.zeros((4, 4, 3))
        for model in ("tiny", "tiny-word2pix"):
            cache.put(self._router_key(model, image, "q"), box(1, 2, 3, 4), 0)
        cache.invalidate()
        for model in ("tiny", "tiny-word2pix"):
            assert cache.get(self._router_key(model, image, "q")) is None


class TestAgainstReference:
    """Seeded random get / put(version) / invalidate sequences, with
    evictions from a small capacity, against a dict-plus-version model."""

    KEYS = 6
    STEPS = 600

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dict_plus_version_reference(self, seed):
        rng = np.random.default_rng([seed, 12])
        capacity = int(rng.integers(0, 5))
        cache = VersionedCache(capacity)
        entries: "OrderedDict[int, float]" = OrderedDict()  # key -> tag
        version = 0
        tallies = dict(hits=0, misses=0, evictions=0, stale_puts=0)
        for step in range(self.STEPS):
            op = rng.choice(["get", "put", "invalidate"], p=[0.5, 0.42, 0.08])
            key = int(rng.integers(self.KEYS))
            if op == "get":
                got = cache.get(key)
                if key in entries:
                    entries.move_to_end(key)
                    tallies["hits"] += 1
                    # A response carries [tag, version it was put under].
                    assert got.top_box.tolist()[:2] == [entries[key], version]
                else:
                    assert got is None
            elif op == "put":
                # Mostly current, sometimes an answer from older weights.
                put_version = int(rng.integers(max(0, version - 2),
                                               version + 1))
                stored = cache.put(key, box(step, put_version, 0, 0),
                                   put_version)
                expected = capacity > 0 and put_version == version
                assert stored == expected
                if capacity > 0:
                    tallies["misses"] += 1
                    tallies["stale_puts"] += put_version != version
                if expected:
                    entries[key] = float(step)
                    entries.move_to_end(key)
                    while len(entries) > capacity:
                        entries.popitem(last=False)
                        tallies["evictions"] += 1
            else:
                version += 1
                entries.clear()
                assert cache.invalidate() == version
            stats = cache.stats()
            assert list(cache._entries) == list(entries)  # LRU order
            assert stats.size == len(entries) <= capacity
            assert stats.version == version
            assert {name: getattr(stats, name) for name in tallies} == tallies
