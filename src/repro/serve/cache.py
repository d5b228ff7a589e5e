"""Versioned LRU response cache, the one cache class of both serving tiers.

Each :class:`~repro.serve.ServeEngine` (and so each fleet replica) and
the :class:`~repro.serve.FleetRouter` own one :class:`VersionedCache`
keyed on ``(image_digest, query)`` (the router prefixes the model
identity).  Values are :class:`~repro.core.GroundingResponse` objects,
stored by value: ``put`` keeps a read-only deep copy, and ``get`` hands
that shared copy back, so callers thaw it before giving it to user code.

**Invalidation is versioned.**  A caller reads :attr:`VersionedCache
.version` before it computes a response and passes it to ``put``.
:meth:`VersionedCache.invalidate` bumps the version and drops every
entry in one step under the lock, so the moment it returns no old entry
can be served, and a response computed before it (a batch in flight, a
response crossing the pipe) is refused by ``put``.  New weights call
``invalidate``; a failed weight roll calls nothing, so nothing is lost.

**The cache is the only tally of its own hits and misses.**  The tallies
are counters in a :class:`~repro.obs.MetricsRegistry` under a caller
chosen prefix (``serve.cache_*`` for the engine, ``serve.fleet.cache.*``
for the router).  They count answers, not lookups, so a request that
looks twice is still counted once: a *hit* is a ``get`` that found an
entry, and a *miss* is a freshly computed response offered to ``put``
(whether stored or refused).  A disabled cache (``capacity == 0``)
stores and counts nothing.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Optional

import numpy as np

from repro.core.response import GroundingResponse, freeze_response
from repro.obs.metrics import MetricsRegistry


def image_digest(image: np.ndarray) -> str:
    """Content hash of an image array (dtype- and shape-sensitive)."""
    array = np.ascontiguousarray(image)
    digest = hashlib.sha1()
    digest.update(str(array.dtype).encode("ascii"))
    digest.update(str(array.shape).encode("ascii"))
    digest.update(array.tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """One snapshot of a :class:`VersionedCache`."""

    capacity: int
    size: int
    version: int
    hits: int
    misses: int
    evictions: int
    #: Responses refused because they were computed under an older
    #: version than the cache is serving.
    stale_puts: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "capacity": self.capacity,
            "size": self.size,
            "version": self.version,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stale_puts": self.stale_puts,
            "hit_rate": self.hit_rate,
        }


class VersionedCache:
    """Thread-safe LRU of ``key -> GroundingResponse`` with a version.

    ``get`` refreshes recency; ``put`` inserts (or refreshes) and evicts
    from the cold end once ``capacity`` is exceeded.  ``registry`` and
    ``prefix`` place the ``hits``/``misses``/``evictions``/``stale_puts``
    counters and the ``version`` gauge; a private registry is used when
    none is given.
    """

    def __init__(self, capacity: int,
                 registry: Optional[MetricsRegistry] = None,
                 prefix: str = "cache."):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, GroundingResponse]" = \
            OrderedDict()
        self._version = 0
        registry = registry if registry is not None else MetricsRegistry()
        self._hits = registry.counter(prefix + "hits")
        self._misses = registry.counter(prefix + "misses")
        self._evictions = registry.counter(prefix + "evictions")
        self._stale_puts = registry.counter(prefix + "stale_puts")
        self._version_gauge = registry.gauge(prefix + "version")

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def version(self) -> int:
        """The version a response must be computed under to be stored."""
        with self._lock:
            return self._version

    def get(self, key: Hashable) -> Optional[GroundingResponse]:
        """The stored (read-only) response for ``key``, or ``None``.

        A found entry becomes the most recently used and counts a hit.
        """
        with self._lock:
            response = self._entries.get(key)
            if response is not None:
                self._entries.move_to_end(key)
                self._hits.inc()
            return response

    def put(self, key: Hashable, response: GroundingResponse,
            version: int) -> bool:
        """Store a read-only copy of a response computed under ``version``.

        Counts one miss.  Returns ``False`` without storing when the
        cache is disabled or ``version`` is older than the current one
        (the response belongs to weights no longer served; counted in
        ``stale_puts``).
        """
        if self.capacity == 0:
            return False
        stored = freeze_response(response)
        with self._lock:
            self._misses.inc()
            if version != self._version:
                self._stale_puts.inc()
                return False
            self._entries[key] = stored
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions.inc()
            return True

    def invalidate(self) -> int:
        """Drop every entry and bump the version; returns the new one."""
        with self._lock:
            self._entries.clear()
            self._version += 1
            self._version_gauge.set(self._version)
            return self._version

    def reset_stats(self) -> None:
        """Zero the tallies (entries and version are kept)."""
        with self._lock:
            for counter in (self._hits, self._misses, self._evictions,
                            self._stale_puts):
                counter.reset()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                capacity=self.capacity,
                size=len(self._entries),
                version=self._version,
                hits=self._hits.value,
                misses=self._misses.value,
                evictions=self._evictions.value,
                stale_puts=self._stale_puts.value,
            )
