"""The gateway's bytes-bounded hot-container cache.

A thread-safe wrapper around the generic :class:`~repro.lsm.cache.
LRUCache` (the same implementation behind the LSM block cache and the
container disk cache, §4.5), measured in bytes of cached share payload.

Keys are **content-addressed**: the service keys each entry by
``(user, lookup_key, window index, replica id, digest of the window's
share fingerprints)``.  Overwriting a backup changes its fingerprints,
so the new version can never hit the old version's entries — staleness
is structurally impossible, not TTL-bounded.  What content addressing
does *not* do is free the dead bytes, which is why the cache also keeps
a per-backup key index so :meth:`invalidate` can drop every entry of an
overwritten or deleted backup in one call.
"""

from __future__ import annotations

from threading import Lock

from repro.analysis.annotations import guarded_by, requires_lock
from repro.lsm.cache import LRUCache
from repro.obs.registry import REGISTRY

__all__ = ["HotContainerCache"]

# Registry-backed cache accounting (docs/OBSERVABILITY.md): the counters
# feed ``repro stats`` / the pinned fig10 hit ratio; the gauges track the
# occupancy the byte bound is enforcing.
_CACHE_HITS = REGISTRY.counter(
    "gateway_cache_hits_total", "Hot-container cache lookups served from memory"
)
_CACHE_MISSES = REGISTRY.counter(
    "gateway_cache_misses_total", "Hot-container cache lookups that went to a replica"
)
_CACHE_INVALIDATIONS = REGISTRY.counter(
    "gateway_cache_invalidations_total",
    "Entries dropped because their backup was overwritten or deleted",
)
_CACHE_BYTES = REGISTRY.gauge(
    "gateway_cache_bytes", "Share payload bytes resident in the hot-container cache"
)
_CACHE_ENTRIES = REGISTRY.gauge(
    "gateway_cache_entries", "Window entries resident in the hot-container cache"
)

#: ``(user_id, lookup_key)`` — one backup's identity.
Backup = tuple[str, bytes]


class HotContainerCache:
    """Thread-safe byte-bounded LRU of window share lists.

    Values are ``list[bytes]`` (one window's shares from one replica);
    an entry's cost is the summed share payload (floored at 1 so empty
    windows still occupy a slot and stay evictable).
    """

    #: Lock discipline (``repro analyze``, LOCK-001): the underlying
    #: LRU and the per-backup key index are shared by every connection
    #: the front-end multiplexes; both mutate only under ``_lock``.
    GUARDED_BY = guarded_by(_cache="_lock", _by_backup="_lock")

    def __init__(self, capacity_bytes: int) -> None:
        self._lock = Lock()
        self._cache = LRUCache(
            capacity_bytes,
            size_of=lambda shares: sum(len(s) for s in shares) or 1,
            on_evict=self._evicted,
        )
        self._by_backup: dict[Backup, set] = {}

    @requires_lock("_lock")
    def _evicted(self, key, _value) -> None:
        # Runs inside LRUCache.put, which only runs under self._lock:
        # keep the per-backup index in step with capacity eviction.
        backup = key[:2]
        keys = self._by_backup.get(backup)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_backup[backup]

    def get(self, key: tuple):
        """The cached share list, or None (counts toward hit stats)."""
        with self._lock:
            shares = self._cache.get(key)
        if shares is None:
            _CACHE_MISSES.inc()
        else:
            _CACHE_HITS.inc()
        return shares

    def put(self, key: tuple, shares: list) -> None:
        with self._lock:
            self._by_backup.setdefault(key[:2], set()).add(key)
            self._cache.put(key, shares)
            size, entries = self._cache.size, len(self._cache)
        _CACHE_BYTES.set(size)
        _CACHE_ENTRIES.set(entries)

    def invalidate(self, backup: Backup) -> int:
        """Drop every entry of one backup; returns entries removed."""
        with self._lock:
            keys = self._by_backup.pop(backup, set())
            removed = 0
            for key in keys:
                if self._cache.pop(key) is not None:
                    removed += 1
            size, entries = self._cache.size, len(self._cache)
        if removed:
            _CACHE_INVALIDATIONS.inc(removed)
        _CACHE_BYTES.set(size)
        _CACHE_ENTRIES.set(entries)
        return removed

    def stats_snapshot(self) -> dict:
        """Every stats field under **one** lock acquisition.

        The per-field properties below each take the lock separately, so
        reading several of them in a row can interleave with concurrent
        puts and report, e.g., a hit count from before an eviction next
        to a byte count from after it.  Multi-field consumers (the
        gateway's ``stats()`` view, the CLI tables) read this snapshot
        instead.
        """
        with self._lock:
            cache = self._cache
            return {
                "capacity_bytes": cache.capacity,
                "size_bytes": cache.size,
                "entries": len(cache),
                "hits": cache.hits,
                "misses": cache.misses,
                "hit_rate": cache.hit_rate,
            }

    # ------------------------------------------------------------------
    # observability (benchmark + stats surface)
    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        with self._lock:
            return self._cache.capacity

    @property
    def size_bytes(self) -> int:
        with self._lock:
            return self._cache.size

    @property
    def entries(self) -> int:
        with self._lock:
            return len(self._cache)

    @property
    def hits(self) -> int:
        with self._lock:
            return self._cache.hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._cache.misses

    @property
    def hit_rate(self) -> float:
        with self._lock:
            return self._cache.hit_rate
