"""One LRU implementation for every bounded cache in the stack.

Its users: the LSM block cache (LevelDB-style block caching for index
lookups), the container offset-table cache of
:mod:`repro.storage.container` (each container's entry bounds, so a read
is one ranged get), the gateway's hot window cache and the client's
chunk history.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable

from repro.errors import ParameterError

__all__ = ["LRUCache"]


class LRUCache:
    """Bounded LRU mapping with optional eviction callback and hit stats.

    ``capacity`` counts *entries* by default; pass ``size_of`` to bound by
    the summed sizes of values instead (used for byte-bounded caches).
    """

    def __init__(
        self,
        capacity: int,
        size_of: Callable[[object], int] | None = None,
        on_evict: Callable[[Hashable, object], None] | None = None,
    ) -> None:
        if capacity <= 0:
            raise ParameterError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._size_of = size_of or (lambda value: 1)
        self._on_evict = on_evict
        self._data: OrderedDict[Hashable, object] = OrderedDict()
        self._size = 0
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def get(self, key: Hashable):
        """Return the cached value or None; refreshes recency on hit."""
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]
        self.misses += 1
        return None

    def put(self, key: Hashable, value) -> None:
        """Insert/overwrite ``key`` and evict LRU entries over capacity."""
        if key in self._data:
            self._size -= self._size_of(self._data[key])
            self._data.move_to_end(key)
        self._data[key] = value
        self._size += self._size_of(value)
        while self._size > self.capacity and self._data:
            old_key, old_value = self._data.popitem(last=False)
            self._size -= self._size_of(old_value)
            if self._on_evict is not None:
                self._on_evict(old_key, old_value)

    def pop(self, key: Hashable):
        """Remove ``key`` and return its value, or None if absent.

        Explicit removal (cache invalidation) does not run ``on_evict``:
        the callback is for capacity pressure, and invalidation callers
        are already holding whatever bookkeeping the entry needs.
        """
        if key not in self._data:
            return None
        value = self._data.pop(key)
        self._size -= self._size_of(value)
        return value

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    @property
    def size(self) -> int:
        """Current size under the configured measure."""
        return self._size

    def clear(self) -> None:
        self._data.clear()
        self._size = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
