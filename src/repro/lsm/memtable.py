"""In-memory sorted write buffer of the LSM tree.

Inserts go to the memtable first (after the WAL); when it exceeds its size
budget at a ``sync()`` the store flushes it to an immutable SSTable.
Deletions are stored as tombstones so they mask older SSTable entries
until compaction.

A plain dict plus sort-on-flush is used rather than a skiplist: point
lookups are O(1), and sorting once at flush time is both simpler and faster
in Python than maintaining sorted order per insert.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["MemTable", "TOMBSTONE"]

#: Sentinel marking a deleted key (never confused with a value: real values
#: are bytes, the sentinel is a unique object).
TOMBSTONE = object()


class MemTable:
    """Mutable key-value buffer with tombstone support."""

    def __init__(self) -> None:
        self._data: dict[bytes, bytes | object] = {}
        self._bytes = 0

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``."""
        self._account(key, self._data.get(key))
        self._data[key] = value
        self._bytes += len(key) + len(value)

    def delete(self, key: bytes) -> None:
        """Record a tombstone for ``key``."""
        self._account(key, self._data.get(key))
        self._data[key] = TOMBSTONE
        self._bytes += len(key)

    def _account(self, key: bytes, old: bytes | object | None) -> None:
        if old is None:
            return
        self._bytes -= len(key) + (len(old) if isinstance(old, bytes) else 0)

    def get(self, key: bytes):
        """Return value bytes, TOMBSTONE, or None if absent."""
        return self._data.get(key)

    def __len__(self) -> int:
        return len(self._data)

    @property
    def approximate_bytes(self) -> int:
        """Rough memory footprint used for the flush threshold."""
        return self._bytes

    def sorted_items(self) -> Iterator[tuple[bytes, bytes | object]]:
        """Items in key order (for flushing to an SSTable)."""
        for key in sorted(self._data):
            yield key, self._data[key]
