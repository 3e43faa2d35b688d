"""The LSM store façade: WAL + memtable + SSTables + bloom + block cache.

:class:`LSMStore` is the drop-in LevelDB replacement the CDStore server's
index module builds on (§4.4).  Semantics:

* ``put``/``delete`` are logged to the WAL's pending batch and applied
  to the memtable; nothing reaches disk from inside either call;
* ``get`` consults the memtable, then SSTables newest-first (each guarded
  by its bloom filter and served through a shared LRU block cache that
  holds blocks decoded into dicts, charged at their Python footprint so
  ``block_cache_bytes`` bounds bytes of memory);
* compaction merges all SSTables into one, dropping tombstones and
  superseded versions;
* ``snapshot`` writes a point-in-time copy of the store to a directory —
  mirroring "the snapshot feature provided by LevelDB" the paper mentions
  for backing up indices to the cloud;
* ``sync`` is the durability point: one ``sync`` per acknowledged batch
  writes the WAL's batch as one record and fsyncs it (the same
  :class:`~repro.storage.durable.RecordLog` and ``append``/``sync``
  contract as the container journal), and only then flushes the
  memtable to a new SSTable if it exceeds ``memtable_bytes`` — so a
  request's mutations reach disk together, at its commit, or not at all;
* reopen replays the WAL, recovering everything ``sync()``ed before a
  crash — mutations since the last ``sync`` were never acknowledged and
  are lost.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Iterator

from repro.errors import StorageError
from repro.lsm.cache import LRUCache
from repro.lsm.memtable import TOMBSTONE, MemTable
from repro.lsm.sstable import SSTable
from repro.lsm.wal import OP_DELETE, OP_PUT, WriteAheadLog
from repro.obs.registry import REGISTRY

__all__ = ["LSMStore", "prefix_upper_bound"]

# Storage-engine throughput counters (docs/OBSERVABILITY.md).  Appends
# sit on the ingest hot path — one Counter.inc is a per-thread dict
# update, cheap enough to leave unconditioned.
_WAL_APPENDS = REGISTRY.counter(
    "lsm_wal_appends_total", "Mutations logged to the write-ahead log"
)
_WAL_SYNCS = REGISTRY.counter(
    "lsm_wal_syncs_total", "WAL group-commit fsyncs"
)
_FLUSHES = REGISTRY.counter(
    "lsm_flushes_total", "Memtable flushes into new SSTables"
)
_COMPACTIONS = REGISTRY.counter(
    "lsm_compactions_total", "SSTable merge compactions"
)


def prefix_upper_bound(prefix: bytes) -> bytes | None:
    """Smallest key greater than every key starting with ``prefix``.

    Returns None when no such bound exists (empty or all-0xFF prefix),
    meaning the scan must run to the end of the keyspace.
    """
    for i in range(len(prefix) - 1, -1, -1):
        if prefix[i] != 0xFF:
            return prefix[:i] + bytes([prefix[i] + 1])
    return None

DEFAULT_MEMTABLE_BYTES = 4 << 20
DEFAULT_BLOCK_CACHE_BYTES = 8 << 20


class LSMStore:
    """Persistent key-value store with LSM-tree organisation."""

    def __init__(
        self,
        directory: str | Path,
        memtable_bytes: int = DEFAULT_MEMTABLE_BYTES,
        block_cache_bytes: int = DEFAULT_BLOCK_CACHE_BYTES,
        compact_at: int = 8,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.memtable_bytes = memtable_bytes
        self.compact_at = compact_at
        self._mem = MemTable()
        # Holds decoded blocks (SSTable.get), charged their footprint.
        self._block_cache = LRUCache(block_cache_bytes, size_of=lambda block: block.charge)
        self._tables: list[SSTable] = []  # oldest first
        self._next_table_id = 0
        self._closed = False
        self._load_tables()
        self._wal = WriteAheadLog(self.directory / "wal.log")
        self._recover()

    # ------------------------------------------------------------------
    # startup / recovery
    # ------------------------------------------------------------------
    def _load_tables(self) -> None:
        # A table is published by rename (SSTable.write); a leftover temp
        # is a flush or compaction that crashed before publishing, whose
        # data is still in the WAL or the tables it was merging.
        for stray in self.directory.glob("sst-*.db.tmp"):
            stray.unlink()
        paths = sorted(self.directory.glob("sst-*.db"))
        for path in paths:
            self._tables.append(SSTable(path))
            table_id = int(path.stem.split("-")[1])
            self._next_table_id = max(self._next_table_id, table_id + 1)

    def _recover(self) -> None:
        for op, key, value in self._wal.recover():
            if op == OP_PUT:
                self._mem.put(key, value)
            elif op == OP_DELETE:
                self._mem.delete(key)

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("store is closed")

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``."""
        self._check_open()
        self._wal.append_put(key, value)
        _WAL_APPENDS.inc()
        self._mem.put(key, value)

    def delete(self, key: bytes) -> None:
        """Delete ``key`` (tombstoned until compaction)."""
        self._check_open()
        self._wal.append_delete(key)
        _WAL_APPENDS.inc()
        self._mem.delete(key)

    def sync(self) -> None:
        """Group commit: log every mutation since the last sync as one WAL
        record and fsync it, so they survive kill -9 together; nothing is
        durable before it.  One call per acknowledged batch is the
        crash-only serving contract.  The memtable flushes only here,
        after the fsync, never from inside a request."""
        self._check_open()
        self._wal.sync()
        _WAL_SYNCS.inc()
        if self._mem.approximate_bytes >= self.memtable_bytes:
            self.flush()

    def flush(self) -> None:
        """Flush the memtable to a new SSTable and reset the WAL."""
        self._check_open()
        if not len(self._mem):
            return
        path = self.directory / f"sst-{self._next_table_id:08d}.db"
        self._next_table_id += 1
        table = SSTable.write(path, self._mem.sorted_items())
        self._tables.append(table)
        self._mem = MemTable()
        self._wal.reset()
        _FLUSHES.inc()
        if len(self._tables) >= self.compact_at:
            self.compact()

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, key: bytes) -> bytes | None:
        """Return the value for ``key`` or None."""
        self._check_open()
        value = self._mem.get(key)
        if value is TOMBSTONE:
            return None
        if value is not None:
            return value
        for table in reversed(self._tables):  # newest first
            value = table.get(key, block_cache=self._block_cache)
            if value is TOMBSTONE:
                return None
            if value is not None:
                return value
        return None

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def items(
        self, lower: bytes | None = None, upper: bytes | None = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Iterate live key-value pairs in key order (merged view).

        ``lower``/``upper`` bound the scan to ``lower <= key < upper``;
        SSTables skip blocks outside the range via their sparse indices,
        so bounded scans never touch the whole keyspace.
        """
        self._check_open()

        def in_range(key: bytes) -> bool:
            if lower is not None and key < lower:
                return False
            return upper is None or key < upper

        merged: dict[bytes, bytes | object] = {}
        for table in self._tables:  # oldest first; later wins
            for key, value in table.items_range(lower, upper):
                merged[key] = value
        for key, value in self._mem.sorted_items():
            if in_range(key):
                merged[key] = value
        for key in sorted(merged):
            value = merged[key]
            if value is not TOMBSTONE:
                yield key, value

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Merge all SSTables into one, dropping tombstones."""
        self._check_open()
        if not self._tables:
            return
        merged: dict[bytes, bytes | object] = {}
        for table in self._tables:
            for key, value in table.items():
                merged[key] = value
        live = (
            (key, merged[key]) for key in sorted(merged) if merged[key] is not TOMBSTONE
        )
        path = self.directory / f"sst-{self._next_table_id:08d}.db"
        self._next_table_id += 1
        new_table = SSTable.write(path, live)
        old_paths = [table.path for table in self._tables]
        self._tables = [new_table]
        self._block_cache.clear()
        for old in old_paths:
            old.unlink(missing_ok=True)
        _COMPACTIONS.inc()

    def snapshot(self, destination: str | Path) -> Path:
        """Write a point-in-time copy of the store to ``destination``.

        Flushes first so the snapshot is fully contained in SSTables (the
        paper stores such snapshots at the cloud backend for reliability).
        """
        self._check_open()
        self.flush()
        dest = Path(destination)
        dest.mkdir(parents=True, exist_ok=True)
        for table in self._tables:
            shutil.copy2(table.path, dest / table.path.name)
        return dest

    @property
    def block_cache(self) -> LRUCache:
        """The shared block cache (exposed for stats in benchmarks)."""
        return self._block_cache

    @property
    def table_count(self) -> int:
        return len(self._tables)

    def close(self) -> None:
        """Flush and release file handles."""
        if self._closed:
            return
        self.flush()
        self._wal.close()
        self._closed = True

    def __enter__(self) -> "LSMStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
