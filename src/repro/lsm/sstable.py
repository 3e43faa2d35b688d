"""Immutable sorted-string-table (SSTable) files.

An SSTable holds a sorted run of key-value records flushed from the
memtable, with three auxiliary structures that make lookups cheap:

* a **bloom filter** over all keys (skip the file entirely on miss);
* a **sparse block index** (first key of every block) loaded in memory;
* fixed-size **data blocks** fetched on demand, cacheable by the store's
  LRU block cache.

File layout::

    [block 0][block 1]...[block m-1][index][bloom][footer]
    footer = >QQQQ  index_off, index_len, bloom_off, bloom_len  + magic

Blocks are sequences of ``u32 keylen | u32 vallen | key | value`` records,
where ``vallen == 0xFFFFFFFF`` marks a tombstone.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Iterator

from repro.errors import StorageError
from repro.lsm.bloom import BloomFilter
from repro.lsm.memtable import TOMBSTONE

__all__ = ["SSTable"]

_MAGIC = b"CDSSTBL1"
_FOOTER = struct.Struct(">QQQQ8s")
_REC = struct.Struct(">II")
_TOMBSTONE_LEN = 0xFFFFFFFF

DEFAULT_BLOCK_SIZE = 4096


class SSTable:
    """Reader handle over one SSTable file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        try:
            with open(self.path, "rb") as fh:
                fh.seek(0, 2)
                size = fh.tell()
                if size < _FOOTER.size:
                    raise StorageError(f"SSTable {self.path} truncated")
                fh.seek(size - _FOOTER.size)
                idx_off, idx_len, bloom_off, bloom_len, magic = _FOOTER.unpack(
                    fh.read(_FOOTER.size)
                )
                if magic != _MAGIC:
                    raise StorageError(f"SSTable {self.path}: bad magic")
                fh.seek(idx_off)
                index_blob = fh.read(idx_len)
                fh.seek(bloom_off)
                self.bloom = BloomFilter.from_bytes(fh.read(bloom_len))
        except OSError as exc:
            raise StorageError(f"cannot open SSTable {self.path}: {exc}") from exc
        # Sparse index: list of (first_key, offset, length) per block.
        self._index: list[tuple[bytes, int, int]] = []
        pos = 0
        while pos < len(index_blob):
            keylen, off, length = struct.unpack_from(">IQQ", index_blob, pos)
            pos += 20
            first_key = index_blob[pos : pos + keylen]
            pos += keylen
            self._index.append((first_key, off, length))

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    @classmethod
    def write(
        cls,
        path: str | Path,
        items: Iterator[tuple[bytes, bytes | object]],
        block_size: int = DEFAULT_BLOCK_SIZE,
        fp_rate: float = 0.01,
    ) -> "SSTable":
        """Write sorted ``(key, value-or-TOMBSTONE)`` items to a new file.

        Temp-write, fsync, rename, fsync the directory: the table is
        either absent or whole under its final name, and on return it
        survives a power cut — callers may drop the data's other copy
        (the WAL, the merged tables).  A crash leaves at most a
        ``<name>.tmp`` that :class:`~repro.lsm.db.LSMStore` reaps at open.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        materialised = list(items)
        bloom = BloomFilter(max(1, len(materialised)), fp_rate)
        index_parts: list[bytes] = []
        with open(tmp, "wb") as fh:
            block = bytearray()
            block_first: bytes | None = None

            def flush_block() -> None:
                nonlocal block, block_first
                if not block:
                    return
                off = fh.tell()
                fh.write(block)
                index_parts.append(
                    struct.pack(">IQQ", len(block_first), off, len(block))
                    + block_first
                )
                block = bytearray()
                block_first = None

            for key, value in materialised:
                bloom.add(key)
                if block_first is None:
                    block_first = key
                if value is TOMBSTONE:
                    block += _REC.pack(len(key), _TOMBSTONE_LEN) + key
                else:
                    block += _REC.pack(len(key), len(value)) + key + value
                if len(block) >= block_size:
                    flush_block()
            flush_block()
            idx_off = fh.tell()
            index_blob = b"".join(index_parts)
            fh.write(index_blob)
            bloom_off = fh.tell()
            bloom_blob = bloom.to_bytes()
            fh.write(bloom_blob)
            fh.write(
                _FOOTER.pack(idx_off, len(index_blob), bloom_off, len(bloom_blob), _MAGIC)
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        # The rename lives in the directory entry; fsync that too.
        fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        return cls(path)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _find_block(self, key: bytes) -> tuple[int, int] | None:
        """Binary-search the sparse index for the block that may hold key."""
        lo, hi = 0, len(self._index) - 1
        if hi < 0 or key < self._index[0][0]:
            return None
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._index[mid][0] <= key:
                lo = mid
            else:
                hi = mid - 1
        _, off, length = self._index[lo]
        return off, length

    def read_block(self, offset: int, length: int) -> bytes:
        """Read one raw data block (block-cache fill path)."""
        with open(self.path, "rb") as fh:
            fh.seek(offset)
            return fh.read(length)

    @staticmethod
    def scan_block(blob: bytes) -> Iterator[tuple[bytes, bytes | object]]:
        """Iterate the records of a raw block."""
        pos = 0
        while pos < len(blob):
            keylen, vallen = _REC.unpack_from(blob, pos)
            pos += _REC.size
            key = blob[pos : pos + keylen]
            pos += keylen
            if vallen == _TOMBSTONE_LEN:
                yield key, TOMBSTONE
            else:
                yield key, blob[pos : pos + vallen]
                pos += vallen

    def get(self, key: bytes, block_cache=None):
        """Value bytes, TOMBSTONE, or None.

        ``block_cache`` is an optional mapping-like cache keyed by
        ``(path, offset)`` used to avoid re-reading hot blocks.
        """
        if key not in self.bloom:
            return None
        loc = self._find_block(key)
        if loc is None:
            return None
        cache_key = (str(self.path), loc[0])
        blob = block_cache.get(cache_key) if block_cache is not None else None
        if blob is None:
            blob = self.read_block(*loc)
            if block_cache is not None:
                block_cache.put(cache_key, blob)
        for rec_key, value in self.scan_block(blob):
            if rec_key == key:
                return value
            if rec_key > key:
                return None
        return None

    def items(self) -> Iterator[tuple[bytes, bytes | object]]:
        """Iterate every record in key order (compaction/scan path)."""
        return self.items_range()

    def items_range(
        self, lower: bytes | None = None, upper: bytes | None = None
    ) -> Iterator[tuple[bytes, bytes | object]]:
        """Iterate records with ``lower <= key < upper``, in key order.

        Uses the sparse block index to skip whole blocks outside the
        range, so a prefix scan reads only the blocks that can hold it.
        """
        for i, (first_key, off, length) in enumerate(self._index):
            if upper is not None and first_key >= upper:
                break  # blocks are sorted; nothing further can match
            if (
                lower is not None
                and i + 1 < len(self._index)
                and self._index[i + 1][0] <= lower
            ):
                continue  # block ends before the range starts
            for key, value in self.scan_block(self.read_block(off, length)):
                if lower is not None and key < lower:
                    continue
                if upper is not None and key >= upper:
                    return
                yield key, value
