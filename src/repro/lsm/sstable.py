"""Immutable sorted-string-table (SSTable) files.

An SSTable holds a sorted run of key-value records flushed from the
memtable, with three auxiliary structures that make lookups cheap:

* a **sparse block index** (first key of every block) loaded in memory
  and binary-searched with :mod:`bisect`;
* fixed-size **data blocks** fetched on demand.  A point read decodes
  its block once into a :class:`DecodedBlock` dict, which the store's
  LRU block cache keeps and charges at its Python footprint, so a
  cached get is one dict lookup;
* a **bloom filter** over all keys, consulted only when the key's block
  is not cached: it spares a miss the block read, never a cached get.

File layout::

    [block 0][block 1]...[block m-1][index][bloom][footer]
    footer = >QQQQ  index_off, index_len, bloom_off, bloom_len  + magic

Blocks are sequences of ``u32 keylen | u32 vallen | key | value`` records,
where ``vallen == 0xFFFFFFFF`` marks a tombstone.  Format v1 carries no
block checksum, so a reader checks what the layout itself pins down —
the footer's spans tile the file, the index's blocks tile the data
region with ascending first keys, and a block's records exactly fill it
with strictly ascending keys, starting at the index's first key and
staying below the next block's — and fails with :class:`StorageError`
otherwise.  A flipped value byte stays undetectable.
"""

from __future__ import annotations

import struct
import sys
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import BinaryIO, Iterator

from repro.errors import ParameterError, StorageError
from repro.lsm.bloom import BloomFilter
from repro.lsm.memtable import TOMBSTONE
from repro.obs.registry import REGISTRY
from repro.storage.durable import publish

__all__ = ["DecodedBlock", "SSTable"]

_MAGIC = b"CDSSTBL1"
_FOOTER = struct.Struct(">QQQQ8s")
_INDEX_ENTRY = struct.Struct(">IQQ")
_REC = struct.Struct(">II")
_TOMBSTONE_LEN = 0xFFFFFFFF

DEFAULT_BLOCK_SIZE = 4096

_BLOCK_READS = REGISTRY.counter(
    "lsm_block_reads_total",
    "SSTable data blocks read from disk and decoded for a point read",
)


class DecodedBlock(dict):
    """One data block decoded for point reads: key → value or TOMBSTONE.

    ``charge`` is the block's Python footprint (dict plus key and value
    objects), computed once at decode time; the store's block cache
    counts it, so its byte bound means bytes of memory.
    """

    __slots__ = ("charge",)


class SSTable:
    """Reader handle over one SSTable file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._cache_tag = str(self.path)
        try:
            with open(self.path, "rb") as fh:
                size = fh.seek(0, 2)
                if size < _FOOTER.size:
                    raise StorageError(f"SSTable {self.path} truncated")
                fh.seek(size - _FOOTER.size)
                idx_off, idx_len, bloom_off, bloom_len, magic = _FOOTER.unpack(
                    fh.read(_FOOTER.size)
                )
                if magic != _MAGIC:
                    raise StorageError(f"SSTable {self.path}: bad magic")
                if (
                    idx_off + idx_len != bloom_off
                    or bloom_off + bloom_len != size - _FOOTER.size
                ):
                    raise StorageError(f"SSTable {self.path}: footer spans do not tile the file")
                fh.seek(idx_off)
                index_blob = fh.read(idx_len)
                bloom_blob = fh.read(bloom_len)
        except OSError as exc:
            raise StorageError(f"cannot open SSTable {self.path}: {exc}") from exc
        try:
            self.bloom = BloomFilter.from_bytes(bloom_blob)
            # Sparse index: list of (first_key, offset, length) per block.
            self._index = self._parse_index(index_blob, idx_off)
        except (ParameterError, struct.error) as exc:
            raise StorageError(f"SSTable {self.path}: {exc}") from exc
        self._first_keys = [first_key for first_key, _, _ in self._index]

    def _parse_index(self, blob: bytes, data_end: int) -> list[tuple[bytes, int, int]]:
        """Decode the sparse index, checking that its blocks tile
        ``[0, data_end)`` in order with strictly ascending first keys."""
        index: list[tuple[bytes, int, int]] = []
        pos = expect = 0
        while pos < len(blob):
            keylen, off, length = _INDEX_ENTRY.unpack_from(blob, pos)
            pos += _INDEX_ENTRY.size
            first_key = blob[pos : pos + keylen]
            pos += keylen
            if (
                pos > len(blob)
                or off != expect
                or length == 0
                or (index and first_key <= index[-1][0])
            ):
                raise StorageError(f"SSTable {self.path}: sparse index entry {len(index)} is corrupt")
            index.append((first_key, off, length))
            expect = off + length
        if expect != data_end:
            raise StorageError(f"SSTable {self.path}: sparse index does not end at the index")
        return index

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

        Published by :func:`~repro.storage.durable.publish` (temp-write,
        fsync, rename, fsync the directory): the table is either absent
        or whole under its final name, and on return it survives a power
        cut — callers may drop the data's other copy (the WAL, the
        merged tables).  A crash leaves at most a
        ``<name>.tmp`` that :class:`~repro.lsm.db.LSMStore` reaps at open.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        materialised = list(items)
        bloom = BloomFilter(max(1, len(materialised)), fp_rate)
        index_parts: list[bytes] = []
        with publish(path) as fh:
            block = bytearray()
            block_first: bytes | None = None

            def flush_block() -> None:
                nonlocal block, block_first
                if not block:
                    return
                off = fh.tell()
                fh.write(block)
                index_parts.append(
                    _INDEX_ENTRY.pack(len(block_first), off, len(block)) + block_first
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
        return cls(path)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _read(self, fh: BinaryIO, offset: int, length: int) -> bytes:
        fh.seek(offset)
        blob = fh.read(length)
        if len(blob) != length:
            raise StorageError(f"SSTable {self.path}: block at {offset} truncated")
        return blob

    def read_block(self, offset: int, length: int) -> bytes:
        """Read one raw data block (block-cache fill path)."""
        with open(self.path, "rb") as fh:
            return self._read(fh, offset, length)

    def _corrupt(self, block: int, why: str) -> StorageError:
        return StorageError(f"SSTable {self.path}: block {block} is corrupt ({why})")

    def scan_block(self, block: int, blob: bytes) -> Iterator[tuple[bytes, bytes | object]]:
        """Iterate the records of data block number ``block``, read raw as
        ``blob``, checking the framing the format pins down as it goes."""
        first_keys = self._first_keys
        end = len(blob)
        pos = 0
        prev: bytes | None = None
        while pos < end:
            if pos + _REC.size > end:
                raise self._corrupt(block, "truncated record header")
            keylen, vallen = _REC.unpack_from(blob, pos)
            pos += _REC.size
            key = blob[pos : pos + keylen]
            pos += keylen
            if vallen == _TOMBSTONE_LEN:
                value = TOMBSTONE
            else:
                value = blob[pos : pos + vallen]
                pos += vallen
            if pos > end:
                raise self._corrupt(block, "a record overruns the block")
            if prev is None:
                if key != first_keys[block]:
                    raise self._corrupt(block, "first key differs from the sparse index")
            elif key <= prev:
                raise self._corrupt(block, "keys do not ascend")
            prev = key
            yield key, value
        if prev is None:
            raise self._corrupt(block, "no records")
        if block + 1 < len(first_keys) and prev >= first_keys[block + 1]:
            raise self._corrupt(block, "last key reaches into the next block")

    def _decode(self, block: int) -> DecodedBlock:
        """Read data block ``block`` and decode it for point reads."""
        _, off, length = self._index[block]
        records = DecodedBlock(self.scan_block(block, self.read_block(off, length)))
        records.charge = sys.getsizeof(records) + sum(
            sys.getsizeof(key) + (0 if value is TOMBSTONE else sys.getsizeof(value))
            for key, value in records.items()
        )
        _BLOCK_READS.inc()
        return records

    def get(self, key: bytes, block_cache=None):
        """Value bytes, TOMBSTONE, or None.

        ``block_cache`` is an optional mapping-like cache keyed by
        ``(path, block number)`` that holds decoded blocks, so a hot
        block is read and decoded once.  A cached block answers
        directly, present or absent; the bloom filter guards only the
        read of an uncached block, so a probe (one SHA-256 plus a few bit
        tests) is never paid where a dict lookup already decides.
        """
        block = bisect_right(self._first_keys, key) - 1
        if block < 0:
            return None
        cache_key = (self._cache_tag, block)
        records = block_cache.get(cache_key) if block_cache is not None else None
        if records is None:
            if key not in self.bloom:
                return None
            records = self._decode(block)
            if block_cache is not None:
                block_cache.put(cache_key, records)
        return records.get(key)

    def items(self) -> Iterator[tuple[bytes, bytes | object]]:
        """Iterate every record in key order (compaction/scan path)."""
        return self.items_range()

    def items_range(
        self, lower: bytes | None = None, upper: bytes | None = None
    ) -> Iterator[tuple[bytes, bytes | object]]:
        """Iterate records with ``lower <= key < upper``, in key order.

        Uses the sparse block index to skip whole blocks outside the
        range, so a prefix scan reads only the blocks that can hold it,
        through one open file.
        """
        first_keys = self._first_keys
        start = 0 if lower is None else max(0, bisect_right(first_keys, lower) - 1)
        stop = len(first_keys) if upper is None else bisect_left(first_keys, upper)
        if start >= stop:
            return
        with open(self.path, "rb") as fh:
            for block in range(start, stop):
                _, off, length = self._index[block]
                for key, value in self.scan_block(block, self._read(fh, off, length)):
                    if lower is not None and key < lower:
                        continue
                    if upper is not None and key >= upper:
                        return
                    yield key, value
