"""Write-ahead log for LSM durability.

Every mutation is appended to an in-memory batch before touching the
memtable; nothing reaches the OS until :meth:`WriteAheadLog.sync`, which
writes the whole batch as **one** CRC-framed record and fsyncs it — one
``write(2)`` and one fsync per group commit, the same "durable only after
commit" contract as :class:`~repro.storage.journal.ContainerJournal`.
Because the index is synced only after the journal commit, an index
record can never reach the disk ahead of the container entry it names.
Replay is all-or-nothing per commit: an interrupted process replays, on
reopen, every batch ``sync()``ed before the crash and none of the
mutations appended since.  A truncated or corrupt tail record — the
normal crash signature — is detected by its CRC and dropped, matching
LevelDB's recovery semantics.

Record format (all big-endian)::

    u32 crc32 | u32 length | payload
    payload := u8 op | ...
      op 3 (batch):  u32 count | (u8 op | u32 keylen | key | u32 valuelen | value) * count
      op 1 (put), op 2 (delete):  u32 keylen | key | value

Only batches are written; single put/delete records (op 1/2) are what
logs written before batching hold, and they still replay.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Iterator

from repro.errors import StorageError

__all__ = ["WriteAheadLog", "OP_PUT", "OP_DELETE", "OP_BATCH"]

OP_PUT = 1
OP_DELETE = 2
OP_BATCH = 3

_HEADER = struct.Struct(">II")
_BATCH_HEAD = struct.Struct(">BI")  # op 3 | count
_MUTATION = struct.Struct(">BI")  # op | keylen
_LENGTH = struct.Struct(">I")


class WriteAheadLog:
    """Append-only redo log: one CRC-framed batch record per ``sync()``."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Long-lived handle owned by the WAL object, closed in close().
        # Unbuffered: sync() is the only write, and a failed one must
        # leave no bytes behind in a buffer.
        self._fh = open(self.path, "ab", buffering=0)  # noqa: SIM115
        #: Mutations appended since the last sync, batch-encoded.
        self._batch = bytearray()
        self._count = 0

    # ------------------------------------------------------------------
    def append_put(self, key: bytes, value: bytes) -> None:
        """Log a put before it is applied to the memtable."""
        self._append(OP_PUT, key, value)

    def append_delete(self, key: bytes) -> None:
        """Log a delete before it is applied to the memtable."""
        self._append(OP_DELETE, key, b"")

    def _append(self, op: int, key: bytes, value: bytes) -> None:
        if self._fh.closed:
            raise StorageError("WAL is closed")
        batch = self._batch
        batch += _MUTATION.pack(op, len(key))
        batch += key
        batch += _LENGTH.pack(len(value))
        batch += value
        self._count += 1

    def sync(self) -> None:
        """Write the pending batch as one record and fsync (group commit).

        The only durability point, and the only place the log reaches the
        OS: a caller acks a batch only after this returns, and one write
        plus one fsync covers the whole batch.  If the write or fsync
        fails (ENOSPC, EIO), the file is cut back to where the record
        began and the batch stays pending: a torn record left in place
        would end replay before any batch synced behind it.
        """
        if self._fh.closed:
            raise StorageError("WAL is closed")
        fd = self._fh.fileno()
        if not self._count:
            os.fsync(fd)
            return
        head = _BATCH_HEAD.pack(OP_BATCH, self._count)
        crc = zlib.crc32(self._batch, zlib.crc32(head))
        record = memoryview(
            _HEADER.pack(crc, len(head) + len(self._batch)) + head + self._batch
        )
        start = os.fstat(fd).st_size
        try:
            while record:
                record = record[self._fh.write(record) :]
            os.fsync(fd)
        except BaseException:
            self._fh.truncate(start)
            self._fh.seek(start)
            raise
        self._batch.clear()
        self._count = 0

    # ------------------------------------------------------------------
    def replay(self) -> Iterator[tuple[int, bytes, bytes]]:
        """Yield ``(op, key, value)`` for every mutation of every intact
        record (a batch yields its mutations in append order).

        Stops silently at the first corrupt/truncated record (crash tail).
        """
        for _, op, key, value in self._scan():
            yield op, key, value

    def recover(self) -> Iterator[tuple[int, bytes, bytes]]:
        """:meth:`replay` for the owning store: once exhausted, the file
        is cut back to its last intact record.

        Records appended behind a torn one would sit past the point where
        replay stops, so they could be ``sync()``ed and still never
        recovered.
        """
        intact = 0
        for intact, op, key, value in self._scan():
            yield op, key, value
        self._fh.truncate(intact)

    def _scan(self) -> Iterator[tuple[int, int, bytes, bytes]]:
        """``(end offset, op, key, value)`` of every intact mutation."""
        if not self.path.exists():
            return
        with open(self.path, "rb") as fh:
            while True:
                header = fh.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    return
                crc, length = _HEADER.unpack(header)
                payload = fh.read(length)
                if len(payload) < length or zlib.crc32(payload) != crc:
                    return  # torn tail: discard the rest
                mutations = _decode(payload)
                if mutations is None:
                    return  # CRC-valid but malformed: treat as the tail
                end = fh.tell()
                for op, key, value in mutations:
                    yield end, op, key, value

    def reset(self) -> None:
        """Truncate the log (called after a successful memtable flush,
        which holds every pending mutation, so the batch goes too)."""
        self._batch.clear()
        self._count = 0
        self._fh.close()
        self._fh = open(self.path, "wb", buffering=0)  # noqa: SIM115 -- long-lived, closed in close()

    def close(self) -> None:
        """Release the file; unsynced appends are dropped, as a crash
        would drop them."""
        self._batch.clear()
        self._count = 0
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _decode(payload: bytes) -> list[tuple[int, bytes, bytes]] | None:
    """The mutations of one CRC-checked record, or None if malformed.

    A batch is decoded whole before any mutation is yielded, so replay
    applies all of a commit or none of it.
    """
    try:
        op = payload[0]
        if op in (OP_PUT, OP_DELETE):
            (keylen,) = _LENGTH.unpack_from(payload, 1)
            return [(op, payload[5 : 5 + keylen], payload[5 + keylen :])]
        if op != OP_BATCH:
            return None
        _, count = _BATCH_HEAD.unpack_from(payload, 0)
        pos = _BATCH_HEAD.size
        out = []
        for _ in range(count):
            op, keylen = _MUTATION.unpack_from(payload, pos)
            pos += _MUTATION.size
            key = payload[pos : pos + keylen]
            pos += keylen
            (valuelen,) = _LENGTH.unpack_from(payload, pos)
            pos += _LENGTH.size
            value = payload[pos : pos + valuelen]
            pos += valuelen
            if op not in (OP_PUT, OP_DELETE) or len(key) != keylen or len(value) != valuelen:
                return None
            out.append((op, key, value))
    except (IndexError, struct.error):
        return None
    return out if pos == len(payload) else None
