"""Write-ahead log for LSM durability.

Every mutation is appended to an in-memory batch before touching the
memtable; :meth:`WriteAheadLog.sync` hands the batch to a
:class:`~repro.storage.durable.RecordLog` as **one** record and syncs it
(one ``write(2)`` + one fsync per group commit — the container journal's
log and contract).  The index syncs only after the journal commit, so an
index record never reaches the disk ahead of the container entry it
names.  Replay is all-or-nothing per commit, and a torn or corrupt tail
record is dropped, matching LevelDB's recovery semantics.

Record payload format (big-endian)::

    payload := u8 op | ...
      op 3 (batch):  u32 count | (u8 op | u32 keylen | key | u32 valuelen | value) * count
      op 1 (put), op 2 (delete):  u32 keylen | key | value

Only batches are written; single put/delete records (op 1/2) are what
logs written before batching hold, and they still replay.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterator

from repro.errors import StorageError
from repro.storage.durable import RecordLog

__all__ = ["WriteAheadLog", "OP_PUT", "OP_DELETE", "OP_BATCH"]

OP_PUT = 1
OP_DELETE = 2
OP_BATCH = 3

_BATCH_HEAD = struct.Struct(">BI")  # op 3 | count
_MUTATION = struct.Struct(">BI")  # op | keylen
_LENGTH = struct.Struct(">I")


class WriteAheadLog:
    """Append-only redo log: one batch record per ``sync()``."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._log = RecordLog(self.path)
        #: Mutations appended since the last sync, batch-encoded.
        self._batch, self._count = bytearray(), 0

    # ------------------------------------------------------------------
    def append_put(self, key: bytes, value: bytes) -> None:
        """Log a put before it is applied to the memtable."""
        self._append(OP_PUT, key, value)

    def append_delete(self, key: bytes) -> None:
        """Log a delete before it is applied to the memtable."""
        self._append(OP_DELETE, key, b"")

    def _append(self, op: int, key: bytes, value: bytes) -> None:
        if self._log.closed:
            raise StorageError("WAL is closed")
        batch = self._batch
        batch += _MUTATION.pack(op, len(key))
        batch += key
        batch += _LENGTH.pack(len(value))
        batch += value
        self._count += 1

    def sync(self) -> None:
        """Log the pending batch as one record and sync (group commit).

        The only durability point: a caller acks a batch only after this
        returns.  A batch whose write fails stays staged in the log, as
        its own record, and is written by the next ``sync()``.
        """
        if self._count:
            self._log.append(_BATCH_HEAD.pack(OP_BATCH, self._count), self._batch)
            self._batch, self._count = bytearray(), 0
        self._log.sync()

    # ------------------------------------------------------------------
    def replay(self) -> Iterator[tuple[int, bytes, bytes]]:
        """Yield ``(op, key, value)`` for every mutation of every intact
        record (a batch yields its mutations in append order).

        Stops silently at the first corrupt/truncated record (crash tail).
        """
        for _, mutations in self._scan():
            yield from mutations

    def recover(self) -> Iterator[tuple[int, bytes, bytes]]:
        """:meth:`replay` for the owning store: once exhausted, the file
        is cut back to its last intact record.

        Records appended behind a torn one would sit past the point where
        replay stops, so they could be ``sync()``ed and still never
        recovered.
        """
        intact = 0
        for intact, mutations in self._scan():
            yield from mutations
        self._log.truncate(intact)

    def _scan(self) -> Iterator[tuple[int, list[tuple[int, bytes, bytes]]]]:
        """``(end offset, mutations)`` of every intact record."""
        for end, payload in self._log.records():
            mutations = _decode(payload)
            if mutations is None:
                return  # CRC-valid but malformed: treat as the tail
            yield end, mutations

    def reset(self) -> None:
        """Truncate the log (called after a successful memtable flush,
        which holds every pending mutation, so the batch goes too)."""
        self._batch, self._count = bytearray(), 0
        self._log.truncate(0)

    def close(self) -> None:
        """Release the file; unsynced appends are dropped, as a crash
        would drop them."""
        self._batch, self._count = bytearray(), 0
        self._log.close()

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
