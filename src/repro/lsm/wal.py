"""Write-ahead log for LSM durability.

Every mutation is appended (length-prefixed, CRC-protected) before touching
the memtable.  Each append is handed to the OS; :meth:`WriteAheadLog.sync`
is the durability point — one fsync per group commit, the same "durable
only after commit" contract as
:class:`~repro.storage.journal.ContainerJournal`.  An interrupted process
replays, on reopen, everything ``sync()``ed before the crash; records
appended since the last ``sync()`` were never acknowledged and may be
lost.  A truncated or corrupt tail record — the normal crash signature —
is detected by its CRC and dropped, matching LevelDB's recovery semantics.

Record format (all big-endian)::

    u32 crc32 | u32 length | payload
    payload := u8 op | u32 keylen | key | value   (op: 1=put, 2=delete)
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Iterator

from repro.errors import StorageError

__all__ = ["WriteAheadLog", "OP_PUT", "OP_DELETE"]

OP_PUT = 1
OP_DELETE = 2

_HEADER = struct.Struct(">II")


class WriteAheadLog:
    """Append-only redo log with CRC-framed records."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Long-lived handle owned by the WAL object, closed in close().
        self._fh = open(self.path, "ab")  # noqa: SIM115

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
        payload = struct.pack(">BI", op, len(key)) + key + value
        record = _HEADER.pack(zlib.crc32(payload), len(payload)) + payload
        self._fh.write(record)
        self._fh.flush()

    def sync(self) -> None:
        """Force every appended record to stable storage (group commit).

        The only durability point: a caller acks a batch only after this
        returns, and one fsync covers the whole batch.
        """
        if self._fh.closed:
            raise StorageError("WAL is closed")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    # ------------------------------------------------------------------
    def replay(self) -> Iterator[tuple[int, bytes, bytes]]:
        """Yield ``(op, key, value)`` for every intact record.

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
        """``(end offset, op, key, value)`` of every intact record."""
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
                op, keylen = struct.unpack(">BI", payload[:5])
                key = payload[5 : 5 + keylen]
                value = payload[5 + keylen :]
                yield fh.tell(), op, key, value

    def reset(self) -> None:
        """Truncate the log (called after a successful memtable flush)."""
        self._fh.close()
        self._fh = open(self.path, "wb")  # noqa: SIM115 -- long-lived, closed in close()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
