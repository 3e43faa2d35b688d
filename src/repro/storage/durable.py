"""Crash-only file primitives: one redo log and one atomic publish.

Every file a server makes durable goes through one of two idioms
(SNIPPETS' crash-only rules: never ack before the commit; publish by
temp-fsync-rename):

* :class:`RecordLog` — the append-only, CRC-framed redo log under both
  the container journal (:class:`~repro.storage.container.
  ContainerManager`) and the index WAL (:class:`~repro.lsm.wal.
  WriteAheadLog`); each owns only the codec of its payloads.  Record
  format (big-endian): ``u32 crc32 | u32 length | payload``.
* :func:`publish` — backend objects, SSTables, ``tenants.json`` and
  ``cdstore.json``: a reader finds the old file or the new one, never a
  torn one.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib
from pathlib import Path
from typing import BinaryIO, Iterator

from repro.errors import StorageError

__all__ = ["RecordLog", "fsync_dir", "publish"]

_HEADER = struct.Struct(">II")


def fsync_dir(path: str | Path) -> None:
    """Make directory ``path``'s entries (a rename, an unlink) durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextlib.contextmanager
def publish(path: str | Path) -> Iterator[BinaryIO]:
    """Yield a file open on ``<path>.tmp``; on a clean exit flush and
    fsync it, ``os.replace`` it over ``path`` and fsync the directory, so
    the new file survives a power cut.  If anything raises, the temporary
    is removed and ``path`` keeps its old contents.  A crash leaves at
    most the ``.tmp`` file, which the owning store reaps at open."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fsync_dir(path.parent)


class RecordLog:
    """Append-only, CRC-framed redo log with explicit group commit.

    :meth:`append` only stages a record in memory; :meth:`sync` writes
    every staged record with one ``write(2)`` and fsyncs.  Nothing
    reaches the OS before that commit, and a caller acks only what a
    ``sync()`` returned for.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Long-lived handle owned by the log, closed in close().
        # Unbuffered: sync() is the only write, and a failed one must
        # leave no bytes behind in a buffer.
        self._fh = open(self.path, "ab", buffering=0)  # noqa: SIM115
        #: Framed records appended since the last sync, as buffers.
        self._staged: list = []

    @property
    def closed(self) -> bool:
        return self._fh.closed

    def _check_open(self) -> None:
        if self._fh.closed:
            raise StorageError(f"log {self.path.name} is closed")

    def append(self, *parts: bytes) -> None:
        """Stage one record whose payload is ``parts`` joined.  The parts
        are kept, not copied: the caller must not mutate them."""
        self._check_open()
        crc = 0
        for part in parts:
            crc = zlib.crc32(part, crc)
        self._staged.append(_HEADER.pack(crc, sum(map(len, parts))))
        self._staged.extend(parts)

    def sync(self) -> None:
        """Write every staged record and fsync: the one durability point.

        If the write or the fsync fails (ENOSPC, EFBIG, EIO), the file is
        cut back to where the write began and the records stay staged: a
        torn record left in place would end replay before every record
        synced behind it.
        """
        self._check_open()
        if not self._staged:
            return
        fd = self._fh.fileno()
        record = memoryview(b"".join(self._staged))
        start = os.fstat(fd).st_size
        try:
            while record:
                record = record[self._fh.write(record) :]
            os.fsync(fd)
        except BaseException:
            os.ftruncate(fd, start)
            raise
        self._staged.clear()

    def records(self) -> Iterator[tuple[int, bytes]]:
        """``(end offset, payload)`` of every intact record, in order;
        stops at the first torn or corrupt one (the crash signature)."""
        if not self.path.exists():
            return
        with open(self.path, "rb") as fh:
            while len(header := fh.read(_HEADER.size)) == _HEADER.size:
                crc, length = _HEADER.unpack(header)
                payload = fh.read(length)
                if len(payload) < length or zlib.crc32(payload) != crc:
                    return
                yield fh.tell(), payload

    def truncate(self, size: int = 0) -> None:
        """Cut the file to ``size`` bytes, durably, and drop every staged
        record (the caller has made them redundant)."""
        self._check_open()
        self._staged.clear()
        fd = self._fh.fileno()
        if os.fstat(fd).st_size != size:  # a clean reopen has nothing to cut
            os.ftruncate(fd, size)
            os.fsync(fd)

    def close(self) -> None:
        """Release the file; staged records are dropped, as a crash
        would drop them."""
        self._staged.clear()
        self._fh.close()

    def __enter__(self) -> "RecordLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
