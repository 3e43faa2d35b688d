"""DUR-003 fixture: log records that escape before their commit.

Lives in a directory named ``lsm/`` so it falls inside the log-order
checker's scope.  Parsed (never imported) by tests/test_analysis_checkers.py.
"""

import os


class WriteThroughLog:
    def __init__(self, fh):
        self._fh = fh
        self._batch = bytearray()

    def append_put(self, key, value):
        self._fh.write(key + value)  # TRUE-POSITIVE: record written before sync()

    def append_delete(self, key):
        self._batch += key

    def sync(self):
        self._fh.write(bytes(self._batch))
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def reset(self):
        self._fh.truncate(0)
        self._fh.flush()

    def close(self):
        # A best-effort trailer on shutdown: nothing reads it back.
        self._fh.write(b"eof")  # analysis: ignore[DUR-003] -- shutdown marker, never replayed


class FlushInPutStore:
    def __init__(self, wal):
        self._wal = wal
        self._mem = {}

    def put(self, key, value):
        self._wal.append_put(key, value)
        self._mem[key] = value
        self._maybe_flush()  # TRUE-POSITIVE: memtable flush inside a request

    def delete(self, key):
        self._wal.append_delete(key)
        self._mem.pop(key, None)

    def _maybe_flush(self):
        if len(self._mem) > 100:
            self.flush()

    def sync(self):
        self._wal.sync()
        self._maybe_flush()

    def flush(self):
        self._mem.clear()
        self._wal.reset()
