"""The blocked two-level pair-gather scan under both CDC chunkers.

Rabin and gear hashes are both GF(2)-linear in the window bytes,
``H(window) = XOR_j T_j[b_j]``, and a boundary is decided by a few low
bits of ``H``.  AND distributes over XOR — ``H & m = XOR_j (T_j[b_j] & m)``
— so the tables can be masked *before* the gather, and the scan (FastCDC,
Xia et al., USENIX ATC'16) runs in two levels:

1. **dense prescreen** — the masked low byte of ``H`` at every position,
   XOR-accumulated from pre-masked ``uint8`` byte-pair tables (64 KB each:
   two adjacent window offsets share one 16-bit-indexed gather, and pairs
   that cannot reach the low byte are dropped).  The byte-pair index
   ``b[i] << 8 | b[i+1]`` is built once per segment and sliced per offset.
2. **sparse confirm** — only positions whose low byte matches (~1/256)
   gather the full-width per-offset tables; the caller tests its own masks.

A candidate at position ``p`` depends only on bytes ``[p - window, p)``,
so window positions split into independent **segments** (windows
straddling an edge re-read ``window - 1`` bytes) of at most :data:`BLOCK`
positions: no temporary scales with the input, and unblocked the same
passes run ~1.5x slower.  Every numpy call of a segment releases the GIL,
so segments run on every CPU this process may use (:data:`_WIDTH`, read
from the affinity mask once): the calling thread scans one segment while
up to ``width - 1`` helpers from one lazily created, process-wide thread
pool scan the next ones, and results are yielded in input order.  Segments
are ``ceil(positions / width)`` long, floored at :data:`_FLOOR` and capped
at ``BLOCK``, so a 300 KB file still splits in two and one of 64 KiB stays
on the caller.  Width 1, or a single segment, runs the same segment
function inline.  Each segment allocates its own prescreen scratch (index,
accumulator, term: ~2.5 MiB at ``BLOCK``), so peak memory scales with the
width, never with the file.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Iterator

import numpy as np

__all__ = ["BLOCK", "PairScan"]

#: Window positions per segment at most.  Quiet speed is flat from 64 Ki to
#: 512 Ki, but a segment is ~60 GIL-releasing numpy calls and each can wait a
#: 5 ms switch interval beside a busy thread: the largest whose scratch is
#: under 4 MiB.
BLOCK = 1 << 18

#: Fewest window positions worth handing to another thread.
_FLOOR = 1 << 16

#: Survivors confirmed per gather (bounds the temporaries when every position survives).
_CONFIRM = 1 << 11


def _cpu_width() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


#: Segments in flight at once: the CPUs this process may run on.
_WIDTH = _cpu_width()

_pool: tuple[int, ThreadPoolExecutor] | None = None
_pool_lock = threading.Lock()


def _helpers() -> ThreadPoolExecutor:
    """The process-wide pool of ``_WIDTH - 1`` helper threads."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != _WIDTH:
            # A replaced pool's idle threads exit once it is collected.
            _pool = (_WIDTH, ThreadPoolExecutor(_WIDTH - 1, thread_name_prefix="repro-scan"))
        return _pool[1]


def _forget_pool() -> None:
    """In a forked child: the parent's helper threads do not exist here."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _segment_length(count: int) -> int:
    return min(BLOCK, max(_FLOOR, -(-count // _WIDTH)))


class PairScan:
    """One table set: ``tables[j][v]`` is byte ``v``'s term at window
    offset ``j`` (shape ``(window, 256)``, any unsigned dtype); the
    prescreen keeps positions where ``H & mask & 0xFF == value & 0xFF``."""

    def __init__(self, tables: np.ndarray, mask: int, value: int) -> None:
        self.tables = tables
        self.window = window = tables.shape[0]
        self._want = np.uint8(value & mask & 0xFF)
        self._offsets = np.arange(window)
        low = (tables & tables.dtype.type(mask & 0xFF)).astype(np.uint8)
        pairs = [(j, low[j], low[j + 1]) for j in range(0, window - 1, 2)]
        if window % 2:  # unpaired last offset: low half of a pair at window-2
            pairs.append((window - 2, np.zeros(256, dtype=np.uint8), low[-1]))
        self._dense = tuple(
            (j, (first[:, None] ^ second[None, :]).ravel())
            for j, first, second in pairs
            if first.any() or second.any()
        )

    def segments(self, size: int) -> int:
        """How many segments the scan of a ``size``-byte input runs in."""
        count = size - self.window + 1
        return -(-count // _segment_length(count)) if count > 0 else 0

    def candidates(self, data: bytes) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(cuts, hashes)`` for the prescreen survivors of ``data``.

        ``cuts[i]`` is the exclusive end of a surviving window (a boundary
        there falls after byte ``cuts[i] - 1``), ascending across yields;
        ``hashes[i]`` is that window's full ``H`` in the tables' dtype.
        Closing the generator early cancels segments not yet started and
        waits for running ones; a segment's exception re-raises here.
        """
        buf = np.frombuffer(data, dtype=np.uint8)
        count = buf.size - self.window + 1
        if count <= 0:
            return
        step = _segment_length(count)
        segments = [(base, min(step, count - base)) for base in range(0, count, step)]
        width = min(_WIDTH, len(segments))
        if width == 1:
            for base, rows in segments:
                yield from self._segment(buf, base, rows)
            return
        pool = _helpers()

        def scan(segment: tuple[int, int]) -> list[tuple[np.ndarray, np.ndarray]]:
            return list(self._segment(buf, *segment))

        # Each round the caller scans its first segment while helpers scan
        # the rest; the next round is submitted before this one is yielded.
        rounds = [segments[at : at + width] for at in range(0, len(segments), width)]
        ahead: list[Future] = [pool.submit(scan, segment) for segment in rounds[0][1:]]
        try:
            for at, (own, *_) in enumerate(rounds):
                yield from self._segment(buf, *own)
                done = [future.result() for future in ahead]
                following = rounds[at + 1][1:] if at + 1 < len(rounds) else []
                ahead = [pool.submit(scan, segment) for segment in following]
                for found in done:
                    yield from found
        finally:
            for future in ahead:
                future.cancel()
            wait(ahead)

    def _segment(
        self, buf: np.ndarray, base: int, rows: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Survivors among window positions ``[base, base + rows)``."""
        window = self.window
        block = buf[base : base + rows + window - 1]
        idx = np.empty(rows + window - 2, dtype=np.intp)
        low, tmp = np.zeros(rows, dtype=np.uint8), np.empty(rows, dtype=np.uint8)
        np.left_shift(block[:-1], 8, out=idx, dtype=np.intp)
        np.bitwise_or(idx, block[1:], out=idx)
        for j, table in self._dense:
            # mode="wrap": indices are in range; "raise" buffers `out`.
            np.take(table, idx[j : j + rows], out=tmp, mode="wrap")
            np.bitwise_xor(low, tmp, out=low)
        survivors = np.flatnonzero(low == self._want)
        offsets = self._offsets
        for lo in range(0, survivors.size, _CONFIRM):
            pos = survivors[lo : lo + _CONFIRM]
            terms = self.tables[offsets, block[pos[:, None] + offsets]]
            yield pos + (base + window), np.bitwise_xor.reduce(terms, axis=1)
