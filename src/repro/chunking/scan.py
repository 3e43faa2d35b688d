"""The packed-lane pair-gather scan under both CDC chunkers.

Rabin and gear hashes are both GF(2)-linear in the window bytes,
``H(window) = XOR_j T_j[b_j]``, and a boundary is decided by a few low
bits of ``H``.  AND distributes over XOR — ``H & m = XOR_j (T_j[b_j] & m)``
— so the tables can be masked *before* the gather, and the scan (FastCDC,
Xia et al., USENIX ATC'16) runs in two levels:

1. **dense prescreen** — the masked low byte of ``H`` at every position.
   Two adjacent window offsets share one 16-bit-indexed gather (the
   byte-pair index ``b[i] << 8 | b[i+1]``), and pair ``m`` of a group of
   ``L`` (1, 2, 4 or 8, per table set) sits in lane ``m`` — value bits
   ``8m .. 8m + 7`` — of one ``uint{8L}`` table, so one gather returns
   ``L`` pairs' terms.  The groups' gathers XOR into one word per
   position; lane ``m`` of word ``p + 2m`` is pair ``m``'s term for the
   window at ``p``, and ``log2 L`` shift-XOR folds (``>> 8`` from ``+2``,
   ``>> 16`` from ``+4``, ``>> 32`` from ``+8``) bring every lane into
   lane 0.  XOR has no carries, so the folded byte is exact.  Rabin's 48
   offsets are three 8-lane gathers, gear's 8 live ones one 4-lane gather.
   The prescreen runs over cache-sized sub-blocks of :data:`_SUB`
   positions.
2. **sparse confirm** — only positions whose low byte matches (~1/256)
   gather the full-width per-offset tables; the caller tests its own masks.

A candidate at position ``p`` depends only on bytes ``[p - window, p)``,
so window positions split into independent **segments** (windows
straddling an edge re-read ``window - 1`` bytes) of at most :data:`BLOCK`
positions: no temporary scales with the input.  Every numpy call of a
segment releases the GIL, so segments run on every CPU this process may
use (:data:`_WIDTH`, read from the affinity mask once): the calling thread
scans one segment while up to ``width - 1`` helpers from one lazily
created, process-wide thread pool scan the next ones, and results are
yielded in input order.  Segments are ``ceil(positions / width)`` long,
floored at :data:`_FLOOR` and capped at ``BLOCK``, so a 300 KB file still
splits in two and one of 64 KiB stays on the caller.  Width 1, or a single
segment, runs the same segment function inline.  Each segment allocates
its own scratch (pair index and lane words of one sub-block, the low byte
of every position: ~2 MiB at ``BLOCK``), so peak memory scales with the
width, never with the file.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Iterator

import numpy as np

__all__ = ["BLOCK", "PairScan"]

#: Window positions per segment at most.  A segment is ~60 GIL-releasing
#: numpy calls (13 per Rabin sub-block) and each can wait a 5 ms switch
#: interval beside a busy thread, so segments stay large.
BLOCK = 1 << 18

#: Fewest window positions worth handing to another thread.
_FLOOR = 1 << 16

#: Window positions per prescreen sub-block: its pair index and lane words
#: (~1.5 MiB at 8 lanes) stay in cache.  64 Ki measured fastest.
_SUB = 1 << 16

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


def _plan(live: list[int], slots: int) -> tuple[int, list[tuple[int, list[int]]]]:
    """Pack the ``live`` pairs among ``slots`` into lane groups.

    Pair ``s`` is window offsets ``2s, 2s + 1``.  Returns ``(lanes,
    groups)``: each group ``(base, owned)`` holds pair ``base + m`` in lane
    ``m`` for the pairs it owns.  Groups are laid from the last live pair
    backwards and no wider than the window, so the prescreen reads no byte
    past it (but an odd window's pad byte).  The lane count (1, 2, 4 or 8)
    is the one with the fewest groups — a gather is the costly pass, a fold
    two streaming ones — the narrower on a tie.
    """
    plans = []
    for lanes in (1, 2, 4, 8)[: slots.bit_length()]:
        groups, rest = [], live
        while rest:
            base = max(0, rest[-1] - lanes + 1)
            groups.append((base, [s for s in rest if s >= base]))
            rest = [s for s in rest if s < base]
        plans.append((len(groups), lanes, groups))
    _, lanes, groups = min(plans, key=lambda plan: plan[:2])
    return lanes, groups


class PairScan:
    """One table set: ``tables[j][v]`` is byte ``v``'s term at window
    offset ``j`` (shape ``(window, 256)``, any unsigned dtype); the
    prescreen keeps positions where ``H & mask & 0xFF == value & 0xFF``."""

    def __init__(self, tables: np.ndarray, mask: int, value: int) -> None:
        # Read-only: one kernel serves every chunker of its parameter set.
        self.tables = tables.view()
        self.tables.flags.writeable = False
        self.window = window = tables.shape[0]
        self._want = np.uint8(value & mask & 0xFF)
        self._offsets = np.arange(window)
        low = (tables & tables.dtype.type(mask & 0xFF)).astype(np.uint8)
        if window % 2:  # the last pair's second byte lies past the window: no term
            low = np.vstack([low, np.zeros(256, dtype=np.uint8)])
        live = [s for s in range(len(low) // 2) if low[2 * s : 2 * s + 2].any()] or [0]
        self._lanes, groups = _plan(live, len(low) // 2)
        dtype = np.dtype(f"uint{8 * self._lanes}")
        #: ``(offset, table)``: lane ``m`` of ``table`` (value bits
        #: ``8m .. 8m + 7``) is the term of the pair at ``offset + 2m``,
        #: indexed by the pair's bytes ``b << 8 | c``.
        self.lane_tables = []
        for base, owned in groups:
            table = np.zeros(1 << 16, dtype=dtype)
            for s in owned:
                pair = (low[2 * s, :, None] ^ low[2 * s + 1, None, :]).reshape(-1)
                table |= pair.astype(dtype) << dtype.type(8 * (s - base))
            table.flags.writeable = False
            self.lane_tables.append((2 * base, table))
        #: ``(distance, shift)`` per fold: fold ``i`` XORs in the word
        #: ``2^(i+1)`` positions ahead, shifted down ``2^i`` lanes; after the
        #: last, lane 0 of word ``p`` is lane ``m`` of word ``p + 2m`` over all ``m``.
        self._folds = tuple(
            (2 << i, dtype.type(8 << i)) for i in range(self._lanes.bit_length() - 1)
        )
        #: Bytes the prescreen reads past a block's last window start:
        #: ``window - 1`` at most, ``window`` for an odd window's last pair.
        self._tail = max(2 * base for base, _ in groups) + 2 * self._lanes - 1

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
        window, tail = self.window, self._tail
        block = buf[base : base + rows + max(window - 1, tail)]
        if block.size < rows + tail:  # an odd window's last pair at the input's end
            block = np.concatenate([block, np.zeros(rows + tail - block.size, dtype=np.uint8)])
        step = min(_SUB, rows)
        low = np.empty(rows, dtype=np.uint8)
        idx = np.empty(step + tail - 1, dtype=np.intp)
        acc = np.empty(step + 2 * self._lanes - 2, dtype=self.lane_tables[0][1].dtype)
        tmp = np.empty_like(acc)
        for lo in range(0, rows, step):
            self._prescreen(block[lo : lo + step + tail], low[lo : lo + step], idx, acc, tmp)
        survivors = np.flatnonzero(low == self._want)
        offsets = self._offsets
        for lo in range(0, survivors.size, _CONFIRM):
            pos = survivors[lo : lo + _CONFIRM]
            terms = self.tables[offsets, block[pos[:, None] + offsets]]
            yield pos + (base + window), np.bitwise_xor.reduce(terms, axis=1)

    def _prescreen(
        self, block: np.ndarray, low: np.ndarray, idx: np.ndarray, acc: np.ndarray, tmp: np.ndarray
    ) -> None:
        """The masked low byte of ``H`` into ``low`` for the windows that
        start in ``block`` (their bytes, then the prescreen's tail);
        ``idx``, ``acc`` and ``tmp`` are scratch of at least a block."""
        idx = idx[: block.size - 1]
        np.left_shift(block[:-1], 8, out=idx, dtype=np.intp)
        np.bitwise_or(idx, block[1:], out=idx)
        # Lane m of accumulator word q holds pair m's term for position q - 2m.
        span = low.size + 2 * self._lanes - 2
        acc, tmp = acc[:span] if self._folds else low, tmp[:span]
        (offset, table), *rest = self.lane_tables
        # mode="wrap": indices are in range; "raise" buffers `out`.
        np.take(table, idx[offset : offset + span], out=acc, mode="wrap")
        for offset, table in rest:
            np.take(table, idx[offset : offset + span], out=tmp, mode="wrap")
            np.bitwise_xor(acc, tmp, out=acc)
        for distance, shift in self._folds:
            span -= distance
            np.right_shift(acc[distance:], shift, out=tmp[:span])
            # The last fold casts lane 0, the low value bits, into `low`.
            out = acc[:span] if span > low.size else low
            np.bitwise_xor(acc[:span], tmp[:span], out=out, casting="unsafe")
            acc = acc[:span]
