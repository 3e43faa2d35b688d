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
   ``b[i] << 8 | b[i+1]`` is built once per block and sliced per offset.
2. **sparse confirm** — only positions whose low byte matches (~1/256)
   gather the full-width per-offset tables; the caller tests its own masks.

Positions are scanned in blocks of :data:`BLOCK` (windows straddling a
block edge re-read ``window - 1`` bytes), so no temporary scales with the
input; unblocked, the same passes run ~1.5x slower.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["BLOCK", "PairScan"]

#: Window positions per block.  Quiet speed is flat from 64 Ki to 512 Ki, but
#: a block is ~60 GIL-releasing numpy calls and each can wait a 5 ms switch
#: interval beside a busy thread: the largest whose scratch is under 4 MiB.
BLOCK = 1 << 18

#: Survivors confirmed per gather (bounds the temporaries when every position survives).
_CONFIRM = 1 << 11


class PairScan:
    """One table set: ``tables[j][v]`` is byte ``v``'s term at window
    offset ``j`` (shape ``(window, 256)``, any unsigned dtype); the
    prescreen keeps positions where ``H & mask & 0xFF == value & 0xFF``."""

    def __init__(self, tables: np.ndarray, mask: int, value: int) -> None:
        self.tables = tables
        self.window = window = tables.shape[0]
        self._want = np.uint8(value & mask & 0xFF)
        low = (tables & tables.dtype.type(mask & 0xFF)).astype(np.uint8)
        pairs = [(j, low[j], low[j + 1]) for j in range(0, window - 1, 2)]
        if window % 2:  # unpaired last offset: low half of a pair at window-2
            pairs.append((window - 2, np.zeros(256, dtype=np.uint8), low[-1]))
        self._dense = tuple(
            (j, (first[:, None] ^ second[None, :]).ravel())
            for j, first, second in pairs
            if first.any() or second.any()
        )

    def candidates(self, data: bytes) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(cuts, hashes)`` for the prescreen survivors of each block.

        ``cuts[i]`` is the exclusive end of a surviving window (a boundary
        there falls after byte ``cuts[i] - 1``), ascending across yields;
        ``hashes[i]`` is that window's full ``H`` in the tables' dtype.
        """
        buf = np.frombuffer(data, dtype=np.uint8)
        window = self.window
        count = buf.size - window + 1
        if count <= 0:
            return
        rows = min(BLOCK, count)
        index = np.empty(rows + window - 2, dtype=np.intp)
        acc = np.empty(rows, dtype=np.uint8)
        term = np.empty(rows, dtype=np.uint8)
        offsets = np.arange(window)
        for base in range(0, count, BLOCK):
            n = min(BLOCK, count - base)
            block = buf[base : base + n + window - 1]
            idx, low, tmp = index[: n + window - 2], acc[:n], term[:n]
            np.left_shift(block[:-1], 8, out=idx, dtype=np.intp)
            np.bitwise_or(idx, block[1:], out=idx)
            low.fill(0)
            for j, table in self._dense:
                # mode="wrap": indices are in range; "raise" buffers `out`.
                np.take(table, idx[j : j + n], out=tmp, mode="wrap")
                np.bitwise_xor(low, tmp, out=low)
            survivors = np.flatnonzero(low == self._want)
            for lo in range(0, survivors.size, _CONFIRM):
                pos = survivors[lo : lo + _CONFIRM]
                terms = self.tables[offsets, block[pos[:, None] + offsets]]
                yield pos + (base + window), np.bitwise_xor.reduce(terms, axis=1)
