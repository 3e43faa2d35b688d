"""Variable-size chunking with Rabin fingerprints [49] (§4.2).

A Rabin fingerprint of a ``w``-byte window is the residue of the window's
bytes — read as a polynomial over GF(2) — modulo a fixed irreducible
polynomial ``P`` of degree 63.  A chunk boundary is declared after byte
``i`` when the fingerprint of the window ending at ``i`` matches a magic
value in its low ``log2(average)`` bits; minimum and maximum chunk sizes
(2 KB / 16 KB around the 8 KB average, per the paper) bound the result.

The fingerprint is GF(2)-linear in the window bytes,

    F(window) = XOR_j  T_j[b_j],   T_j[v] = v · x^(8·(w-1-j)) mod P,

and only ``F & (average - 1)`` decides a cut.  AND distributes over XOR,
so ``F & m = XOR_j (T_j[b_j] & m)``: the ingest path never computes the 64
fingerprint bits, it hands the ``T_j`` to the blocked two-level scan of
:mod:`repro.chunking.scan` (pre-masked ``uint8`` pair tables densely, the
full-width ``T_j`` only at the ~1/256 prescreen survivors), the same
kernel the gear chunker runs on its own tables.  Two full-fingerprint
renderings stay for the tests that pin the kernel's cuts:
:meth:`RabinChunker.window_fingerprints` (dense, one gather per offset —
slow but simple) and the byte-at-a-time rolling reference
:meth:`RabinChunker.rolling_fingerprints`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.chunking.base import Chunk, Chunker
from repro.chunking.scan import PairScan
from repro.errors import ParameterError

__all__ = ["RabinChunker"]

#: Degree-63 irreducible polynomial over GF(2) (low 64 bits stored; the
#: leading x^63 term is implicit in the reduction step).  This is a known
#: irreducible polynomial used by LBFS-style chunkers.
_POLY = 0xBFE6B8A5BF378D83
_DEGREE = 63
_LOW_BITS = np.uint64((1 << _DEGREE) - 1)


def _mod_poly(value: int) -> int:
    """Reduce a GF(2) polynomial (as an int) modulo ``_POLY``.

    ``_POLY``'s top set bit is the degree-63 leading term, so XOR-aligning
    it under the value's leading bit cancels that bit each step.
    """
    while value.bit_length() > _DEGREE:
        value ^= _POLY << (value.bit_length() - 1 - _DEGREE)
    return value


def _offset_tables(window: int) -> np.ndarray:
    """``T[j][v] = v · x^(8·(window-1-j)) mod P``, shape ``(window, 256)``.

    Built by recurrence from the last offset (``T[window-1][v] = v``):
    each step multiplies a row by ``x^8`` — shift, then fold the 8 bits
    pushed past the degree back in through a 256-entry reduction table —
    so construction is linear in the window (~100 KB at 48 bytes).
    """
    fold = np.array([_mod_poly(v << _DEGREE) for v in range(256)], dtype=np.uint64)
    tables = np.empty((window, 256), dtype=np.uint64)
    row = np.arange(256, dtype=np.uint64)
    for j in reversed(range(window)):
        tables[j] = row
        row = ((row << np.uint64(8)) & _LOW_BITS) ^ fold[row >> np.uint64(_DEGREE - 8)]
    return tables


class RabinChunker(Chunker):
    """Content-defined chunker with Rabin rolling fingerprints.

    Parameters
    ----------
    avg_size:
        Target average chunk size; must be a power of two (its log2 sets
        the number of fingerprint bits compared).  Default 8 KB (§4.2).
    min_size, max_size:
        Hard bounds on chunk sizes.  Defaults 2 KB / 16 KB (§4.2).
    window:
        Rolling window width in bytes (default 48, the LBFS classic).
    """

    def __init__(
        self,
        avg_size: int = 8192,
        min_size: int = 2048,
        max_size: int = 16384,
        window: int = 48,
    ) -> None:
        if avg_size & (avg_size - 1) or avg_size <= 0:
            raise ParameterError(f"avg_size must be a power of two, got {avg_size}")
        if not 0 < min_size <= avg_size <= max_size:
            raise ParameterError(
                f"require 0 < min <= avg <= max, got ({min_size}, {avg_size}, {max_size})"
            )
        if window < 2:
            raise ParameterError(f"window must be >= 2, got {window}")
        if min_size < window:
            raise ParameterError(
                f"min_size {min_size} must cover the window {window}"
            )
        self.avg_size = avg_size
        self.min_size = min_size
        self.max_size = max_size
        self.window = window
        self._mask = np.uint64(avg_size - 1)
        #: Boundary magic in the masked bits; any constant works, but zero
        #: would fire on zero-filled regions, so pick a non-trivial value.
        self._magic = np.uint64((avg_size - 1) & 0x78F5)
        #: Per-window-offset tables; row 0 doubles as the rolling
        #: reference's "pop" table (the outgoing byte's term).
        self._tables = _offset_tables(window)
        self._kernel = PairScan(self._tables, avg_size - 1, int(self._magic))

    # ------------------------------------------------------------------
    # fingerprint computation
    # ------------------------------------------------------------------
    def window_fingerprints(self, data: bytes) -> np.ndarray:
        """Fingerprints of every ``window``-byte window of ``data``.

        Entry ``i`` is the fingerprint of ``data[i : i + window]``; the
        result has ``len(data) - window + 1`` entries (empty if the input
        is shorter than the window).  The slow-but-simple dense rendering
        (one full-width gather per window offset) that tests hold the
        ingest kernel to; nothing on the backup path calls it.
        """
        buf = np.frombuffer(data, dtype=np.uint8)
        count = max(buf.size - self.window + 1, 0)
        out = np.zeros(count, dtype=np.uint64)
        for j, table in enumerate(self._tables):
            out ^= table[buf[j : j + count]]
        return out

    def rolling_fingerprints(self, data: bytes) -> np.ndarray:
        """Reference rolling implementation (byte-at-a-time push/pop).

        Produces exactly :meth:`window_fingerprints`; kept for the property
        tests that certify the vectorised paths, and as executable
        documentation of the classic recurrence
        ``F' = ((F ^ POP[out]) · x^8 ^ in) mod P``.
        """
        w = self.window
        if len(data) < w:
            return np.zeros(0, dtype=np.uint64)
        pop = self._tables[0]
        out = np.zeros(len(data) - w + 1, dtype=np.uint64)
        fp = 0
        for j in range(w):
            fp = _mod_poly(fp << 8) ^ data[j]
        out[0] = fp
        for i in range(1, len(data) - w + 1):
            fp ^= int(pop[data[i - 1]])
            fp = _mod_poly(fp << 8) ^ data[i + w - 1]
            out[i] = fp
        return out

    # ------------------------------------------------------------------
    # chunking
    # ------------------------------------------------------------------
    def _scan(self, data: bytes) -> np.ndarray:
        """Candidate cut positions of ``data``, ascending.

        Cut ``c`` means a boundary after byte ``c - 1``: the fingerprint of
        the window ``[c - window, c)`` matched the magic in its masked bits.
        """
        hits = [
            cuts[(fps & self._mask) == self._magic]
            for cuts, fps in self._kernel.candidates(data)
        ]
        return np.concatenate([np.zeros(0, dtype=np.int64), *hits])

    def chunk_bytes(self, data: bytes) -> Iterator[Chunk]:
        if not data:
            return
        cuts = self._scan(data)
        start = 0
        seq = 0
        size = len(data)
        while start < size:
            if size - start <= self.min_size:
                cut = size
            else:
                hi = min(start + self.max_size, size)
                idx = int(np.searchsorted(cuts, start + self.min_size, side="left"))
                cut = hi
                if idx < cuts.size and int(cuts[idx]) <= hi:
                    cut = int(cuts[idx])
            yield Chunk(data=data[start:cut], offset=start, seq=seq)
            start = cut
            seq += 1
