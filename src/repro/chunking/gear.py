"""FastCDC-style content-defined chunking with a gear rolling hash.

Gear hashing (Xia et al., USENIX ATC'16) replaces the Rabin fingerprint's
table-per-window-offset polynomial arithmetic with one table lookup and one
shift per byte:

    h' = (h << 1) ^ GEAR[b]        (carry-less gear; GEAR is a fixed
                                    256-entry table of random words)

Shifting ages a byte out of the hash after ``word width`` steps, so the
recurrence *is* the rolling window — no explicit "pop" term.  On top of the
hash this module implements the two FastCDC ingredients that matter for
throughput and chunk-size shape:

* **cut-point skipping** — no boundary is evaluated within ``min_size`` of
  the previous cut, so ~``min_size/avg_size`` of all positions are never
  inspected; and
* **normalized chunking** — positions before ``avg_size`` are judged with a
  *harder* mask (``log2(avg) + norm`` bits) and positions after it with an
  *easier* one (``log2(avg) - norm`` bits), concentrating the chunk-size
  distribution around the average instead of the open-ended exponential a
  single mask produces.

Vectorised scan kernel
----------------------

The deviation from the C-oriented original: scanning byte-at-a-time is
exactly what pure Python cannot afford, so all positions are evaluated
with numpy gathers.  Because the gear recurrence is carry-less (XOR, not
the original's addition), bit ``p`` of the hash only sees bytes at
distances ``<= p``: the mask bits live in the low 16 bits of the word, so
the masked decision is an XOR of per-offset terms over just the trailing
:data:`GEAR_WINDOW` = 16 bytes — the form the blocked two-level scan of
:mod:`repro.chunking.scan` takes (shared with the Rabin chunker, which
runs it on 22 dense pair tables).  Here only the trailing 8 bytes can
reach the low hash byte, so the dense prescreen is 4 ``uint8`` pair-table
gathers per position; the ~1/256 survivors gather the 16 per-offset terms
and are tested against both masks.  The property tests pin the kernel to
the dense :meth:`GearChunker.window_hashes` (slow but simple) and that to
the byte-at-a-time reference :meth:`GearChunker.rolling_hashes`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from repro.chunking.base import Chunk, Chunker
from repro.chunking.scan import PairScan
from repro.crypto.drbg import DRBG
from repro.errors import ParameterError

__all__ = ["GEAR_WINDOW", "GearChunker"]

#: Bytes of context behind every masked boundary decision.  Fixed by the
#: kernel layout: mask bits occupy the low 16 hash bits, and a byte at
#: distance ``d`` (shifted left ``d`` times) cannot reach bit ``p < d``.
GEAR_WINDOW = 16

_U64_MASK = (1 << 64) - 1


@lru_cache(maxsize=1)
def _gear_table() -> np.ndarray:
    """The fixed 256-entry random gear table (deterministic seed).

    Every chunker instance shares it; determinism across processes and
    versions is what lets two clients deduplicate against each other.
    """
    raw = DRBG("repro/gear-table-v1").random_bytes(256 * 8)
    return np.frombuffer(raw, dtype=np.uint64).copy()


def _offset_tables() -> np.ndarray:
    """``T[j][v]``: the low 16 bits of byte ``v``'s hash term at window
    offset ``j``, ``GEAR[v] << (GEAR_WINDOW - 1 - j)``; shape ``(16, 256)``."""
    shifts = np.arange(GEAR_WINDOW - 1, -1, -1, dtype=np.uint64)[:, None]
    return ((_gear_table()[None, :] << shifts) & np.uint64(0xFFFF)).astype(np.uint16)


class GearChunker(Chunker):
    """FastCDC-style chunker: gear hash + normalized masks + min-size skip.

    Parameters
    ----------
    avg_size:
        Target average chunk size; must be a power of two between 2^5 and
        2^14 (its log2 sets the mask widths; the 16-bit kernel caps the
        hard mask at 16 bits).  Default 8 KB (§4.2).
    min_size, max_size:
        Hard bounds on chunk sizes.  Defaults 2 KB / 16 KB (§4.2).
    norm:
        Normalization level: the hard/easy masks use ``log2(avg) ± norm``
        bits.  ``0`` degenerates to single-mask gear CDC; the FastCDC
        paper's NC2 (default) is ``2``.
    """

    def __init__(
        self,
        avg_size: int = 8192,
        min_size: int = 2048,
        max_size: int = 16384,
        norm: int = 2,
    ) -> None:
        if avg_size & (avg_size - 1) or avg_size <= 0:
            raise ParameterError(f"avg_size must be a power of two, got {avg_size}")
        if not 0 < min_size <= avg_size <= max_size:
            raise ParameterError(
                f"require 0 < min <= avg <= max, got ({min_size}, {avg_size}, {max_size})"
            )
        if min_size < GEAR_WINDOW:
            raise ParameterError(
                f"min_size {min_size} must cover the gear window {GEAR_WINDOW}"
            )
        if norm < 0:
            raise ParameterError(f"norm must be >= 0, got {norm}")
        bits = avg_size.bit_length() - 1
        if bits - norm < 1 or bits + norm > 16:
            raise ParameterError(
                f"avg_size 2^{bits} with norm {norm} needs mask widths "
                f"{bits - norm}..{bits + norm}; the 16-bit kernel supports 1..16"
            )
        self.avg_size = avg_size
        self.min_size = min_size
        self.max_size = max_size
        self.norm = norm
        #: Hard mask (more bits, harder to match) judges positions before
        #: ``avg_size``; easy mask judges the rest.  Nested low-bit masks:
        #: a hard-mask match is always an easy-mask match too.
        self.mask_hard = np.uint16((1 << (bits + norm)) - 1)
        self.mask_easy = np.uint16((1 << (bits - norm)) - 1)
        #: Prescreens on the easy mask's low byte: both full masks imply it.
        self._kernel = PairScan(_offset_tables(), int(self.mask_easy), 0)

    # ------------------------------------------------------------------
    # hash computation
    # ------------------------------------------------------------------
    def rolling_hashes(self, data: bytes) -> np.ndarray:
        """Reference gear recurrence: the hash after each consumed byte.

        Entry ``i`` is the full 64-bit gear hash of ``data[: i + 1]``
        (``h = 0`` before the first byte).  Kept as executable
        documentation and as the anchor for the property tests that
        certify the vectorised kernel: for ``i >= GEAR_WINDOW - 1`` the
        low 16 bits equal :meth:`window_hashes` entry ``i - GEAR_WINDOW + 1``.
        """
        gear = _gear_table()
        out = np.zeros(len(data), dtype=np.uint64)
        h = 0
        for i, byte in enumerate(data):
            h = ((h << 1) ^ int(gear[byte])) & _U64_MASK
            out[i] = h
        return out

    def window_hashes(self, data: bytes) -> np.ndarray:
        """Dense low-16-bit gear hashes of every complete window.

        Entry ``i`` covers ``data[i : i + GEAR_WINDOW]``; the result has
        ``len(data) - GEAR_WINDOW + 1`` entries.  This is the slow-but-
        simple rendering of the kernel (every offset gathered densely),
        used by tests to pin the two-level fast path.
        """
        buf = np.frombuffer(data, dtype=np.uint8)
        count = max(buf.size - GEAR_WINDOW + 1, 0)
        out = np.zeros(count, dtype=np.uint16)
        for j, table in enumerate(self._kernel.tables):
            out ^= table[buf[j : j + count]]
        return out

    def _scan(self, data: bytes) -> tuple[np.ndarray, np.ndarray]:
        """Candidate cut positions ``(hard_cuts, easy_cuts)`` of ``data``.

        The shared two-level kernel's prescreen survivors, tested against
        both masks.  Cut position ``c`` means a boundary after byte
        ``c - 1`` (window ``[c - GEAR_WINDOW, c)`` matched).
        """
        hard, easy = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for cuts, hashes in self._kernel.candidates(data):
            hard.append(cuts[(hashes & self.mask_hard) == 0])
            easy.append(cuts[(hashes & self.mask_easy) == 0])
        return np.concatenate(hard), np.concatenate(easy)

    # ------------------------------------------------------------------
    # chunking
    # ------------------------------------------------------------------
    def _next_cut(
        self, hard: np.ndarray, easy: np.ndarray, start: int, size: int
    ) -> int:
        """The cut ending the chunk that starts at ``start``.

        FastCDC schedule: skip ``min_size`` outright; judge positions up
        to ``start + avg_size`` (the normalization point, inclusive) with
        the hard mask, later ones with the easy mask; give up at
        ``start + max_size`` (or EOF).
        """
        if size - start <= self.min_size:
            return size
        hi = min(start + self.max_size, size)
        hi_hard = min(start + self.avg_size, hi)
        i = int(np.searchsorted(hard, start + self.min_size, side="left"))
        if i < hard.size and int(hard[i]) <= hi_hard:
            return int(hard[i])
        j = int(np.searchsorted(easy, max(start + self.min_size, hi_hard), side="left"))
        if j < easy.size and int(easy[j]) <= hi:
            return int(easy[j])
        return hi

    def segments(self, size: int) -> int:
        return self._kernel.segments(size)

    def chunk_bytes(self, data: bytes) -> Iterator[Chunk]:
        if not data:
            return
        hard, easy = self._scan(data)
        start = 0
        seq = 0
        size = len(data)
        while start < size:
            cut = self._next_cut(hard, easy, start, size)
            yield Chunk(data=data[start:cut], offset=start, seq=seq)
            start = cut
            seq += 1

    def chunk_stream(self, blocks: Iterable[bytes]) -> Iterator[Chunk]:
        """True streaming: buffer at most a few ``max_size`` of carry.

        A chunk starting at ``s`` is fully determined once ``max_size``
        bytes beyond ``s`` are buffered (every boundary decision looks at
        most ``max_size`` ahead and ``GEAR_WINDOW`` behind, and
        ``min_size >= GEAR_WINDOW`` keeps the look-behind inside the
        chunk), so boundaries are bit-identical to :meth:`chunk_bytes` of
        the concatenated stream regardless of how it is sliced into
        blocks.
        """
        buf = bytearray()
        offset = 0
        seq = 0
        for block in blocks:
            if not block:
                continue
            buf += block
            # Scan in batches so the rescanned carry (< max_size) is
            # amortised over several emitted chunks.
            if len(buf) < 4 * self.max_size:
                continue
            data = bytes(buf)
            hard, easy = self._scan(data)
            start = 0
            while len(data) - start >= self.max_size:
                cut = self._next_cut(hard, easy, start, len(data))
                yield Chunk(data=data[start:cut], offset=offset, seq=seq)
                offset += cut - start
                seq += 1
                start = cut
            del buf[:start]
        data = bytes(buf)
        hard, easy = self._scan(data)
        start = 0
        while start < len(data):
            cut = self._next_cut(hard, easy, start, len(data))
            yield Chunk(data=data[start:cut], offset=offset, seq=seq)
            offset += cut - start
            seq += 1
            start = cut
