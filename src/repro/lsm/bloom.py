"""Bloom filter [18] used by SSTables to short-circuit lookups.

A standard k-hash bloom filter over a bit array, with the double-hashing
technique (two SHA-256-derived base hashes combined as ``h1 + i * h2``)
that provably preserves the asymptotic false-positive rate.  The bits
live in a ``bytearray`` so a probe is plain int arithmetic that stops at
the first clear bit; the serialised form is the header plus those bytes.
"""

from __future__ import annotations

import hashlib
import math
import struct

from repro.errors import ParameterError

__all__ = ["BloomFilter"]

_HEADER = struct.Struct(">QQdQ")
_BASE_HASHES = struct.Struct(">QQ")  # h1, h2: the digest's first 16 bytes


def _num_bits(capacity: int, fp_rate: float) -> int:
    return max(8, int(-capacity * math.log(fp_rate) / math.log(2) ** 2))


class BloomFilter:
    """Bloom filter sized for ``capacity`` items at ``fp_rate`` error.

    Supports serialisation so SSTables can persist their filters.
    """

    def __init__(self, capacity: int, fp_rate: float = 0.01) -> None:
        if capacity <= 0:
            raise ParameterError(f"capacity must be positive, got {capacity}")
        if not 0 < fp_rate < 1:
            raise ParameterError(f"fp_rate must be in (0, 1), got {fp_rate}")
        self.capacity = capacity
        self.fp_rate = fp_rate
        nbits = _num_bits(capacity, fp_rate)
        self.num_bits = nbits
        self.num_hashes = max(1, round(nbits / capacity * math.log(2)))
        self._bits = bytearray((nbits + 7) // 8)
        self._count = 0

    # ------------------------------------------------------------------
    def _probe(self, key: bytes) -> tuple[int, int]:
        """First bit position and stride: bit ``i`` of ``key`` is
        ``(h1 + i * h2) % num_bits``, stepped without big-int products."""
        h1, h2 = _BASE_HASHES.unpack_from(hashlib.sha256(key).digest())
        return h1 % self.num_bits, (h2 | 1) % self.num_bits

    def add(self, key: bytes) -> None:
        """Insert ``key`` into the filter."""
        bits, num_bits = self._bits, self.num_bits
        pos, step = self._probe(key)
        for _ in range(self.num_hashes):
            bits[pos >> 3] |= 1 << (pos & 7)
            pos += step
            if pos >= num_bits:
                pos -= num_bits
        self._count += 1

    def __contains__(self, key: bytes) -> bool:
        bits, num_bits = self._bits, self.num_bits
        pos, step = self._probe(key)
        for _ in range(self.num_hashes):
            if not bits[pos >> 3] >> (pos & 7) & 1:
                return False
            pos += step
            if pos >= num_bits:
                pos -= num_bits
        return True

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialise (header + bit array)."""
        header = _HEADER.pack(self.capacity, self.num_bits, self.fp_rate, self._count)
        return header + self._bits

    @classmethod
    def from_bytes(cls, blob: bytes) -> "BloomFilter":
        """Deserialise a filter produced by :meth:`to_bytes`.

        All header fields are validated *before* any allocation, so a
        forged header cannot trigger a huge-memory construction.
        """
        if len(blob) < _HEADER.size:
            raise ParameterError("bloom blob too short")
        capacity, num_bits, fp_rate, count = _HEADER.unpack_from(blob)
        if not 0 < capacity <= 1 << 40:
            raise ParameterError(f"bloom capacity {capacity} out of range")
        if not 0 < fp_rate < 1:
            raise ParameterError(f"bloom fp_rate {fp_rate!r} out of range")
        # The bit array length is fully determined by the blob size; the
        # header's num_bits must be consistent with it, and the sizing
        # formula must agree with (capacity, fp_rate) — all checked before
        # constructing, so no forged header can force a huge allocation.
        if (num_bits + 7) // 8 != len(blob) - _HEADER.size:
            raise ParameterError("bloom blob length inconsistent with header")
        if _num_bits(capacity, fp_rate) != num_bits:
            raise ParameterError("bloom blob header inconsistent with sizing")
        bf = cls(capacity, fp_rate)
        bf._bits = bytearray(blob[_HEADER.size :])
        bf._count = count
        return bf
