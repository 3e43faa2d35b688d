"""Deterministic random byte generator (SHA-256 counter DRBG).

Two consumers need controllable randomness:

* the *non-convergent* baselines (AONT-RS, SSMS, RSSS, SSSS) embed random
  keys/pieces — in production those come from the OS, but experiments and
  tests must be reproducible, so every scheme accepts an optional RNG; and
* the synthetic workload generators (§5.2 substitution) must regenerate the
  exact same multi-terabyte-shaped traces from a small seed.

The construction is the classic hash-counter DRBG: ``block_i =
SHA-256(seed || i)``, concatenated and truncated.  It is *not* meant to be a
certified CSPRNG; the system uses ``os.urandom`` when no DRBG is supplied.
"""

from __future__ import annotations

import hashlib
import os
import struct

from repro.errors import ParameterError

__all__ = ["DRBG", "system_random_bytes"]

_BLOCK_BYTES = hashlib.sha256().digest_size


def system_random_bytes(length: int) -> bytes:
    """Operating-system randomness (the production default)."""
    return os.urandom(length)


class DRBG:
    """Seeded deterministic byte stream.

    >>> DRBG(b"seed").random_bytes(4) == DRBG(b"seed").random_bytes(4)
    True
    """

    def __init__(self, seed: bytes | str | int) -> None:
        if isinstance(seed, int):
            seed = str(seed).encode("ascii")
        elif isinstance(seed, str):
            seed = seed.encode("utf-8")
        if not seed:
            raise ParameterError("DRBG seed must be non-empty")
        self._seed = bytes(seed)
        self._counter = 0
        self._buffer = b""

    def random_bytes(self, length: int) -> bytes:
        """Return the next ``length`` bytes of the stream."""
        if length < 0:
            raise ParameterError(f"negative length {length}")
        missing = length - len(self._buffer)
        if missing > 0:
            # Join once: appending block by block to ``bytes`` is quadratic.
            count = -(-missing // _BLOCK_BYTES)
            self._buffer += b"".join(
                hashlib.sha256(self._seed + struct.pack(">Q", i)).digest()
                for i in range(self._counter, self._counter + count)
            )
            self._counter += count
        out, self._buffer = self._buffer[:length], self._buffer[length:]
        return out

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        if high < low:
            raise ParameterError(f"empty range [{low}, {high}]")
        span = high - low + 1
        # Rejection sampling over the smallest covering power of two.
        nbytes = (span - 1).bit_length() // 8 + 1
        limit = (256**nbytes // span) * span
        while True:
            value = int.from_bytes(self.random_bytes(nbytes), "big")
            if value < limit:
                return low + value % span

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return int.from_bytes(self.random_bytes(7), "big") / (1 << 56)

    def choice(self, seq):
        """Pick one element of a non-empty sequence."""
        if not seq:
            raise ParameterError("cannot choose from an empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    def fork(self, label: str | bytes) -> "DRBG":
        """Derive an independent child stream (stable under label)."""
        if isinstance(label, str):
            label = label.encode("utf-8")
        return DRBG(hashlib.sha256(self._seed + b"/" + label).digest())
