"""Seeded inputs of the benchmark: file payloads, next-version mutations,
the small-op schedule, and the byte verifier.

Everything here is a pure function of ``--seed``; the program under test
only ever receives the generated bytes.
"""

from __future__ import annotations

import hashlib
import random

KIB = 1 << 10
MIB = 1 << 20

#: Sizes of the three large files (``backup_unique`` / ``backup_incremental``
#: / ``restore``) at ``--scale 1``.  The 4:1:1 shape keeps one file long
#: enough to expose the super-linear recipe finalisation; the absolute sizes
#: are what fits the benchmark contract's total-time cap (see README).
LARGE_FILE_SIZES = (8 * MIB, 2 * MIB, 2 * MIB)

#: ``backup_incremental``: overwritten extents per file and the share of the
#: file each one covers, plus one short insertion so every chunk boundary
#: after it shifts (content-defined chunking must resynchronise).  Few long
#: extents rather than many short ones: each extent edge dirties a chunk of
#: random size, and that randomness is the run-to-run spread of the
#: transferred-bytes metrics.
MUTATION_EXTENTS = 2
MUTATION_EXTENT_SHARE = 0.015
MUTATION_INSERT_BYTES = 105

#: ``serve_small_mixed``: file sizes, the pool both users draw half of each
#: file from (server-side inter-user dedup), and the op mix.  The schedule
#: deals ops in shuffled blocks holding every (kind, size) pair in exactly
#: this proportion, so any stretch of it has the same mix.
SMALL_FILE_SIZES = (64 * KIB, 128 * KIB, 256 * KIB, 512 * KIB)
SMALL_POOL_BYTES = 4 * MIB
SMALL_POOL_ALIGN = 64 * KIB
SMALL_BACKUPS_PER_RESTORE = 2


def payload(seed: int, name: str, size: int) -> bytes:
    """``size`` incompressible bytes determined by ``(seed, name)``.

    SHAKE-256 is linear in ``size`` (8 MiB in ~20 ms); the program's own
    ``DRBG.random_bytes`` is quadratic and would be measured as set-up.
    """
    return hashlib.shake_256(f"{seed}|{name}".encode()).digest(size)


def scaled(size: int, scale: float) -> int:
    """``size`` shrunk by ``--scale``, never below 4 KiB."""
    return max(4 * KIB, int(size * scale))


def mutate(data: bytes, seed: int, name: str) -> bytes:
    """The next version of ``data``: seeded overwrites plus one insertion."""
    rng = random.Random(f"{seed}|mutate|{name}")
    out = bytearray(data)
    extent = max(1, int(len(data) * MUTATION_EXTENT_SHARE))
    for i in range(MUTATION_EXTENTS):
        at = rng.randrange(0, len(out) - extent + 1)
        out[at : at + extent] = payload(seed, f"{name}|extent{i}", extent)
    at = rng.randrange(0, len(out) + 1)
    out[at:at] = payload(seed, f"{name}|insert", MUTATION_INSERT_BYTES)
    return bytes(out)


class SmallOpSchedule:
    """One user's endless, seeded stream of ``serve_small_mixed`` ops.

    ``next_op()`` yields ``("backup", path, data)`` or ``("restore", path,
    None)``.  A restore names a file of its block's size this user already
    backed up (any size until one exists); with nothing backed up yet it
    turns into a backup, so the first op always is one.  The caller reports
    each finished backup through ``backed_up`` — a failed backup must not
    be restored later.
    """

    def __init__(self, seed: int, user: str, pool: bytes, scale: float) -> None:
        self.seed = seed
        self.user = user
        self.pool = pool
        self.scale = scale
        self.rng = random.Random(f"{seed}|serve|{user}")
        self.restorable: dict[int, list[str]] = {}
        self.issued = 0
        self._block: list[tuple[str, int]] = []

    def next_op(self) -> tuple[str, str, bytes | None]:
        rng = self.rng
        if not self._block:
            self._block = [
                (kind, scaled(size, self.scale))
                for size in SMALL_FILE_SIZES
                for kind in ["backup"] * SMALL_BACKUPS_PER_RESTORE + ["restore"]
            ]
            rng.shuffle(self._block)
        kind, size = self._block.pop()
        if kind == "restore" and self.restorable:
            paths = self.restorable.get(size) or [
                path for paths in self.restorable.values() for path in paths
            ]
            return "restore", rng.choice(paths), None
        half = size // 2
        offset = rng.randrange(0, len(self.pool) - half + 1, min(SMALL_POOL_ALIGN, half))
        path = f"/{self.user}/small-{self.issued}"
        self.issued += 1
        data = payload(self.seed, path, size - half) + self.pool[offset : offset + half]
        return "backup", path, data

    def backed_up(self, path: str, size: int) -> None:
        self.restorable.setdefault(size, []).append(path)


def verify(expected: bytes, actual: object) -> bool:
    """Whether a restore returned exactly the bytes that were backed up."""
    return isinstance(actual, (bytes, bytearray)) and bytes(actual) == expected


def digest(data: bytes) -> str:
    """Short SHA-256 tag for mismatch reports."""
    return hashlib.sha256(data).hexdigest()[:16]
