"""Encode slabs and restore windows for the comm engine (§4.6).

The comm engine encodes secrets on a thread pool in *slabs*: contiguous
runs of ~1 MB that each encode with the batched kernels
(:meth:`~repro.core.convergent.ConvergentDispersal.encode_batch`) and are
then fed to every cloud's upload worker.  :func:`slab_spans` plans them,
and :func:`plan_windows` plans the restore-side windows the same way.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ParameterError

__all__ = [
    "ENCODE_SLAB_BYTES",
    "plan_windows",
    "slab_spans",
]

#: Target bytes of secrets per encode slab.  Big enough that scheduling is
#: noise next to the encode work; small enough that a file splits into
#: several slabs and encoding overlaps transfer per §4.6.
ENCODE_SLAB_BYTES = 1 << 20


def slab_spans(
    sizes: Sequence[int],
    width: int,
    slab_bytes: int = ENCODE_SLAB_BYTES,
) -> list[tuple[int, int]]:
    """Split ``len(sizes)`` secrets into contiguous ``[start, end)`` slabs.

    Aims for ``slab_bytes`` per slab but always produces at least
    ``2 * width`` slabs (when there are that many secrets) so a pool of
    ``width`` workers load-balances even when one slab runs long.
    """
    count = len(sizes)
    if count == 0:
        return []
    if width < 1:
        raise ParameterError(f"width must be >= 1, got {width}")
    total = sum(sizes)
    wanted = max(2 * width if width > 1 else 1, -(-total // slab_bytes))
    return plan_windows(sizes, max(1, -(-total // min(wanted, count))))


def plan_windows(
    sizes: Sequence[int], window_bytes: int
) -> list[tuple[int, int]]:
    """Group ``len(sizes)`` items into contiguous ``[start, end)`` windows.

    Each window accumulates items until it reaches ``window_bytes`` (every
    window holds at least one item, so oversized items get a window of
    their own).  This is the restore-side mirror of :func:`slab_spans`:
    the client fetches and decodes one window of shares at a time instead
    of materialising the whole file's share map before the first decode.
    """
    if window_bytes < 1:
        raise ParameterError(f"window_bytes must be >= 1, got {window_bytes}")
    windows: list[tuple[int, int]] = []
    start = 0
    acc = 0
    for i, size in enumerate(sizes):
        acc += size
        if acc >= window_bytes:
            windows.append((start, i + 1))
            start = i + 1
            acc = 0
    if start < len(sizes):
        windows.append((start, len(sizes)))
    return windows
