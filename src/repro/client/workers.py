"""Encode slabs and the streaming slab queue for the comm engine (§4.6).

The comm engine encodes secrets on a thread pool in *slabs*: contiguous
runs of ~1 MB that each encode with the batched kernels
(:meth:`~repro.core.convergent.ConvergentDispersal.encode_batch`).
:func:`slab_spans` plans them, and :func:`plan_windows` plans the
restore-side windows the same way.

It also owns the **streaming slab queue** (:class:`SlabbedShareSets`):
the ordered, bounded hand-off between the encode stage and the per-cloud
upload workers.  Encode slabs are submitted lazily — at most ``depth``
slabs are in flight or materialised beyond the slowest consumer
(credit-based backpressure: a slow cloud stalls the encode stage instead
of letting encoded shares pile up) — and a slab's share sets are dropped
the moment every cloud worker has drained it, so a multi-gigabyte backup
never holds more than ``depth`` slabs of shares in memory while wire time
hides behind encoding (Figure 4a's pipelining).
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from concurrent.futures import Future
from typing import Callable, Sequence

from repro.analysis.annotations import guarded_by
from repro.errors import ParameterError
from repro.sharing.base import ShareSet

__all__ = [
    "ENCODE_SLAB_BYTES",
    "SlabbedShareSets",
    "SlabStream",
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
    wanted = max(2 * width, -(-total // slab_bytes)) if width > 1 else max(
        1, -(-total // slab_bytes)
    )
    wanted = min(wanted, count)
    target = -(-total // wanted)
    spans: list[tuple[int, int]] = []
    start = 0
    acc = 0
    for i, size in enumerate(sizes):
        acc += size
        if acc >= target:
            spans.append((start, i + 1))
            start = i + 1
            acc = 0
    if start < count:
        spans.append((start, count))
    return spans


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


class SlabStream:
    """One consumer's ordered view over a :class:`SlabbedShareSets`.

    Iterating yields ``(seq, share_set)`` pairs in global sequence order,
    blocking only on the slab that holds the next secret.  Use as a context
    manager: on exit (normal or exceptional) the consumer's claims on all
    remaining slabs are released, so a cloud worker that dies mid-upload
    cannot deadlock the other consumers behind the backpressure window.
    """

    def __init__(self, owner: "SlabbedShareSets") -> None:
        self._owner = owner
        self._next_slab = 0
        self._closed = False

    def __enter__(self) -> "SlabStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release this consumer's claim on every slab not yet drained."""
        if not self._closed:
            self._closed = True
            self._owner._release_range(self._next_slab, len(self._owner._spans))

    def __iter__(self):
        for slab_idx, (start, _end) in enumerate(self._owner._spans):
            shares = self._owner._result(slab_idx)
            for offset, share_set in enumerate(shares):
                yield start + offset, share_set
            self._next_slab = slab_idx + 1
            self._owner._release_range(slab_idx, slab_idx + 1)


class SlabbedShareSets:
    """Ordered, bounded view over the ShareSets of in-flight encode slabs.

    ``submit(start, end) -> Future`` is called for at most ``depth`` slabs
    beyond the slowest consumer; when all ``consumers`` have drained a
    slab its share sets are dropped and the next pending slab is
    submitted.

    Indexing by global secret sequence (``view[seq]``) blocks only on the
    slab that holds that secret, so each cloud worker drains slabs in
    order while later slabs are still encoding — the Figure 4(a)
    pipelining at slab granularity.  Safe for concurrent readers:
    :meth:`Future.result` is thread-safe and caches its value.
    """

    #: Lock discipline (``repro analyze``, LOCK-001): the slab pipeline
    #: state is coordinated through ``_cond`` — mutations happen under it
    #: (``with self._cond:``) or inside ``*_locked`` helpers whose callers
    #: hold it.
    GUARDED_BY = guarded_by(
        _futures="_cond", _drained="_cond", _freed="_cond", _submitted="_cond"
    )

    def __init__(
        self,
        spans: Sequence[tuple[int, int]],
        submit: Callable[[int, int], Future],
        depth: int,
        consumers: int = 1,
    ) -> None:
        if depth < 1:
            raise ParameterError(f"depth must be >= 1, got {depth}")
        if consumers < 1:
            raise ParameterError(f"consumers must be >= 1, got {consumers}")
        self._spans = list(spans)
        self._starts = [start for start, _ in self._spans]
        self._count = self._spans[-1][1] if self._spans else 0
        self._consumers = consumers
        self._submit = submit
        self._depth = depth
        self._cond = threading.Condition()
        self._futures: list[Future | None] = [None] * len(self._spans)
        #: Per-slab count of consumers that have fully drained it.
        self._drained = [0] * len(self._spans)
        #: Number of slabs fully released by every consumer (prefix).
        self._freed = 0
        self._submitted = 0
        with self._cond:
            self._pump_locked()

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # submission / backpressure
    # ------------------------------------------------------------------
    def _pump_locked(self) -> None:
        """Submit pending slabs while the backpressure window has room.

        A submit that *raises* (e.g. a pool already shut down) is captured
        as a failed future: the consumers observe the error at
        ``result()`` and unwind through their stream context managers.
        Swallowing it into the slab slot — rather than letting it escape
        whichever consumer happened to turn the pump — is what keeps the
        other cloud workers from blocking forever on a slot that would
        otherwise stay None.
        """
        while (
            self._submitted < len(self._spans)
            and self._submitted - self._freed < self._depth
        ):
            start, end = self._spans[self._submitted]
            try:
                future = self._submit(start, end)
            except BaseException as exc:
                future = Future()
                future.set_exception(exc)
            self._futures[self._submitted] = future
            self._submitted += 1
            self._cond.notify_all()

    def _release_range(self, first: int, last: int) -> None:
        """Record one consumer's release of slabs ``[first, last)``."""
        if first >= last:
            return
        with self._cond:
            for slab in range(first, last):
                self._drained[slab] += 1
            while (
                self._freed < len(self._spans)
                and self._drained[self._freed] >= self._consumers
            ):
                # Every consumer is done with this slab: drop our reference
                # so the Future (and its cached ShareSet list) can be
                # collected, then let the next slab enter the window.
                self._futures[self._freed] = None
                self._freed += 1
            self._pump_locked()

    def _result(self, slab: int) -> list[ShareSet]:
        """Share sets of ``slab``, waiting for its submission."""
        with self._cond:
            while self._futures[slab] is None:
                if slab < self._freed:
                    raise ParameterError(
                        f"slab {slab} was already drained by all consumers"
                    )
                self._cond.wait()
            future = self._futures[slab]
        return future.result()

    def stream(self) -> SlabStream:
        """An ordered consumer over all slabs (one per cloud worker)."""
        return SlabStream(self)

    def __getitem__(self, seq: int) -> ShareSet:
        if not 0 <= seq < self._count:
            raise IndexError(f"secret sequence {seq} outside [0, {self._count})")
        slab = bisect_right(self._starts, seq) - 1
        return self._result(slab)[seq - self._starts[slab]]
