"""Encode workers and the streaming slab queue for the comm engine (§4.6).

CPython's GIL serialises the Python-level share bookkeeping between the
GIL-releasing hashlib/OpenSSL calls, so a thread pool cannot reproduce the
paper's near-linear encoding speedup (Figure 5a).  This module supplies the
pool that can: slabs of secrets are shipped to worker *processes*, each of
which rebuilds the client's codec once from a picklable **codec spec**
(:meth:`repro.core.convergent.ConvergentDispersal.spec`), caches it for the
life of the worker, and encodes whole slabs with the batched kernels
(:meth:`~repro.core.convergent.ConvergentDispersal.encode_batch`).

It also owns the **streaming slab queue** (:class:`SlabbedShareSets`): the
ordered, bounded hand-off between the encode stage and the per-cloud upload
workers.  Encode slabs are submitted lazily — at most ``depth`` slabs are
in flight or materialised beyond the slowest consumer — and a slab's share
sets are dropped the moment every cloud worker has drained it, so a
multi-gigabyte backup never holds more than ``depth`` slabs of shares in
memory while wire time hides behind encoding (Figure 4a's pipelining).

Design notes:

* **Per-worker codec cache** — generator matrices and decode caches are
  rebuilt once per (spec, worker) pair, not once per slab; repeated uploads
  reuse the warm codec.
* **Slabs, not secrets** — one IPC round-trip per ~1 MB slab instead of per
  8 KB secret keeps pickling overhead well under the encode cost and gives
  each worker a batch large enough for the vectorised kernels to pay off.
* **Shared-memory payloads** — when the platform supports
  ``multiprocessing.shared_memory`` (see :class:`SharedSlabTransport`),
  a slab's secrets are written once into a shared segment and the task
  pickle carries only ``(segment name, spans)``; the worker reads the
  payload in place, so the request side of the IPC copy disappears at
  large backup sizes.  Segments are unlinked by the slab-release hook the
  moment every cloud has drained the slab, bounding shared memory to the
  pipeline window.
* **Warm-up before threads** — the pool forks its workers eagerly (see
  :meth:`ProcessEncodePool.warm`) so no worker inherits a transiently held
  lock from the comm engine's cloud-worker threads.
* **Credit-based backpressure** — a new slab is submitted only when fewer
  than ``depth`` slabs sit between the submission frontier and the slowest
  consumer, so a slow cloud applies backpressure to the encode stage
  instead of letting encoded shares pile up unboundedly.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Callable, Sequence

try:  # POSIX shared memory; absent on some minimal platforms.
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - exercised only on such platforms
    resource_tracker = None
    shared_memory = None

from repro.analysis.annotations import guarded_by
from repro.core.convergent import ConvergentDispersal
from repro.errors import ParameterError
from repro.sharing.base import ShareSet

__all__ = [
    "ENCODE_SLAB_BYTES",
    "WORKER_MODES",
    "ProcessEncodePool",
    "SharedSlabTransport",
    "SlabbedShareSets",
    "SlabStream",
    "encode_shm_slab_in_worker",
    "encode_slab_in_worker",
    "plan_windows",
    "shared_slabs_available",
    "slab_spans",
]

#: Supported encode-pool flavours (``CommEngine(workers=...)``).
WORKER_MODES = ("thread", "process")

#: Target bytes of secrets per encode slab.  Big enough that pickling and
#: scheduling are noise next to the encode work; small enough that a file
#: splits into several slabs and encoding overlaps transfer per §4.6.
ENCODE_SLAB_BYTES = 1 << 20

#: Worker-process codec cache: spec tuple -> live dispersal.  Populated
#: lazily inside each worker; never shared across processes.
_WORKER_CODECS: dict[tuple, ConvergentDispersal] = {}


def _codec_for(spec: tuple) -> ConvergentDispersal:
    codec = _WORKER_CODECS.get(spec)
    if codec is None:
        codec = ConvergentDispersal.from_spec(spec)
        _WORKER_CODECS[spec] = codec
    return codec


def encode_slab_in_worker(spec: tuple, secrets: list[bytes]) -> list[ShareSet]:
    """Encode one slab inside a worker process (top level, so picklable)."""
    return _codec_for(spec).encode_batch(secrets)


def shared_slabs_available() -> bool:
    """Whether slab payloads can travel via POSIX shared memory."""
    return shared_memory is not None


def _attach_slab_segment(name: str):
    """Attach to a parent-owned slab segment from a worker process.

    The parent owns the segment's lifetime (it unlinks on slab release),
    so the attaching side must not register it with its own
    ``resource_tracker`` — otherwise every worker's tracker would try to
    clean up (and warn about) segments it never owned.
    """
    segment = shared_memory.SharedMemory(name=name)
    if resource_tracker is not None:
        try:
            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals vary
            pass
    return segment


def encode_shm_slab_in_worker(
    spec: tuple, segment_name: str, spans: list[tuple[int, int]]
) -> list[ShareSet]:
    """Encode one shared-memory slab inside a worker process.

    The slab payload was written once into the segment by the parent's
    :class:`SharedSlabTransport`; each secret is the ``(offset, length)``
    span recorded in ``spans``, so the task pickle carries only the
    segment name and span list — the per-secret byte copy through the IPC
    pipe disappears.
    """
    codec = _codec_for(spec)
    segment = _attach_slab_segment(segment_name)
    try:
        view = segment.buf
        secrets = [bytes(view[offset : offset + length]) for offset, length in spans]
    finally:
        segment.close()
    return codec.encode_batch(secrets)


class SharedSlabTransport:
    """Parent-side shared-memory arena for in-flight encode slabs.

    One segment per slab: :meth:`publish` writes the slab's secrets once
    and returns the ``(segment name, spans)`` address a worker resolves
    with :func:`encode_shm_slab_in_worker`; :meth:`release` — wired to the
    credit-based :class:`SlabbedShareSets` release hook — unlinks the
    segment the moment every cloud worker has drained the slab, so shared
    memory held never exceeds the pipeline window.  :meth:`close` sweeps
    stragglers on error paths; a worker that loses the race and finds the
    segment gone fails its (already abandoned) slab, nothing else.
    """

    #: Lock discipline (``repro analyze``, LOCK-001): the segment registry
    #: is shared between publishers, the slab-release hook (called from
    #: cloud worker threads) and the error-path sweep.
    GUARDED_BY = guarded_by(_segments="_lock")

    def __init__(self) -> None:
        if not shared_slabs_available():
            raise ParameterError(
                "multiprocessing.shared_memory is unavailable on this platform"
            )
        self._segments: dict[int, "shared_memory.SharedMemory"] = {}
        self._lock = threading.Lock()

    def publish(
        self, slab: int, secrets: Sequence[bytes]
    ) -> tuple[str, list[tuple[int, int]]]:
        """Write one slab's secrets into a fresh segment; return its address."""
        total = sum(len(secret) for secret in secrets)
        segment = shared_memory.SharedMemory(create=True, size=max(total, 1))
        # Register the segment *before* touching its buffer: if a span
        # write (or the caller's worker submission) fails, the close()
        # sweep owns the segment and unlinks it — created-but-unregistered
        # segments would outlive the process (checker rule LIFE-001).
        with self._lock:
            self._segments[slab] = segment
        spans: list[tuple[int, int]] = []
        view = segment.buf
        offset = 0
        for secret in secrets:
            view[offset : offset + len(secret)] = secret
            spans.append((offset, len(secret)))
            offset += len(secret)
        return segment.name, spans

    def _destroy(self, segment) -> None:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already swept
            pass

    def release(self, slab: int) -> None:
        """Unlink ``slab``'s segment (idempotent)."""
        with self._lock:
            segment = self._segments.pop(slab, None)
        if segment is not None:
            self._destroy(segment)

    def close(self) -> None:
        """Unlink every remaining segment (error-path sweep, idempotent)."""
        with self._lock:
            segments = list(self._segments.values())
            self._segments.clear()
        for segment in segments:
            self._destroy(segment)

    def __enter__(self) -> "SharedSlabTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._segments)


def _worker_warmup() -> None:
    """No-op task used to fork pool workers eagerly."""


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

    ``release`` (optional) is called exactly once per slab index, in slab
    order, the moment every consumer has drained that slab — the hook the
    shared-memory transport uses to unlink a slab's segment as soon as its
    shares are on the wire.
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
        release: Callable[[int], None] | None = None,
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
        self._release_hook = release
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

        A submit that *raises* (a broken process pool, a full ``/dev/shm``
        on the shared-memory publish) is captured as a failed future: the
        consumers observe the error at ``result()`` and unwind through
        their stream context managers.  Swallowing it into the slab slot —
        rather than letting it escape whichever consumer happened to turn
        the pump — is what keeps the other cloud workers from blocking
        forever on a slot that would otherwise stay None.
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
                # collected, fire the release hook (shared-memory segments
                # unlink here), then let the next slab enter the window.
                self._futures[self._freed] = None
                if self._release_hook is not None:
                    self._release_hook(self._freed)
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


class ProcessEncodePool:
    """A :class:`ProcessPoolExecutor` that encodes slabs via codec specs.

    The pool is constructed lazily but forked eagerly (:meth:`warm`), and
    every submission ships ``(spec, secrets)`` — never live codec objects —
    so the only requirement on the dispersal is a non-None
    :meth:`~repro.core.convergent.ConvergentDispersal.spec`.
    """

    def __init__(self, width: int) -> None:
        if width < 1:
            raise ParameterError(f"width must be >= 1, got {width}")
        self.width = width
        self._pool: ProcessPoolExecutor | None = None

    def warm(self) -> None:
        """Start the pool and fork all workers now.

        Forking before the comm engine's cloud-worker threads get busy
        means no child can inherit a lock held mid-operation by a sibling
        thread.
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.width)
            for future in [
                self._pool.submit(_worker_warmup) for _ in range(self.width)
            ]:
                future.result()

    def submit(
        self, dispersal: ConvergentDispersal, secrets: list[bytes]
    ) -> Future:
        """Encode ``secrets`` on a worker; resolves to a ShareSet list."""
        spec = dispersal.spec()
        if spec is None:
            raise ParameterError(
                f"dispersal for scheme {dispersal.scheme!r} has no picklable "
                "spec; process workers cannot encode it"
            )
        self.warm()
        assert self._pool is not None
        return self._pool.submit(encode_slab_in_worker, spec, secrets)

    def submit_shared(
        self,
        dispersal: ConvergentDispersal,
        segment_name: str,
        spans: list[tuple[int, int]],
    ) -> Future:
        """Encode a slab already published to shared memory.

        The task pickle carries only the segment name and the per-secret
        ``(offset, length)`` spans — the worker reads the payload straight
        from the segment (see :class:`SharedSlabTransport`).
        """
        spec = dispersal.spec()
        if spec is None:
            raise ParameterError(
                f"dispersal for scheme {dispersal.scheme!r} has no picklable "
                "spec; process workers cannot encode it"
            )
        self.warm()
        assert self._pool is not None
        return self._pool.submit(encode_shm_slab_in_worker, spec, segment_name, spans)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
