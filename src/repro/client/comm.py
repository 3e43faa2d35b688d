"""Parallel multi-cloud communication engine (the "comm module", §4.6).

The paper's client "uploads to all clouds concurrently via multi-threading",
so wall-clock transfer cost is the per-cloud *maximum*, not the sum.  This
module gives the client that concurrency:

* a persistent **per-cloud worker** (one thread per cloud connection) that
  owns all traffic to its server, so operations against different clouds
  overlap while traffic to one cloud stays ordered;
* an **encode pool** of ``threads`` threads that encodes *slabs* of
  secrets with the batched codec kernels while earlier slabs are already
  in flight — encoding overlaps transfer within one upload, the
  pipelining of Figure 4(a).  Every secret the engine is given is
  encoded once (the client keeps the ones a delta finalize copies away);
* **one upload loop** (:meth:`CommEngine.upload_file`): each slab is
  encoded, then fed to every cloud's :class:`CloudUploader` on that
  cloud's worker, whose FIFO keeps slab order.  The caller stops
  submitting while ``max(pipeline_depth, threads)`` slabs are not yet fed
  to every cloud, so a slow cloud holds the encode stage back instead of
  letting shares pile up;
* a windowed upload path per cloud: shares accumulate into 4 MB windows
  (§4.1 batching), each window is intra-user-dedup-queried (§3.3 stage 1)
  and its unique shares uploaded, while later secrets are still encoding;
* a **windowed prefetch** for restores (:meth:`stream_windows`): each
  read slot's fetches run on its cloud's worker, ``pipeline_depth``
  windows ahead of the one being decoded, so the client's batched decode
  starts before the last share arrives.  Which server serves a slot, and
  failover to a spare, is the read session's business
  (:class:`~repro.client.read.DirectReadSession`), not this module's.

That pipelined schedule is the only one beside the **inline** reference:
with ``threads == 1`` and ``pipeline_depth == 1`` every operation runs on
the caller's thread, one slab or window at a time, with byte-identical
wire behaviour, so single-threaded uses stay deterministic and pool-free.
Transfer *time* is not this module's business: the link model lives in
:mod:`repro.cloud.network` and :func:`repro.bench.transfer.
client_upload_walltime` prices a receipt's ``wire_bytes_per_cloud``.
"""

from __future__ import annotations

import threading
import time
import traceback
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator, Sequence, TypeVar

from repro.analysis.annotations import guarded_by
from repro.chunking.base import Chunk
from repro.client.workers import slab_spans
from repro.core.convergent import ConvergentDispersal
from repro.core.package_codec import KeyedSecrets
from repro.crypto.hashing import fingerprint
from repro.errors import ParameterError
from repro.obs.registry import REGISTRY
from repro.obs.trace import ZERO_TRACE_ID, current_context, use_context
from repro.server.messages import ShareMeta, ShareUpload
from repro.server.server import CDStoreServer
from repro.sharing.base import ShareSet

__all__ = [
    "CommEngine",
    "CloudUploadResult",
    "CloudUploader",
    "PIPELINE_DEPTH",
    "UPLOAD_BATCH_BYTES",
]

#: Client-side upload batch size (§4.1: "batch the shares ... in a 4MB
#: buffer and upload the buffer when it is full").
UPLOAD_BATCH_BYTES = 4 << 20

#: Unacked upload batches a :class:`CloudUploader` keeps in flight when
#: its server supports pipelined acks (``upload_shares_async``, the mux
#: proxy).  Bounds client memory to this many serialized batches while
#: removing the round-trip stall between consecutive batches.
UPLOAD_ACK_WINDOW = 4

#: What ``pipeline_depth="auto"`` resolves to (the CLI passes ``"auto"``
#: when ``--pipeline-depth`` is unset; an explicit integer always wins).
#: One slab encoding while one is on the wire gives full overlap whichever
#: stage is slower; more depth only absorbs jitter, at linear memory.
PIPELINE_DEPTH = 2

# Comm-pipeline stage timings (docs/OBSERVABILITY.md): one observation
# per encode slab / upload batch, so the two histograms together show
# which §4.6 stage bounds an upload (client/read.py times restores).
_WINDOW_ENCODE_SECONDS = REGISTRY.histogram(
    "client_window_encode_seconds",
    "Wall time encoding one slab of secrets into shares",
)
_WINDOW_UPLOAD_SECONDS = REGISTRY.histogram(
    "client_window_upload_seconds",
    "Wall time putting one 4 MB upload batch on a cloud's wire",
)


def _carry_context(fn: Callable[..., T]) -> Callable[..., T]:
    """Bind the calling thread's trace context into a pool submission.

    Thread-local context does not follow work onto the engine's worker
    threads; this captures ``(trace_id, span_id)`` at submit time and
    re-activates it in the worker, so per-cloud traffic stays attributed
    to the client span that caused it.  Untraced callers get ``fn`` back
    unwrapped — the hot path costs one tuple compare.
    """
    trace_id, span_id = current_context()
    if trace_id == ZERO_TRACE_ID:
        return fn

    def run(*args, **kwargs):
        with use_context(trace_id, span_id):
            return fn(*args, **kwargs)

    return run


T = TypeVar("T")
W = TypeVar("W")


@dataclass
class CloudUploadResult:
    """Outcome of one file upload on one cloud connection."""

    #: Per-secret share metadata in sequence order (drives finalisation).
    metas: list[ShareMeta] = field(default_factory=list)
    #: Share bytes that actually crossed the wire after intra-user dedup.
    wire_bytes: int = 0
    #: Number of shares transferred (non-duplicates).
    transferred: int = 0
    #: Upload RPCs actually issued (diagnostic).
    batches: int = 0


class CloudUploader:
    """Stateful per-cloud upload stage: dedup-query + batch + transfer.

    One instance per cloud connection per file.  :meth:`feed` accepts the
    next secret's share the moment it exists (streaming), accumulating 4 MB
    query windows and the persistent §4.1 upload buffer exactly as the
    pre-streaming whole-file pass did — the wire traffic is byte-identical
    regardless of how the feed is sliced into slabs.  :meth:`finish`
    flushes the tails and waits for the last acks.
    """

    def __init__(self, server: CDStoreServer, cloud_idx: int, user_id: str) -> None:
        self.server = server
        self.cloud_idx = cloud_idx
        self.user_id = user_id
        self.result = CloudUploadResult()
        self._seen: set[bytes] = set()
        self._window: list[ShareUpload] = []
        self._window_bytes = 0
        # The 4 MB upload buffer persists across query windows (§4.1: the
        # buffer holds *unique* shares and is uploaded only when full).
        self._batch: list[ShareUpload] = []
        self._batch_bytes = 0
        # Pipelined-ack capability: the remote proxy exposes
        # upload_shares_async; in-process servers do not, and keep the
        # one-call-per-batch path.
        self._upload_async = getattr(server, "upload_shares_async", None)
        self._inflight: deque = deque()
        #: The first error a feed of this cloud raised (see :meth:`fail`).
        self.error: BaseException | None = None

    def _send_batch(self) -> None:
        if not self._batch:
            return
        batch, self._batch = self._batch, []
        self._batch_bytes = 0
        clock = time.perf_counter()
        if self._upload_async is not None:
            # Pipelined: put the batch on the wire and only *wait* when
            # the ack window is full, so consecutive batches (and the
            # next window's dedup query) overlap the server's apply.  A
            # failed batch surfaces here or in finish(); losing the tail
            # of the window is safe because upload_shares is idempotent
            # and the dedup index is only advanced by acked finalize.
            while len(self._inflight) >= UPLOAD_ACK_WINDOW:
                self._inflight.popleft().result()
            self._inflight.append(self._upload_async(self.user_id, batch))
        else:
            self.server.upload_shares(self.user_id, batch)
        # Pipelined sends observe only the enqueue (+ any ack-window
        # stall) — that *is* the wall time this batch cost the client.
        _WINDOW_UPLOAD_SECONDS.observe(time.perf_counter() - clock)
        self.result.batches += 1

    def _drain_acks(self) -> None:
        while self._inflight:
            self._inflight.popleft().result()

    def _flush_window(self) -> None:
        if not self._window:
            return
        known = self.server.query_duplicates(
            self.user_id, [upload.meta.fingerprint for upload in self._window]
        )
        for upload, is_known in zip(self._window, known):
            if is_known or upload.meta.fingerprint in self._seen:
                continue
            self._seen.add(upload.meta.fingerprint)
            self._batch.append(upload)
            self._batch_bytes += len(upload.data)
            self.result.wire_bytes += len(upload.data)
            self.result.transferred += 1
            if self._batch_bytes >= UPLOAD_BATCH_BYTES:
                self._send_batch()
        self._window = []
        self._window_bytes = 0

    def feed(self, chunk: Chunk, share: bytes) -> None:
        """Accept the share of the next secret in sequence order."""
        meta = ShareMeta(
            fingerprint=fingerprint(share, domain="client"),
            share_size=len(share),
            secret_seq=chunk.seq,
            secret_size=chunk.size,
        )
        self.result.metas.append(meta)
        self._window.append(ShareUpload(meta=meta, data=share))
        self._window_bytes += len(share)
        if self._window_bytes >= UPLOAD_BATCH_BYTES:
            self._flush_window()

    def feed_slab(self, chunks: list[Chunk], share_sets: list[ShareSet]) -> None:
        """Accept the next encoded slab: each secret's share for this cloud."""
        for chunk, share_set in zip(chunks, share_sets):
            self.feed(chunk, share_set.shares[self.cloud_idx])

    def fail(self, exc: BaseException) -> None:
        """Record the error that ends this cloud's upload: later slabs skip
        the cloud and its finish raises the error.  The error's frames are
        cleared, so keeping it pins no slab of shares."""
        traceback.clear_frames(exc.__traceback__)
        self.error = exc

    def finish(self) -> CloudUploadResult:
        """Flush the tails and wait for every outstanding ack."""
        self._flush_window()
        self._send_batch()
        self._drain_acks()
        return self.result


class CommEngine:
    """Persistent per-cloud worker pool driving all client ⇄ server traffic.

    Parameters
    ----------
    servers:
        The client's server list.  The *list object* is shared (not copied)
        so in-place replacements — e.g. after
        :meth:`~repro.system.cdstore.CDStoreSystem.wipe_cloud` — are seen
        by the engine immediately.
    threads:
        Encode-pool width; with ``pipeline_depth == 1``, ``threads == 1``
        disables all pools and runs inline.
    pipeline_depth:
        Pipeline windows (encode slabs on upload, share windows on
        restore) in flight between stages: a positive integer, or
        ``"auto"`` for :data:`PIPELINE_DEPTH`.  Resolved here, once, to
        the ``int`` kept in :attr:`pipeline_depth` and recorded in the
        upload receipt.  The per-cloud workers overlap wire time with
        encoding/decoding even at ``threads == 1``, and the shares held
        in flight are bounded by the window budget, not the file size.
    """

    #: Lock discipline (``repro analyze``, LOCK-001): pool construction
    #: and teardown race when an engine is shared across caller threads,
    #: so the pool handles are only swapped under ``_init_lock``.
    GUARDED_BY = guarded_by(
        _encode_pool="_init_lock", _cloud_workers="_init_lock"
    )

    def __init__(
        self,
        servers: list[CDStoreServer],
        threads: int = 1,
        pipeline_depth: int | str = 1,
    ) -> None:
        if threads < 1:
            raise ParameterError(f"threads must be >= 1, got {threads}")
        if pipeline_depth == "auto":
            pipeline_depth = PIPELINE_DEPTH
        if not isinstance(pipeline_depth, int) or pipeline_depth < 1:
            raise ParameterError(
                f"pipeline_depth must be >= 1 or 'auto', got {pipeline_depth!r}"
            )
        self.servers = servers
        self.threads = threads
        self.pipeline_depth: int = pipeline_depth
        self._encode_pool: ThreadPoolExecutor | None = None
        self._cloud_workers: list[ThreadPoolExecutor] | None = None
        self._init_lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def parallel(self) -> bool:
        """Whether the pipelined schedule (per-cloud workers) is in force;
        False is the inline reference."""
        return self.threads > 1 or self.pipeline_depth > 1

    def _ensure_workers(self) -> tuple[ThreadPoolExecutor, list[ThreadPoolExecutor]]:
        """Start the pools if they are not running; returns (encode pool,
        cloud workers) as they stand, for a caller that must not see them
        swapped by a concurrent :meth:`close`."""
        with self._init_lock:  # engines may be shared across caller threads
            if self._cloud_workers is None:
                self._encode_pool = ThreadPoolExecutor(
                    max_workers=self.threads, thread_name_prefix="cdstore-encode"
                )
                self._cloud_workers = [
                    ThreadPoolExecutor(
                        max_workers=1, thread_name_prefix=f"cdstore-cloud-{i}"
                    )
                    for i in range(len(self.servers))
                ]
            return self._encode_pool, self._cloud_workers

    def close(self) -> None:
        """Shut the worker pools down (idempotent)."""
        with self._init_lock:  # must not race a concurrent _ensure_workers
            if self._encode_pool is not None:
                self._encode_pool.shutdown(wait=True)
                self._encode_pool = None
            if self._cloud_workers is not None:
                for pool in self._cloud_workers:
                    pool.shutdown(wait=True)
                self._cloud_workers = None

    def __enter__(self) -> "CommEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # generic fan-out
    # ------------------------------------------------------------------
    @staticmethod
    def _gather(futures: list[Future]) -> list:
        """Await *every* future, then re-raise the first failure.

        Waiting for all of them before raising means no background worker
        is still mutating server state when the caller sees the error, and
        no sibling exception goes unretrieved.
        """
        results = []
        first_error: BaseException | None = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
                results.append(None)
        if first_error is not None:
            raise first_error
        return results

    def _slot(self, server: CDStoreServer) -> int | None:
        for i, candidate in enumerate(self.servers):
            if candidate is server:
                return i
        return None

    def _pool_for(self, server: CDStoreServer) -> ThreadPoolExecutor:
        """The dedicated worker of ``server``'s cloud (encode pool if none)."""
        assert self._cloud_workers is not None and self._encode_pool is not None
        slot = self._slot(server)
        return self._cloud_workers[slot] if slot is not None else self._encode_pool

    def map_servers(
        self,
        fn: Callable[[CDStoreServer], T],
        servers: Sequence[CDStoreServer],
    ) -> list[T]:
        """Apply ``fn`` to each server, concurrently when parallel.

        Each call runs on the target server's dedicated cloud worker, so
        concurrent ``map_servers`` traffic to one cloud stays ordered.
        Results come back in ``servers`` order; all calls complete before
        the first exception (in that order) propagates.
        """
        if not self.parallel or len(servers) < 2:
            results, errors = [], []
            for server in servers:
                try:
                    results.append(fn(server))
                except Exception as exc:
                    errors.append(exc)
            if errors:
                raise errors[0]
            return results
        self._ensure_workers()
        task = _carry_context(fn)
        futures = [self._pool_for(server).submit(task, server) for server in servers]
        return self._gather(futures)

    # ------------------------------------------------------------------
    # upload path (backup)
    # ------------------------------------------------------------------
    @staticmethod
    def _encode_slab(
        dispersal: ConvergentDispersal,
        secrets: list[bytes],
        start: int,
        file_keys: list[bytes | None],
    ) -> list[ShareSet]:
        """Encode the slab of secrets ``start, start + 1, ...``.

        The secrets' hash keys are ``file_keys[start:]`` when the chunker
        already computed them, else computed here and stored there (a
        dispersal that :attr:`~ConvergentDispersal.has_hash_keys` only);
        the codec encodes from them instead of hashing each secret again.
        """
        clock = time.perf_counter()
        if dispersal.has_hash_keys:
            end = start + len(secrets)
            keys = file_keys[start:end]
            if None in keys:
                keys = file_keys[start:end] = dispersal.hash_keys(secrets)
            secrets = KeyedSecrets(secrets, keys)
        share_sets = dispersal.encode_batch(secrets)
        _WINDOW_ENCODE_SECONDS.observe(time.perf_counter() - clock)
        return share_sets

    @staticmethod
    def _feed(uploader: CloudUploader, chunks: list[Chunk], box: list[Future]) -> None:
        """A cloud worker's feed of one encoded slab to ``uploader``.

        ``box`` holds the slab's future and the feed takes it out, so
        neither the finished task nor a frame that a recorded error keeps
        pins the slab.  The worker runs one task at a time, in slab order,
        so a feed that raised has recorded its error on ``uploader`` (its
        frames' locals cleared) before the next one starts: that cloud
        skips the rest of the file, waiting only for each slab's encode to
        end, so none runs on once the upload is over.
        """
        slab = box.pop()
        if uploader.error is not None:
            wait((slab,))
            return
        try:
            uploader.feed_slab(chunks, slab.result())
        except BaseException as exc:
            del slab
            uploader.fail(exc)

    @staticmethod
    def _finish(uploader: CloudUploader) -> CloudUploadResult:
        """A cloud worker's :meth:`CloudUploader.finish` after its last
        feed, or the error a feed recorded."""
        if uploader.error is not None:
            raise uploader.error
        return uploader.finish()

    def upload_file(
        self,
        user_id: str,
        dispersal: ConvergentDispersal,
        chunks: list[Chunk],
        keys: list[bytes | None] | None = None,
        clouds: Sequence[int] | None = None,
    ) -> list[CloudUploadResult]:
        """Encode ``chunks`` slab by slab and send each cloud its shares.

        Returns one result per cloud of ``clouds`` (default: every cloud,
        index ``i`` ↔ cloud ``i``), whose metas carry each chunk's own
        ``seq``.  ``keys`` holds each chunk's hash key, or None where the
        encode slabs are to compute it and store it there.

        Inline, each slab is encoded and fed on the caller's thread.
        Pipelined, it is encoded on the encode pool and fed on each
        cloud's worker; the caller waits for the oldest slab's feeds
        before submitting one more than ``max(pipeline_depth, threads)``
        (a pool of ``threads`` encoders cannot be kept busy by fewer).
        Either way the wire traffic is that of encoding the whole file up
        front: the 4 MB windows accumulate the same byte sequence.  A
        failure ends alike too: a cloud whose feed fails gets no later
        slab, the others are fed and finished, no slab is encoded once
        every cloud has failed, and then the error of the first failed
        cloud (in ``clouds`` order) is raised.
        """
        if keys is None:
            keys = [None] * len(chunks)
        uploaders = [
            CloudUploader(self.servers[idx], idx, user_id)
            for idx in (range(len(self.servers)) if clouds is None else clouds)
        ]
        spans = slab_spans([chunk.size for chunk in chunks], self.threads)
        if not self.parallel or len(chunks) < 2:
            for start, end in spans:
                if all(uploader.error is not None for uploader in uploaders):
                    break
                part = chunks[start:end]
                slab = self._encode_slab(dispersal, [c.data for c in part], start, keys)
                for uploader in uploaders:
                    if uploader.error is None:
                        try:
                            uploader.feed_slab(part, slab)
                        except BaseException as exc:
                            uploader.fail(exc)
                del slab  # hold no slab of shares while the next encodes
            for uploader in uploaders:
                if uploader.error is None:
                    try:
                        uploader.finish()
                    except BaseException as exc:
                        uploader.fail(exc)
            for uploader in uploaders:
                if uploader.error is not None:
                    raise uploader.error
            return [uploader.result for uploader in uploaders]

        encode_pool, cloud_workers = self._ensure_workers()
        encode, feed = _carry_context(self._encode_slab), _carry_context(self._feed)
        finish = _carry_context(self._finish)
        workers = [cloud_workers[uploader.cloud_idx] for uploader in uploaders]
        unfed: deque[list[Future]] = deque()
        finishing: list[Future] = []
        slab: Future | None = None
        try:
            for start, end in spans:
                if len(unfed) >= max(self.pipeline_depth, self.threads):
                    wait(unfed[0])
                    unfed.popleft()
                if all(uploader.error is not None for uploader in uploaders):
                    break
                part = chunks[start:end]
                slab = encode_pool.submit(encode, dispersal, [c.data for c in part], start, keys)
                fed: list[Future] = []
                unfed.append(fed)
                for worker, uploader in zip(workers, uploaders):
                    fed.append(worker.submit(feed, uploader, part, [slab]))
                slab = None  # the feeds hold it until the last cloud is fed
            for worker, uploader in zip(workers, uploaders):
                finishing.append(worker.submit(finish, uploader))
        except BaseException:
            # The caller's own loop failed (a pool shut down under it, an
            # interrupt): let everything it submitted end before raising.
            submitted = [future for fed in unfed for future in fed] + finishing
            wait(submitted if slab is None else [slab, *submitted])
            raise
        return self._gather(finishing)

    # ------------------------------------------------------------------
    # restore path (download)
    # ------------------------------------------------------------------
    def stream_windows(
        self,
        windows: Sequence[W],
        slots: Sequence[CDStoreServer],
        fetch: Callable[[int, W], T],
    ) -> Iterator[list[T]]:
        """Prefetch ``fetch(i, window)`` for every slot ``i``, window by window.

        Yields each window's per-slot results in window order.  When the
        engine is parallel, slot ``i``'s fetches run on the cloud worker of
        ``slots[i]``, up to ``pipeline_depth`` windows ahead of the one the
        caller is consuming — the restore mirror of the upload pipelining;
        otherwise windows are fetched inline, one at a time.
        """
        if not self.parallel:
            for window in windows:
                yield [fetch(i, window) for i in range(len(slots))]
            return

        self._ensure_workers()
        task = _carry_context(fetch)
        pools = [self._pool_for(server) for server in slots]

        def submit(window: W) -> list[Future]:
            return [pool.submit(task, i, window) for i, pool in enumerate(pools)]

        ahead = iter(windows)
        pending = deque(submit(window) for window in islice(ahead, self.pipeline_depth))
        try:
            while pending:
                results = self._gather(pending.popleft())
                pending.extend(submit(window) for window in islice(ahead, 1))
                yield results
        finally:
            # On error or early abandonment, drain in-flight fetches so no
            # worker is left mutating shared state and no sibling exception
            # goes unretrieved.
            for futures in pending:
                for future in futures:
                    future.cancel()
                    try:
                        future.result()
                    except BaseException:
                        pass
