"""Parallel multi-cloud communication engine (the "comm module", §4.6).

The paper's client "uploads to all clouds concurrently via multi-threading",
so wall-clock transfer cost is the per-cloud *maximum*, not the sum.  This
module gives the client that concurrency:

* a persistent **per-cloud worker** (one thread per cloud connection) that
  owns all traffic to its server, so operations against different clouds
  overlap while traffic to one cloud stays ordered;
* a pluggable **encode pool** (``threads`` workers, ``workers`` flavour)
  that encodes *slabs* of secrets with the batched codec kernels while
  earlier slabs are already in flight — encoding overlaps transfer within
  one upload, the pipelining of Figure 4(a);
* a **bounded slab queue** between the two: encode slabs flow into the
  per-cloud upload workers the moment they finish, so wire time hides
  behind encoding even with a single encode thread, and at most
  ``max(pipeline_depth, threads)`` slabs of shares are ever materialised —
  a slow cloud applies backpressure to the encode stage instead of letting
  shares pile up unboundedly;
* a windowed upload path per cloud: shares accumulate into 4 MB windows
  (§4.1 batching), each window is intra-user-dedup-queried (§3.3 stage 1)
  and its unique shares uploaded, while later secrets are still encoding;
* a **windowed restore path**: per-window share maps stream through the
  per-cloud workers (:meth:`stream_share_windows`), ``pipeline_depth``
  windows ahead of the one being decoded, so the client's batched decode
  starts before the last share arrives, with failover to a spare
  reachable cloud at *per-window* granularity — a cloud that stalls or
  corrupts mid-restore costs one window's retry, not the whole file.

That pipelined schedule is the only one beside the **inline** reference:
with ``threads == 1`` and ``pipeline_depth == 1`` every operation runs on
the caller's thread, one slab or window at a time, with byte-identical
wire behaviour, so single-threaded uses stay deterministic and pool-free.
Transfer *time* is not this module's business: the link model lives in
:mod:`repro.cloud.network` and :func:`repro.bench.transfer.
client_upload_walltime` prices a receipt's ``wire_bytes_per_cloud``.

Thread pool vs process pool
---------------------------

``workers="thread"`` (default) encodes slabs on a
:class:`~concurrent.futures.ThreadPoolExecutor`.  Threads share the
client's address space, so there is no pickling cost and pre-built codecs
(e.g. the server-aided CAONT-RS bound to a live key server) work
unchanged — but CPython's GIL serialises the Python-level bookkeeping
between the GIL-releasing hashlib/OpenSSL calls, so throughput plateaus
near single-thread speed.  Threads win for small uploads, for codecs
without a picklable spec, and when encoding merely needs to overlap
*transfer* (the §4.6 pipelining) rather than scale with cores.

``workers="process"`` encodes slabs on a
:class:`~repro.client.workers.ProcessEncodePool`: each worker process
rebuilds the codec once from the dispersal's picklable spec, caches it,
and encodes whole slabs with the vectorised batch kernels, so encoding
escapes the GIL and scales with cores like the paper's C++ prototype
(Figure 5a).  The price is one fork per worker and one pickling
round-trip per slab — and on platforms with
``multiprocessing.shared_memory`` only the *reply* (shares back) is
pickled: slab payloads are written once into per-slab shared segments
that workers read in place, unlinked by the slab-release hook the moment
every cloud drained the slab.  Noise for multi-megabyte backups, overhead
for tiny ones.  Processes win for bulk encoding on
multi-core hosts.  A dispersal whose ``spec()`` is None (pre-built codec
objects) silently falls back to the thread pool, keeping behaviour
correct everywhere.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence, TypeVar

from repro.analysis.annotations import guarded_by
from repro.chunking.base import Chunk
from repro.client.workers import (
    ProcessEncodePool,
    SharedSlabTransport,
    SlabbedShareSets,
    WORKER_MODES,
    shared_slabs_available,
    slab_spans,
)
from repro.core.convergent import ConvergentDispersal
from repro.crypto.hashing import fingerprint
from repro.errors import (
    CloudUnavailableError,
    ParameterError,
    ProtocolError,
    StorageError,
)
from repro.obs.registry import REGISTRY
from repro.obs.trace import ZERO_TRACE_ID, current_context, use_context
from repro.server.index import FileEntry
from repro.server.messages import RecipeEntry, ShareMeta, ShareUpload
from repro.server.server import CDStoreServer

__all__ = [
    "CommEngine",
    "CloudUploadResult",
    "CloudUploader",
    "FETCH_ERRORS",
    "FileSource",
    "PIPELINE_DEPTH",
    "SlotShares",
    "UPLOAD_BATCH_BYTES",
    "WindowShares",
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
# per encode slab / upload batch / restore-window slot fetch, so the
# three histograms together show which §4.6 stage bounds a transfer.
_WINDOW_ENCODE_SECONDS = REGISTRY.histogram(
    "client_window_encode_seconds",
    "Wall time encoding one slab of secrets into shares",
)
_WINDOW_UPLOAD_SECONDS = REGISTRY.histogram(
    "client_window_upload_seconds",
    "Wall time putting one 4 MB upload batch on a cloud's wire",
)
_WINDOW_RESTORE_SECONDS = REGISTRY.histogram(
    "client_window_restore_seconds",
    "Wall time fetching one restore window's shares from one cloud",
)
_FAILOVERS = REGISTRY.counter(
    "client_failovers_total",
    "Restore slots that replaced a failed cloud with a promoted spare",
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


#: Errors meaning "this server cannot currently supply usable data" — an
#: outage, missing objects (NotFoundError is a StorageError), a corrupt
#: container, or a malformed recipe.  The restore path fails over to a
#: spare cloud or skips the source rather than aborting the download.
FETCH_ERRORS = (CloudUnavailableError, ProtocolError, StorageError)

T = TypeVar("T")


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
        self._window: list[tuple[ShareMeta, bytes]] = []
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
            self.user_id, [meta.fingerprint for meta, _ in self._window]
        )
        for (meta, payload), is_known in zip(self._window, known):
            if is_known or meta.fingerprint in self._seen:
                continue
            self._seen.add(meta.fingerprint)
            self._batch.append(ShareUpload(meta=meta, data=payload))
            self._batch_bytes += len(payload)
            self.result.wire_bytes += len(payload)
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
        self._window.append((meta, share))
        self._window_bytes += len(share)
        if self._window_bytes >= UPLOAD_BATCH_BYTES:
            self._flush_window()

    def finish(self) -> CloudUploadResult:
        """Flush the tails and wait for every outstanding ack."""
        self._flush_window()
        self._send_batch()
        self._drain_acks()
        return self.result


@dataclass
class FileSource:
    """One restore slot: the server currently serving it + its metadata.

    Failover replaces all three fields in place (each server has its own
    recipe — share fingerprints are per-cloud), so later windows read from
    the promoted spare while earlier, already-decoded windows keep the
    shares the original server supplied.
    """

    slot: int
    server: CDStoreServer
    entry: FileEntry
    recipe: list[RecipeEntry]


@dataclass
class SlotShares:
    """One slot's contribution to one restore window (a point-in-time
    snapshot — failover in a later window does not mutate it)."""

    server: CDStoreServer
    recipe: list[RecipeEntry]
    shares: dict[bytes, bytes]


@dataclass
class WindowShares:
    """Shares of secrets ``[start, end)`` from every restore slot."""

    start: int
    end: int
    slots: list[SlotShares]


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
    workers:
        Encode-pool flavour: ``"thread"`` (default) or ``"process"``.  See
        the module docstring for when each wins.
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
        _encode_pool="_init_lock",
        _process_pool="_init_lock",
        _cloud_workers="_init_lock",
    )

    def __init__(
        self,
        servers: list[CDStoreServer],
        threads: int = 1,
        workers: str = "thread",
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
        if workers not in WORKER_MODES:
            raise ParameterError(
                f"unknown workers mode {workers!r}; expected one of {WORKER_MODES}"
            )
        self.servers = servers
        self.threads = threads
        self.workers = workers
        self.pipeline_depth: int = pipeline_depth
        self._encode_pool: ThreadPoolExecutor | None = None
        self._process_pool: ProcessEncodePool | None = None
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

    def _ensure_workers(self) -> None:
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

    def _ensure_process_pool(self) -> ProcessEncodePool:
        """Create (and eagerly fork) the encode processes on first use.

        Deferred to the first process-encoded upload so download-only and
        metadata traffic never pays the forks; the pool is warmed before
        this upload's cloud-worker submissions go out, while the engine
        threads are idle.  Lazy slab submissions from cloud-worker threads
        are safe afterwards: submitting to a warm pool never forks.
        """
        with self._init_lock:
            if self._process_pool is None:
                pool = ProcessEncodePool(self.threads)
                pool.warm()
                self._process_pool = pool
            return self._process_pool

    def close(self) -> None:
        """Shut the worker pools down (idempotent)."""
        with self._init_lock:  # must not race a concurrent _ensure_workers
            if self._encode_pool is not None:
                self._encode_pool.shutdown(wait=True)
                self._encode_pool = None
            if self._process_pool is not None:
                self._process_pool.close()
                self._process_pool = None
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
            return [fn(server) for server in servers]
        self._ensure_workers()
        task = _carry_context(fn)
        futures = [self._pool_for(server).submit(task, server) for server in servers]
        return self._gather(futures)

    # ------------------------------------------------------------------
    # upload path (backup)
    # ------------------------------------------------------------------
    def _submit_encode_slabs(
        self, dispersal: ConvergentDispersal, chunks: list[Chunk]
    ) -> tuple[SlabbedShareSets, SharedSlabTransport | None]:
        """Fan chunker output into encode slabs on the configured pool.

        Chunks are grouped into contiguous slabs sized for the pool (see
        :func:`repro.client.workers.slab_spans`); each slab encodes with
        the batched codec kernels.  Process workers are used when
        configured *and* the dispersal has a picklable spec; otherwise the
        slab runs on the thread pool.

        Process-encoded slabs ship their payload through shared memory
        when the platform allows: the secrets are written once into a
        per-slab segment and the worker addresses ``(offset, length)``
        spans, so the task pickle stays tiny.  The returned transport (or
        None) owns those segments; the slab queue's release hook unlinks
        each segment as soon as every cloud has drained its slab, and the
        caller must :meth:`~SharedSlabTransport.close` the transport after
        the upload to sweep error paths.

        Slabs are submitted lazily: at most ``max(pipeline_depth,
        threads)`` beyond the slowest cloud worker (a pool of ``threads``
        encoders cannot be kept busy by fewer), each dropped from memory
        once every cloud has drained it.
        """
        assert self._encode_pool is not None
        spans = slab_spans([chunk.size for chunk in chunks], self.threads)
        slab_of = {start: idx for idx, (start, _end) in enumerate(spans)}
        pool = None
        transport = None
        if self.workers == "process" and dispersal.spec() is not None:
            pool = self._ensure_process_pool()
            if shared_slabs_available():
                transport = SharedSlabTransport()

        def encode_slab(secrets: list[bytes]):
            clock = time.perf_counter()
            share_sets = dispersal.encode_batch(secrets)
            _WINDOW_ENCODE_SECONDS.observe(time.perf_counter() - clock)
            return share_sets

        def submit(start: int, end: int) -> Future:
            secrets = [chunk.data for chunk in chunks[start:end]]
            if pool is None:
                # Thread-pool slabs time the encode in-worker; process
                # slabs run out-of-process where the registry's cells
                # are not ours, so they go unobserved.
                return self._encode_pool.submit(_carry_context(encode_slab), secrets)
            if transport is None:
                return pool.submit(dispersal, secrets)
            name, layout = transport.publish(slab_of[start], secrets)
            return pool.submit_shared(dispersal, name, layout)

        view = SlabbedShareSets(
            spans,
            submit,
            depth=max(self.pipeline_depth, self.threads),
            consumers=len(self.servers),
            release=transport.release if transport is not None else None,
        )
        return view, transport

    def upload_file(
        self,
        user_id: str,
        dispersal: ConvergentDispersal,
        chunks: list[Chunk],
    ) -> list[CloudUploadResult]:
        """Pipeline one file's shares onto every cloud.

        Returns the per-cloud results (index ``i`` ↔ cloud ``i``).
        """
        n = len(self.servers)
        if self.parallel and len(chunks) > 1:
            self._ensure_workers()
            assert self._cloud_workers is not None
            encoded, transport = self._submit_encode_slabs(dispersal, chunks)
            try:
                task = _carry_context(self._upload_to_cloud)
                futures = [
                    self._cloud_workers[idx].submit(
                        task, idx, user_id, chunks, encoded
                    )
                    for idx in range(n)
                ]
                results = self._gather(futures)
            finally:
                # Normally every segment was already unlinked by the
                # release hook; on error paths this sweeps the stragglers
                # (their encodes were abandoned with the upload).
                if transport is not None:
                    transport.close()
        else:
            uploaders = [
                CloudUploader(self.servers[idx], idx, user_id) for idx in range(n)
            ]
            # Inline path: encode one slab at a time and feed every cloud's
            # uploader before encoding the next, so even the serial client
            # holds at most one slab of shares (wire-identical to encoding
            # the whole file up front — the 4 MB windows accumulate the
            # same byte sequence either way).
            spans = slab_spans([chunk.size for chunk in chunks], 1)
            for start, end in spans:
                clock = time.perf_counter()
                share_sets = dispersal.encode_batch(
                    [chunk.data for chunk in chunks[start:end]]
                )
                _WINDOW_ENCODE_SECONDS.observe(time.perf_counter() - clock)
                for uploader in uploaders:
                    for seq in range(start, end):
                        uploader.feed(
                            chunks[seq],
                            share_sets[seq - start].shares[uploader.cloud_idx],
                        )
            results = [uploader.finish() for uploader in uploaders]
        return results

    def _upload_to_cloud(
        self,
        cloud_idx: int,
        user_id: str,
        chunks: list[Chunk],
        share_sets: SlabbedShareSets,
    ) -> CloudUploadResult:
        """One cloud worker's upload: drain the slab stream into the wire.

        Consuming through :meth:`SlabbedShareSets.stream` blocks only on
        the slab being encoded right now — transfer of already-encoded
        windows overlaps the encoding of later ones, and draining a slab
        releases its memory and admits the next slab into the bounded
        pipeline window.
        """
        uploader = CloudUploader(self.servers[cloud_idx], cloud_idx, user_id)
        with share_sets.stream() as stream:
            for seq, share_set in stream:
                uploader.feed(chunks[seq], share_set.shares[cloud_idx])
        return uploader.finish()

    # ------------------------------------------------------------------
    # restore path (download)
    # ------------------------------------------------------------------
    def fetch_sources(
        self,
        user_id: str,
        lookup_key: bytes,
        chosen: Sequence[CDStoreServer],
        spares: list[CDStoreServer],
    ) -> list[FileSource]:
        """Fetch entry + recipe from each chosen server, with failover.

        ``spares`` is consumed *in place*: a spare promoted here is no
        longer available to later failovers or to the caller's §3.2
        share-widening fallback (it is now a chosen source).
        """
        pool_lock = threading.Lock()

        def fetch_one(server: CDStoreServer) -> tuple[CDStoreServer, FileEntry, list]:
            while True:
                try:
                    entry = server.get_file_entry(user_id, lookup_key)
                    recipe = server.get_recipe(user_id, lookup_key)
                except FETCH_ERRORS:
                    with pool_lock:
                        if not spares:
                            raise
                        server = spares.pop(0)
                    _FAILOVERS.inc()
                    continue
                return server, entry, recipe

        results = self.map_servers(fetch_one, chosen)
        return [
            FileSource(slot=slot, server=server, entry=entry, recipe=recipe)
            for slot, (server, entry, recipe) in enumerate(results)
        ]

    def _promote_spare(
        self,
        user_id: str,
        lookup_key: bytes,
        source: FileSource,
        spares: list[CDStoreServer],
        pool_lock: threading.Lock,
        expect: tuple[int, int] | None,
    ) -> None:
        """Replace ``source``'s server with the next usable spare.

        The spare must supply a readable entry + recipe that agree with the
        cross-checked ``expect = (file_size, secret_count)`` — a lying or
        stale spare is skipped exactly like an unreachable one.  Raises the
        in-flight fetch error when the spares are exhausted (bare ``raise``:
        this runs inside the caller's except block).
        """
        with pool_lock:
            # Held for the whole promotion: failover is rare, and holding
            # the lock makes the (server, entry, recipe) swap atomic with
            # respect to concurrent window fetches snapshotting the source.
            while True:
                if not spares:
                    raise
                candidate = spares.pop(0)
                try:
                    entry = candidate.get_file_entry(user_id, lookup_key)
                    recipe = candidate.get_recipe(user_id, lookup_key)
                except FETCH_ERRORS:
                    continue
                if expect is not None:
                    file_size, secret_count = expect
                    if (
                        entry.file_size != file_size
                        or entry.secret_count != secret_count
                        or len(recipe) != secret_count
                    ):
                        continue
                source.server, source.entry, source.recipe = candidate, entry, recipe
                _FAILOVERS.inc()
                return

    def _fetch_window_shares(
        self,
        user_id: str,
        lookup_key: bytes,
        source: FileSource,
        start: int,
        end: int,
        spares: list[CDStoreServer],
        pool_lock: threading.Lock,
        expect: tuple[int, int] | None,
    ) -> SlotShares:
        """One slot's shares for secrets ``[start, end)`` (with failover).

        On a fetch error the slot's server is replaced by a promoted spare
        and the *same window* retried against the spare's own recipe —
        per-window granularity: windows already decoded are unaffected,
        later windows go straight to the replacement.
        """
        while True:
            with pool_lock:  # consistent (server, recipe) snapshot
                server, recipe = source.server, source.recipe
            try:
                fingerprints = [recipe[i].fingerprint for i in range(start, end)]
                shares = server.fetch_shares(fingerprints)
            except (*FETCH_ERRORS, IndexError):
                # IndexError: the recipe is shorter than the agreed window —
                # as unusable as a corrupt one.
                self._promote_spare(
                    user_id, lookup_key, source, spares, pool_lock, expect
                )
                continue
            return SlotShares(server=server, recipe=recipe, shares=shares)

    def stream_share_windows(
        self,
        user_id: str,
        lookup_key: bytes,
        sources: list[FileSource],
        windows: Sequence[tuple[int, int]],
        spares: list[CDStoreServer],
        expect: tuple[int, int] | None = None,
    ) -> Iterator[WindowShares]:
        """Stream per-window share maps from every restore slot.

        Yields :class:`WindowShares` in window order.  When the engine is
        parallel, up to ``pipeline_depth`` windows are in flight on the
        per-cloud workers while the caller decodes the current one — the
        restore mirror of the upload pipelining; otherwise windows are
        fetched inline one at a time.  ``spares`` is shared, mutable state:
        per-window failover consumes from it (see :meth:`fetch_sources`).
        """
        pool_lock = threading.Lock()

        def fetch(source: FileSource, start: int, end: int) -> SlotShares:
            clock = time.perf_counter()
            got = self._fetch_window_shares(
                user_id, lookup_key, source, start, end, spares, pool_lock, expect
            )
            _WINDOW_RESTORE_SECONDS.observe(time.perf_counter() - clock)
            return got

        if not self.parallel:
            for start, end in windows:
                slots = [fetch(source, start, end) for source in sources]
                yield WindowShares(start=start, end=end, slots=slots)
            return

        self._ensure_workers()

        task = _carry_context(fetch)

        def submit(window_idx: int) -> list[Future]:
            start, end = windows[window_idx]
            return [
                self._pool_for(source.server).submit(task, source, start, end)
                for source in sources
            ]

        pending: deque[list[Future]] = deque()
        next_window = 0
        try:
            while next_window < min(self.pipeline_depth, len(windows)):
                pending.append(submit(next_window))
                next_window += 1
            for start, end in windows:
                slots = self._gather(pending.popleft())
                if next_window < len(windows):
                    pending.append(submit(next_window))
                    next_window += 1
                yield WindowShares(start=start, end=end, slots=slots)
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

