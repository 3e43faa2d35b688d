"""CDStore client implementation.

Upload pipeline (Figure 4a):

1. **chunking module** — variable-size (Rabin) chunking into ~8 KB secrets;
   a path backed up before is cut by :meth:`~repro.chunking.base.Chunker.
   resync` from its last version's cut points (:class:`ChunkHistory`),
   which scans only the bytes around what changed;
2. **coding module** — CAONT-RS encoding of each secret into ``n`` shares,
   parallelisable across secrets with a thread pool (§4.6); a secret the
   path's last version holds at its place is copied, not encoded (step 5);
3. **intra-user deduplication** — fingerprint queries per cloud; only
   shares this user never uploaded travel further (§3.3 stage 1);
4. **comm module** — unique shares batched per cloud (4 MB units, §4.1)
   and pushed over all cloud connections *concurrently* by the
   :class:`~repro.client.comm.CommEngine`, with encoding overlapping
   transfer (§4.6);
5. **metadata offloading** — per-share metadata and the file manifest
   (with the pathname dispersed via Shamir sharing, §4.3) finalise the
   upload on every server; for a path backed up before, only the changed
   secrets' metadata, as a delta against that version whose unchanged
   recipe entries each server copies.

Download reverses the pipeline from the first ``k`` reachable clouds that
agree on the file entry (:func:`~repro.client.read.quorum`, the rule
listing shares), fetched concurrently and one window at a time
(``pipeline_depth`` windows ahead when pipelined), with failover to spare
clouds at window granularity and the §3.2 subset retry on integrity failure.
"""

from __future__ import annotations

import secrets
import threading
import time
from array import array
from dataclasses import dataclass, field, replace
from functools import partial

from repro.analysis.annotations import guarded_by
from repro.chunking.base import Chunker
from repro.chunking.registry import ChunkerSpec, create_chunker
from repro.client.comm import UPLOAD_BATCH_BYTES, CommEngine
from repro.client.read import (
    FETCH_ERRORS,
    GATEWAY_FALLBACK_ERRORS,
    DirectReadSession,
    GatewayReadSession,
    ReadSession,
    quorum,
)
from repro.core.convergent import ConvergentDispersal
from repro.crypto.hashing import HASH_SIZE, sha256
from repro.dedup.stats import DedupStats
from repro.errors import (
    CloudUnavailableError,
    InsufficientCloudsError,
    IntegrityError,
    NotFoundError,
    ParameterError,
    StaleBaseError,
)
from repro.lsm.cache import LRUCache
from repro.obs.registry import REGISTRY
from repro.obs.trace import SpanRecorder, Tracer
from repro.server.messages import TAG_SIZE, FileManifest
from repro.server.server import CDStoreServer
from repro.sharing.ssss import SSSS

__all__ = [
    "CDStoreClient",
    "ChunkHistory",
    "HISTORY_CHUNKS",
    "UploadReceipt",
    "UPLOAD_BATCH_BYTES",
    "copied_runs",
]

#: Chunks a client's :class:`ChunkHistory` remembers over every path
#: (~2.4 MB, covering 512 MiB of 8 KB-average chunks).
HISTORY_CHUNKS = 1 << 16

# The first stage of every backup (docs/OBSERVABILITY.md): one observation
# per file, beside the comm engine's per-window encode/upload histograms.
_CHUNKING_SECONDS = REGISTRY.histogram(
    "client_chunking_seconds",
    "Wall time cutting one file into secrets",
)
_CHUNK_BYTES = REGISTRY.counter(
    "client_chunk_bytes_total",
    "Bytes of backed-up files whose chunks were found by hashing a previous "
    "version's chunk (reused) or by the cut scan (scanned)",
)
_FINALIZES = REGISTRY.counter(
    "client_finalize_total",
    "Per-cloud finalizes of an upload: a delta against the last version, "
    "full, or full after the cloud did not hold that version (fallback)",
)


def copied_runs(base: list[bytes], keys: list[bytes]) -> list[tuple[int, int, int]]:
    """The ``(seq, base_seq, count)`` runs a delta finalize copies, in
    order: stretches where ``keys[seq + i] == base[base_seq + i]``, each
    extended while the next keys match, no base chunk copied twice.  Equal
    hash keys give equal convergent shares, so a copied secret's recipe
    entry is the base's."""
    first = {key: at for at, key in reversed(list(enumerate(base)))}
    taken = bytearray(len(base))
    runs: list[list[int]] = []
    follow = -1  # the base chunk after the one the previous secret copied
    for seq, key in enumerate(keys):
        if 0 <= follow < len(base) and not taken[follow] and base[follow] == key:
            at = follow
            runs[-1][2] += 1
        else:
            at = first.get(key, -1)
            if at < 0 or taken[at]:
                follow = -1
                continue
            runs.append([seq, at, 1])
        taken[at] = 1
        follow = at + 1
    return [(seq, at, count) for seq, at, count in runs]


class ChunkHistory:
    """Bounded LRU map: path → how its last backup was cut.

    An entry is the chunk sizes (one ``array``) and their hash keys (one
    ``bytes`` of 32-byte keys), with the chunker that cut them and the
    version tag the backup finalized under: a client's next backup of the
    path resyncs from it (:meth:`~repro.chunking.base.Chunker.resync`)
    and finalizes as a delta against that version.  The bound counts
    chunks, not paths, so the history holds at most ``capacity`` chunks
    (36 bytes each; a file of more is not remembered).  In memory only.
    Thread-safe: concurrent uploads on one client each take and store an
    entry under one acquisition of a lock that guards nothing else.
    """

    #: Lock discipline (``repro analyze``, LOCK-001).
    GUARDED_BY = guarded_by(_entries="_lock")

    def __init__(self, capacity: int = HISTORY_CHUNKS) -> None:
        self._entries = LRUCache(capacity, size_of=lambda entry: len(entry[1]))
        self._lock = threading.Lock()

    @property
    def chunks(self) -> int:
        """Chunks remembered over every path."""
        with self._lock:
            return self._entries.size

    def get(self, path: str, chunker: Chunker) -> tuple[array, list[bytes], bytes] | None:
        """The sizes and keys ``chunker`` cut ``path`` into last, and that
        version's tag, or None."""
        with self._lock:
            entry = self._entries.get(path)
        if entry is None or entry[0] is not chunker:
            return None
        _, sizes, keys, tag = entry
        return sizes, [keys[at : at + HASH_SIZE] for at in range(0, len(keys), HASH_SIZE)], tag

    def put(
        self, path: str, chunker: Chunker, sizes: list[int], keys: list[bytes], tag: bytes
    ) -> None:
        """Remember how ``chunker`` cut ``path`` under version ``tag``
        (evicting past capacity)."""
        entry = (chunker, array("I", sizes), b"".join(keys), tag)
        with self._lock:
            if len(sizes) > self._entries.capacity:
                self._entries.pop(path)
            else:
                self._entries.put(path, entry)


@dataclass
class UploadReceipt:
    """Summary of one file upload."""

    path: str
    file_size: int
    secret_count: int
    logical_share_bytes: int
    transferred_share_bytes: int
    #: Wire bytes sent to each cloud (what
    #: :func:`repro.bench.transfer.client_upload_walltime` prices).
    wire_bytes_per_cloud: list[int] = field(default_factory=list)
    #: Pipeline depth the upload ran with (``"auto"`` already resolved).
    pipeline_depth: int = 1

    @property
    def intra_user_saving(self) -> float:
        if self.logical_share_bytes == 0:
            return 0.0
        return 1.0 - self.transferred_share_bytes / self.logical_share_bytes


class CDStoreClient:
    """A user's CDStore client bound to ``n`` servers.

    Parameters
    ----------
    user_id:
        Identifies the user for intra-user deduplication and file naming.
    servers:
        The ``n`` CDStore servers, ordered by cloud index.
    k:
        Reconstruction threshold (``n`` is implied by ``len(servers)``).
    salt:
        Organisation-wide convergent salt (shared by all clients of the
        organisation so their data deduplicates against each other).
    chunker:
        A live :class:`~repro.chunking.base.Chunker`, a
        :class:`~repro.chunking.registry.ChunkerSpec`, or a spec string
        like ``"gear:avg=8192"`` (see :mod:`repro.chunking.registry`).
        Defaults to the paper's 8 KB-average Rabin chunker.  Clients only
        deduplicate against each other when they chunk identically.
    scheme:
        Convergent codec name (default ``"caont-rs"``).
    threads:
        Encoding/comm thread count (§4.6); 1 disables all pools and the
        client talks to the clouds sequentially.
    pipeline_depth:
        Transfer-pipeline depth (§4.6 pipelining): encode slabs / restore
        windows in flight between stages.  With ``threads == 1``, ``1``
        (default) is the inline reference schedule; ``"auto"`` is
        :data:`~repro.client.comm.PIPELINE_DEPTH`.  The resolved integer
        is recorded in the :class:`UploadReceipt`.  See
        :mod:`repro.client.comm`.
    gateway:
        Optional read-gateway handle (see :mod:`repro.client.read` and
        :mod:`repro.gateway`): restores are served through it, with
        automatic fallback to the direct quorum path on any failure.
    trace, span_ring, slow_threshold:
        Client-side observability (see :mod:`repro.obs`): every entry
        point runs under a root span that mints the request's trace id,
        keeping the newest ``span_ring`` finished spans in
        :attr:`spans`; a span slower than ``slow_threshold`` seconds
        emits one structured ``slow_request`` event.  ``trace=False``
        turns the spans into no-ops (no ids are minted, so remote calls
        carry the zero trace id and cost the servers no ring space).
    """

    def __init__(
        self,
        user_id: str,
        servers: list[CDStoreServer],
        k: int,
        salt: bytes = b"",
        chunker: Chunker | ChunkerSpec | str | None = None,
        scheme: str = "caont-rs",
        threads: int = 1,
        codec=None,
        pipeline_depth: int | str = 1,
        gateway=None,
        trace: bool = True,
        span_ring: int = 256,
        slow_threshold: float | None = 1.0,
    ) -> None:
        if not servers:
            raise ParameterError("need at least one server")
        if threads < 1:
            raise ParameterError(f"threads must be >= 1, got {threads}")
        self.user_id = user_id
        self.servers = list(servers)
        self.n = len(servers)
        self.k = k
        self.threads = threads
        self.dispersal = ConvergentDispersal(
            self.n, k, scheme=scheme, salt=salt, codec=codec
        )
        self.chunker = create_chunker(chunker)
        #: How each path's last backup was cut, for the next one to
        #: resync from (kept while the dispersal has hash keys to match).
        self.history = ChunkHistory()
        self._path_sharer = SSSS(self.n, k)
        self.stats = DedupStats()
        #: Per-cloud share bytes per restore window (restores fetch and
        #: decode one window at a time); tests shrink it to exercise
        #: multi-window restores on small payloads.
        self.restore_window_bytes = UPLOAD_BATCH_BYTES
        #: Optional read gateway: any object with the gateway read
        #: surface (``resolve_backup`` + ``iter_window_shards``), usually
        #: a :class:`~repro.net.client.RemoteServerProxy` to a
        #: ``repro gateway``.  The client does NOT own it (no close) —
        #: the system façade shares one proxy across its clients.
        self.gateway = gateway
        #: The parallel multi-cloud comm engine; shares ``self.servers`` so
        #: server replacements (cloud repair) are picked up live.
        self.comm = CommEngine(
            self.servers, threads=threads, pipeline_depth=pipeline_depth
        )
        #: Client-side tracer: entry points open *root* spans here, so
        #: the trace id a whole upload/restore shares is minted exactly
        #: once, then rides thread-local context into the comm engine and
        #: the wire's trace extension.
        self.tracer = Tracer(
            "client",
            recorder=SpanRecorder(span_ring),
            slow_threshold=slow_threshold,
            enabled=trace,
        )

    @property
    def spans(self) -> SpanRecorder:
        """This client's span ring (newest ``span_ring`` finished spans)."""
        return self.tracer.recorder

    def close(self) -> None:
        """Shut down the comm engine's worker pools (idempotent)."""
        self.comm.close()

    def __enter__(self) -> "CDStoreClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _lookup_key(self, path: str) -> bytes:
        """File-index key: hash of pathname + user identifier (§4.4)."""
        return sha256(self.user_id.encode("utf-8") + b"\x00" + path.encode("utf-8"))

    # ------------------------------------------------------------------
    # upload (backup)
    # ------------------------------------------------------------------
    def upload(self, path: str, data: bytes) -> UploadReceipt:
        """Back up ``data`` under ``path`` across all ``n`` clouds.

        Requires every cloud to be reachable (backups write to all ``n``;
        restores are what tolerate failures).  A path this client backed
        up before finalizes as a delta against that version: only the
        secrets whose hash key changed are queried, uploaded and resolved,
        and a cloud that does not hold that version (``StaleBaseError``)
        is finalized in full instead.

        An upload that raises is not a backup: some clouds may hold the
        new file entry and others the old one.  Retrying it with the same
        arguments finalizes it on all ``n`` again (shares already stored
        are deduplicated), after which every cloud holds the same entry:
        the retry draws a new version tag, and the clouds the failed
        attempt did not finalize fall back to a full finalize.
        """
        with self.tracer.span("upload", root=True, path=path, bytes=len(data)):
            return self._upload(path, data)

    def _upload(self, path: str, data: bytes) -> UploadReceipt:
        self.comm.map_servers(lambda server: server.cloud.check_available(), self.servers)
        clock = time.perf_counter()
        spec = self.chunker.spec() or type(self.chunker).__name__
        segments = self.chunker.segments(len(data))
        keyed = self.dispersal.has_hash_keys
        last = self.history.get(path, self.chunker) if keyed else None
        with self.tracer.span("chunk", bytes=len(data), chunker=str(spec), segments=segments):
            if last is None:
                chunks = list(self.chunker.chunk_bytes(data))
                keys: list[bytes | None] = [None] * len(chunks)
                reused = 0
            else:
                chunks, keys, reused = self.chunker.resync(
                    data, last[0], last[1], self.dispersal.hash_keys
                )
        _CHUNKING_SECONDS.observe(time.perf_counter() - clock)
        _CHUNK_BYTES.inc(reused, source="reused")
        _CHUNK_BYTES.inc(len(data) - reused, source="scanned")

        # Secrets whose key is the last version's are that version's
        # recipe entries on every cloud holding it: they are neither
        # encoded, queried nor uploaded, and finalize copies them.
        tag = secrets.token_bytes(TAG_SIZE)
        runs = tuple(copied_runs(last[1], keys)) if last else ()
        copied = {seq for start, _, count in runs for seq in range(start, start + count)}
        sent = [chunk for chunk in chunks if chunk.seq not in copied]
        sent_keys = [keys[chunk.seq] for chunk in sent]
        results = self.comm.upload_file(self.user_id, self.dispersal, sent, sent_keys)
        if keyed:
            for chunk, key in zip(sent, sent_keys):
                keys[chunk.seq] = key
            self.history.put(path, self.chunker, [chunk.size for chunk in chunks], keys, tag)

        # Metadata offloading: manifest + the sent secrets' share metadata
        # (§4.3), finalised on every server concurrently.
        lookup_key = self._lookup_key(path)
        path_shares = self._path_sharer.split(path.encode("utf-8")).shares
        slots = {server.server_id: idx for idx, server in enumerate(self.servers)}

        def finalize(server: CDStoreServer, mode: str) -> int | None:
            """Finalize on ``server``; a delta it has no base for returns
            the cloud's index instead."""
            idx = slots[server.server_id]
            manifest = FileManifest(
                lookup_key, path_shares[idx], len(data), len(chunks), tag=tag
            )
            if mode != "delta":
                server.finalize_file(self.user_id, manifest, results[idx].metas)
            else:
                try:
                    server.finalize_file(
                        self.user_id,
                        replace(manifest, base=last[2], runs=runs),
                        results[idx].metas,
                    )
                except StaleBaseError:
                    return idx
            _FINALIZES.inc(mode=mode)
            return None

        # Every secret counts n shares, the copied ones included.
        logical_share_bytes = self.n * sum(
            self.dispersal.share_size(chunk.size) for chunk in chunks
        )
        try:
            mode = "delta" if runs else "full"
            stale = [
                idx
                for idx in self.comm.map_servers(partial(finalize, mode=mode), self.servers)
                if idx is not None
            ]
            if stale:
                # These clouds do not hold the base version: encode the
                # whole file once for all of them, send each the shares it
                # lacks, then finalize them in full.
                again = self.comm.upload_file(
                    self.user_id, self.dispersal, chunks, keys, clouds=stale
                )
                for idx, result in zip(stale, again):
                    result.wire_bytes += results[idx].wire_bytes
                    result.transferred += results[idx].transferred
                    result.batches += results[idx].batches
                    results[idx] = result
                self.comm.map_servers(
                    partial(finalize, mode="fallback"), [self.servers[idx] for idx in stale]
                )
        finally:
            self.stats.logical_data += len(data)
            self.stats.secrets_total += len(chunks)
            self.stats.logical_shares += logical_share_bytes
            self.stats.shares_total += self.n * len(chunks)
            for result in results:
                self.stats.shares_transferred += result.transferred
                self.stats.transferred_shares += result.wire_bytes

        return UploadReceipt(
            path=path,
            file_size=len(data),
            secret_count=len(chunks),
            logical_share_bytes=logical_share_bytes,
            transferred_share_bytes=sum(result.wire_bytes for result in results),
            wire_bytes_per_cloud=[result.wire_bytes for result in results],
            pipeline_depth=self.comm.pipeline_depth,
        )

    # ------------------------------------------------------------------
    # download (restore)
    # ------------------------------------------------------------------
    def _reachable_servers(self) -> list[CDStoreServer]:
        """The servers whose cloud answers, probed all at once."""
        up = self.comm.map_servers(lambda server: server.cloud.available, self.servers)
        return [server for server, ok in zip(self.servers, up) if ok]

    def open_read(self, path: str, via: str = "auto") -> ReadSession:
        """Resolve ``path`` and return the :class:`ReadSession` to read it.

        ``via`` selects the read path: ``"direct"`` (quorum restore),
        ``"gateway"`` (requires a configured gateway), or ``"auto"``
        (gateway when configured, else direct).  Resolution — the file-entry
        quorum, direct or at the gateway, plus window planning —
        happens here, once; the session's :attr:`~ReadSession.plan`
        exposes the result and ``read()`` executes it.
        """
        if via not in ("auto", "direct", "gateway"):
            raise ParameterError(
                f"via must be 'auto', 'direct' or 'gateway', got {via!r}"
            )
        if via == "gateway" and self.gateway is None:
            raise ParameterError("no gateway configured for this client")
        lookup_key = self._lookup_key(path)
        if via != "direct" and self.gateway is not None:
            return GatewayReadSession(self, lookup_key, self.gateway)
        return DirectReadSession(self, lookup_key, self._reachable_servers())

    def download(self, path: str) -> bytes:
        """Restore the file stored under ``path``.

        A thin wrapper over :meth:`open_read`: with a gateway configured
        the restore is served from the gateway's hot-container cache;
        any gateway-path failure (dead replica behind a cache miss,
        transport loss, decode failure) falls back to the direct quorum
        restore, where the ``k`` per-server fetches run concurrently and
        a server failing mid-restore is replaced by a spare reachable
        cloud at window granularity (§3.1 availability, §3.2 widening).

        The direct path fetches shares in per-window maps
        (``restore_window_bytes`` of per-cloud shares each), so the
        shares held are bounded by the window, not the file; a pipelined
        engine overlaps the decoding of window ``i`` with the fetch of
        the next ``pipeline_depth`` windows.
        """
        with self.tracer.span("download", root=True, path=path):
            if self.gateway is not None:
                try:
                    with self.open_read(path, via="gateway") as session:
                        return session.read()
                except GATEWAY_FALLBACK_ERRORS:
                    # Degraded mode: restart from scratch on the quorum.
                    # The direct session re-resolves (its windows may
                    # differ from the gateway's) and runs the full
                    # failover machinery.
                    pass
            with self.open_read(path, via="direct") as session:
                return session.read()

    def list_files(self) -> list[str]:
        """List this user's stored pathnames.

        Pathnames are Shamir-shared across the servers (§4.3).  A path is
        listed iff ``k`` servers agree on its file entry by the rule a
        restore resolves with (:func:`~repro.client.read.quorum`, spares
        consulted for keys that lack ``k``), its name recovered from their
        shares only: listed iff a direct restore of it would resolve.
        """
        with self.tracer.span("list_files", root=True):
            return self._list_files()

    def _list_files(self) -> list[str]:
        reachable = self._reachable_servers()
        listings: dict[CDStoreServer, dict | Exception] = {}

        def listing(server: CDStoreServer) -> dict | Exception:
            try:
                return dict(server.list_files(self.user_id))
            except FETCH_ERRORS as exc:
                return exc

        def entry(lookup_key: bytes, server: CDStoreServer) -> tuple | Exception:
            if server not in listings:
                listings[server] = listing(server)
            found = listings[server]
            if not isinstance(found, dict):
                return found
            return (found[lookup_key],) if lookup_key in found else NotFoundError("unlisted")

        # A key k servers agree on is held by one of any n - k + 1 of
        # them: list those at once, the rest only as spares of a quorum.
        first = reachable[: max(self.k, len(reachable) - self.k + 1)]
        listings.update(zip(first, self.comm.map_servers(listing, first)))
        failed = [found for found in listings.values() if isinstance(found, Exception)]
        if len(reachable) - len(failed) < self.k:
            # No k servers can agree on any entry: what is stored is unknown.
            raise failed[0] if failed else InsufficientCloudsError(
                f"only {len(reachable)} clouds reachable; need k={self.k}"
            )
        keys = dict.fromkeys(
            key for found in listings.values() if isinstance(found, dict) for key in found
        )
        paths = []
        for lookup_key in keys:
            try:
                agreeing, _ = quorum(reachable, self.k, partial(entry, lookup_key), {})
            except (IntegrityError, *FETCH_ERRORS):
                continue
            shares = {s.server_id: listings[s][lookup_key].path_share for s in agreeing}
            size = len(next(iter(shares.values())))
            try:
                paths.append(self._path_sharer.recover(shares, size).decode("utf-8"))
            except UnicodeDecodeError:
                raise IntegrityError(
                    f"pathname of backup {lookup_key.hex()[:16]}… is not UTF-8"
                ) from None
        return sorted(paths)

    # ------------------------------------------------------------------
    # deletion (extension; the paper defers GC to future work, §4.7)
    # ------------------------------------------------------------------
    def delete(self, path: str) -> None:
        """Delete the file on all ``n`` clouds.

        Refuses with :class:`CloudUnavailableError`, deleting nothing,
        unless every cloud is reachable.
        """
        with self.tracer.span("delete", root=True, path=path):
            lookup_key = self._lookup_key(path)
            up = self.comm.map_servers(lambda server: server.cloud.available, self.servers)
            for server, ok in zip(self.servers, up):
                if not ok:
                    raise CloudUnavailableError(
                        f"cloud {server.cloud.name!r} is down; deletion must "
                        "reach all clouds"
                    )
            self.comm.map_servers(
                lambda server: server.delete_file(self.user_id, lookup_key),
                self.servers,
            )

    def flush(self) -> None:
        """Seal open containers on every server (end of a session)."""
        self.comm.map_servers(lambda server: server.flush(), self.servers)
