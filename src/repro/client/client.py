"""CDStore client implementation.

Upload pipeline (Figure 4a):

1. **chunking module** — variable-size (Rabin) chunking into ~8 KB secrets;
2. **coding module** — CAONT-RS encoding of each secret into ``n`` shares,
   parallelisable across secrets with a thread pool (§4.6);
3. **intra-user deduplication** — fingerprint queries per cloud; only
   shares this user never uploaded travel further (§3.3 stage 1);
4. **comm module** — unique shares batched per cloud (4 MB units, §4.1)
   and pushed over all cloud connections *concurrently* by the
   :class:`~repro.client.comm.CommEngine`, with encoding overlapping
   transfer (§4.6);
5. **metadata offloading** — per-share metadata and the file manifest
   (with the pathname dispersed via Shamir sharing, §4.3) finalise the
   upload on every server.

Download reverses the pipeline from any ``k`` reachable clouds — fetched
concurrently, with automatic failover to spare reachable clouds on
mid-restore failures — plus the brute-force subset retry of §3.2 on
integrity failure.  The restore is *windowed*: per-window share maps are
fetched and decoded one window at a time (``pipeline_depth`` windows ahead
when pipelined), so decoding starts before the last share arrives, and
failover happens at window granularity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.chunking.base import Chunker
from repro.chunking.registry import ChunkerSpec, create_chunker
from repro.client.comm import UPLOAD_BATCH_BYTES, CommEngine
from repro.client.read import (
    GATEWAY_FALLBACK_ERRORS,
    DirectReadSession,
    GatewayReadSession,
    ReadSession,
)
from repro.core.convergent import ConvergentDispersal
from repro.crypto.hashing import sha256
from repro.dedup.stats import DedupStats
from repro.errors import (
    CloudUnavailableError,
    InsufficientCloudsError,
    ParameterError,
)
from repro.obs.registry import REGISTRY
from repro.obs.trace import SpanRecorder, Tracer
from repro.server.messages import FileManifest
from repro.server.server import CDStoreServer
from repro.sharing.ssss import SSSS

__all__ = ["CDStoreClient", "UploadReceipt", "UPLOAD_BATCH_BYTES"]

# The first stage of every backup (docs/OBSERVABILITY.md): one observation
# per file, beside the comm engine's per-window encode/upload histograms.
_CHUNKING_SECONDS = REGISTRY.histogram(
    "client_chunking_seconds",
    "Wall time cutting one file into secrets",
)


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
        A live :class:`~repro.chunking.base.Chunker`, a picklable
        :class:`~repro.chunking.registry.ChunkerSpec`, or a spec string
        like ``"gear:avg=8192"`` (see :mod:`repro.chunking.registry`).
        Defaults to the paper's 8 KB-average Rabin chunker.  Clients only
        deduplicate against each other when they chunk identically.
    scheme:
        Convergent codec name (default ``"caont-rs"``).
    threads:
        Encoding/comm thread count (§4.6); 1 disables all pools and the
        client talks to the clouds sequentially.
    workers:
        Encode-pool flavour, ``"thread"`` (default) or ``"process"``; see
        :mod:`repro.client.comm` for the trade-off.
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
        workers: str = "thread",
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
        self.workers = workers
        self.dispersal = ConvergentDispersal(
            self.n, k, scheme=scheme, salt=salt, codec=codec
        )
        self.chunker = create_chunker(chunker)
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
            self.servers,
            threads=threads,
            workers=workers,
            pipeline_depth=pipeline_depth,
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
        restores are what tolerate failures).
        """
        with self.tracer.span("upload", root=True, path=path, bytes=len(data)):
            return self._upload(path, data)

    def _upload(self, path: str, data: bytes) -> UploadReceipt:
        for server in self.servers:
            server.cloud.check_available()
        clock = time.perf_counter()
        spec = self.chunker.spec() or type(self.chunker).__name__
        with self.tracer.span("chunk", bytes=len(data), chunker=str(spec)):
            chunks = list(self.chunker.chunk_bytes(data))
        _CHUNKING_SECONDS.observe(time.perf_counter() - clock)

        results = self.comm.upload_file(self.user_id, self.dispersal, chunks)

        self.stats.logical_data += len(data)
        self.stats.secrets_total += len(chunks)
        transferred_total = 0
        for result in results:
            self.stats.logical_shares += sum(m.share_size for m in result.metas)
            self.stats.shares_total += len(result.metas)
            self.stats.shares_transferred += result.transferred
            transferred_total += result.wire_bytes
        self.stats.transferred_shares += transferred_total

        # Metadata offloading: manifest + full share metadata (§4.3),
        # finalised on every server concurrently.
        lookup_key = self._lookup_key(path)
        path_shares = self._path_sharer.split(path.encode("utf-8")).shares
        manifests = {
            server.server_id: FileManifest(
                lookup_key=lookup_key,
                path_share=path_shares[cloud_idx],
                file_size=len(data),
                secret_count=len(chunks),
            )
            for cloud_idx, server in enumerate(self.servers)
        }
        metas_by_id = {
            server.server_id: results[cloud_idx].metas
            for cloud_idx, server in enumerate(self.servers)
        }
        self.comm.map_servers(
            lambda server: server.finalize_file(
                self.user_id, manifests[server.server_id], metas_by_id[server.server_id]
            ),
            self.servers,
        )

        return UploadReceipt(
            path=path,
            file_size=len(data),
            secret_count=len(chunks),
            logical_share_bytes=sum(
                meta.share_size for result in results for meta in result.metas
            ),
            transferred_share_bytes=transferred_total,
            wire_bytes_per_cloud=[result.wire_bytes for result in results],
            pipeline_depth=self.comm.pipeline_depth,
        )

    # ------------------------------------------------------------------
    # download (restore)
    # ------------------------------------------------------------------
    def _reachable_servers(self) -> list[CDStoreServer]:
        return [server for server in self.servers if server.cloud.available]

    def open_read(self, path: str, via: str = "auto") -> ReadSession:
        """Resolve ``path`` and return the :class:`ReadSession` to read it.

        ``via`` selects the read path: ``"direct"`` (quorum restore),
        ``"gateway"`` (requires a configured gateway), or ``"auto"``
        (gateway when configured, else direct).  Resolution — file-entry
        cross-check or gateway recipe resolution, plus window planning —
        happens here, once; the session's :attr:`~ReadSession.plan`
        exposes the result and ``read()`` executes it.
        """
        if via not in ("auto", "direct", "gateway"):
            raise ParameterError(
                f"via must be 'auto', 'direct' or 'gateway', got {via!r}"
            )
        if via == "gateway" and self.gateway is None:
            raise ParameterError("no gateway configured for this client")
        if via != "direct" and self.gateway is not None:
            return GatewayReadSession(self, path, self.gateway)
        return DirectReadSession(self, path)

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

        Pathnames are dispersed via Shamir sharing across the servers
        (§4.3 sensitive metadata), so listing needs any ``k`` reachable
        clouds — the same availability contract as restore.
        """
        with self.tracer.span("list_files", root=True):
            return self._list_files()

    def _list_files(self) -> list[str]:
        reachable = self._reachable_servers()
        if len(reachable) < self.k:
            raise InsufficientCloudsError(
                f"only {len(reachable)} of {self.n} clouds reachable; "
                f"need k={self.k}"
            )
        chosen = reachable[: self.k]
        listings = {
            server.server_id: dict(listing)
            for server, listing in zip(
                chosen,
                self.comm.map_servers(
                    lambda server: server.list_files(self.user_id), chosen
                ),
            )
        }
        keys = set.intersection(*(set(entries) for entries in listings.values()))
        paths = []
        for lookup_key in keys:
            shares = {
                sid: listing[lookup_key].path_share
                for sid, listing in listings.items()
            }
            size = len(next(iter(shares.values())))
            paths.append(
                self._path_sharer.recover(shares, size).decode("utf-8")
            )
        return sorted(paths)

    # ------------------------------------------------------------------
    # deletion (extension; the paper defers GC to future work, §4.7)
    # ------------------------------------------------------------------
    def delete(self, path: str) -> None:
        """Delete the file on every reachable cloud."""
        with self.tracer.span("delete", root=True, path=path):
            lookup_key = self._lookup_key(path)
            for server in self.servers:
                if not server.cloud.available:
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
