"""The CDStore deployment façade.

Typical use::

    system = CDStoreSystem(n=4, k=3)
    alice = system.client("alice")
    alice.upload("/backup/home.tar", data)
    system.fail_cloud(0)                  # outage
    restored = alice.download("/backup/home.tar")   # k=3 survivors suffice
    system.recover_cloud(0)
    system.repair_cloud(0)                # rebuild lost shares (§3.1)
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from repro.chunking.base import Chunk, Chunker
from repro.chunking.registry import ChunkerSpec
from repro.cloud.network import Link
from repro.cloud.provider import CloudProvider
from repro.client.client import CDStoreClient
from repro.client.comm import CloudUploader
from repro.client.read import DirectReadSession
from repro.config import ObsSpec, ReproConfig
from repro.crypto.hashing import fingerprint
from repro.dedup.stats import DedupStats
from repro.errors import InsufficientCloudsError, ParameterError, ReproError
from repro.server.messages import FileManifest, RecipeEntry
from repro.server.server import CDStoreServer
from repro.storage.backend import LocalDirBackend
from repro.tenants import Credentials, TenantRegistry

__all__ = ["CDStoreSystem", "open_root_server"]


def open_root_server(
    root: str | Path, cloud_index: int, tenants: TenantRegistry | None = None
) -> CDStoreServer:
    """The server of local cloud ``cloud_index`` of the deployment at ``root``.

    The one place a root's layout is spelled — objects in ``cloud-<i>``,
    LSM index in ``indices/server-<i>``, crash-only state in
    ``state/server-<i>`` — and so the one way a root is opened: every
    server is crash-only, locks its state (one process per root) and
    recovers as it is built.  ``tenants`` turns on quota metering.
    """
    root = Path(root)
    cloud = CloudProvider(
        name=f"cloud-{cloud_index}",
        uplink=Link(100.0),
        downlink=Link(100.0),
        backend=LocalDirBackend(root / f"cloud-{cloud_index}"),
    )
    return CDStoreServer(
        server_id=cloud_index,
        cloud=cloud,
        index=root / "indices" / f"server-{cloud_index}",
        durable_root=root / "state" / f"server-{cloud_index}",
        tenants=tenants,
    )


class CDStoreSystem:
    """``n`` clouds + servers + clients of one organisation.

    Parameters
    ----------
    n, k:
        Dispersal parameters; ``n`` clouds are created unless ``clouds`` is
        supplied.
    salt:
        Organisation-wide convergent salt shared by every client, so data
        deduplicates across the organisation's users but not with
        outsiders.
    clouds:
        Optional pre-built providers (e.g. from a
        :class:`~repro.cloud.testbed.Testbed`).  Entries may also be
        ``"tcp://host:port"`` strings: that cloud is *remote* — a
        :class:`~repro.net.client.RemoteServerProxy` takes the server
        slot and drives a :class:`~repro.net.server.CDStoreTCPServer`
        over the wire, while local and remote clouds mix freely in one
        deployment.  An entry may also be a built
        :class:`~repro.server.server.CDStoreServer` (the durable ones of
        :func:`open_root_server`): the system takes it over and closes it
        in :meth:`close`.
    chunker:
        Default chunker for clients this system creates: a live
        :class:`~repro.chunking.base.Chunker`, a
        :class:`~repro.chunking.registry.ChunkerSpec` or a spec string
        like ``"gear"`` (None = the paper's Rabin default).  Clients only
        deduplicate against each other when they chunk identically, so an
        organisation normally fixes this system-wide; individual
        :meth:`client` calls may still override it.
    threads:
        Default comm/encode thread count for clients this system creates
        (§4.6); individual :meth:`client` calls may override it.
    pipeline_depth:
        Default transfer-pipeline depth for clients (§4.6 pipelining):
        encode slabs / restore windows in flight between stages.  With
        ``threads=1``, ``1`` is the inline reference schedule; values
        above 1 overlap wire time with encoding/decoding, and ``"auto"``
        is :data:`repro.client.comm.PIPELINE_DEPTH`.  Individual
        :meth:`client` calls may override it.
    credentials:
        Optional :class:`~repro.tenants.Credentials` handed to every
        remote proxy this system builds, so multi-tenant ``repro serve``
        deployments authenticate transparently.  Never persisted in the
        deployment config.
    gateway:
        Optional read gateway: a :class:`~repro.config.GatewaySpec` or a
        ``tcp://host:port`` string naming a running ``repro gateway``.
        The system builds **one** shared proxy to it, hands it to every
        client it creates (restores go through the gateway with
        automatic direct-quorum fallback), and closes it in
        :meth:`close` — clients share the proxy and never close it.
    """

    def __init__(
        self,
        n: int = 4,
        k: int = 3,
        salt: bytes = b"",
        clouds: list[CloudProvider | CDStoreServer | str] | None = None,
        scheme: str = "caont-rs",
        key_server=None,
        chunker: Chunker | ChunkerSpec | str | None = None,
        threads: int = 1,
        pipeline_depth: int | str = 1,
        credentials: Credentials | None = None,
        gateway=None,
        obs: ObsSpec | None = None,
    ) -> None:
        if clouds is not None and len(clouds) != n:
            raise ParameterError(f"got {len(clouds)} clouds for n={n}")
        if not 0 < k <= n:
            raise ParameterError(f"require 0 < k <= n, got (n={n}, k={k})")
        self.n = n
        self.k = k
        self.salt = salt
        self.scheme = scheme
        self.chunker = chunker
        self.threads = threads
        self.pipeline_depth = pipeline_depth
        #: Observability shape every client and proxy this system
        #: builds inherits (tracing on by default).
        self.obs = obs if obs is not None else ObsSpec()
        #: Optional DupLESS-style key server (§3.2 remarks): when set,
        #: clients encode with server-aided CAONT-RS instead of plain
        #: hash keys, hardening small-message-space data against offline
        #: brute force at the cost of the key-management dependency.
        self.key_server = key_server
        specs = clouds or [
            CloudProvider(
                name=f"cloud-{i}", uplink=Link(100.0), downlink=Link(100.0)
            )
            for i in range(n)
        ]
        self.credentials = credentials
        self._closed = False
        self.clouds = []
        self.servers: list = []
        #: Cloud indices served over the wire (``tcp://`` specs).
        self.remote_indices: set[int] = set()
        for i, spec in enumerate(specs):
            if isinstance(spec, str):
                from repro.net.client import RemoteServerProxy

                proxy = RemoteServerProxy(
                    spec,
                    server_id=i,
                    credentials=credentials,
                    trace=self.obs.enabled and self.obs.trace,
                )
                self.remote_indices.add(i)
                self.clouds.append(proxy.cloud)
                self.servers.append(proxy)
                continue
            server = (
                spec
                if isinstance(spec, CDStoreServer)
                else CDStoreServer(server_id=i, cloud=spec)
            )
            self.clouds.append(server.cloud)
            self.servers.append(server)
        #: The shared gateway proxy (None without a gateway).  Owned by
        #: the system: clients borrow it, ``close()`` closes it.
        self.gateway = None
        if gateway is not None:
            from repro.net import wire
            from repro.net.client import RemoteServerProxy

            endpoint = gateway if isinstance(gateway, str) else str(gateway.endpoint)
            self.gateway = RemoteServerProxy(
                endpoint,
                server_id=wire.GATEWAY_SERVER_ID,
                credentials=credentials,
                trace=self.obs.enabled and self.obs.trace,
            )
        self._clients: dict[str, CDStoreClient] = {}

    # ------------------------------------------------------------------
    # construction from a typed config
    # ------------------------------------------------------------------
    @classmethod
    def from_config(
        cls,
        config: ReproConfig,
        root: str | Path | None = None,
        credentials: Credentials | None = None,
        key_server=None,
    ) -> "CDStoreSystem":
        """Build a system from a validated :class:`~repro.config.ReproConfig`.

        ``root`` is the deployment directory: each local cloud gets the
        crash-only server :func:`open_root_server` builds — the same one
        ``repro serve`` runs — so opening a root locks it and recovers it
        (omit ``root`` for fully in-memory systems — tests, simulations).
        Remote specs become authenticated proxies when ``credentials`` is
        given.  This replaces the old pattern of re-deriving constructor
        kwargs from a loose config dict at every call site.
        """
        clouds: list = []
        try:
            for i, spec in enumerate(config.cloud_specs):
                if spec.is_remote:
                    clouds.append(str(spec))
                elif root is not None:
                    clouds.append(open_root_server(root, i))
                else:
                    clouds.append(CloudProvider(f"cloud-{i}", Link(100.0), Link(100.0)))
            return cls(
                n=config.n,
                k=config.k,
                salt=config.salt_bytes,
                clouds=clouds,
                scheme=config.scheme,
                key_server=key_server,
                chunker=config.chunker,
                threads=config.threads,
                pipeline_depth=config.pipeline_depth,
                credentials=credentials,
                gateway=config.gateway,
                obs=config.obs,
            )
        except BaseException:
            # A later cloud's lock was taken (or its proxy failed): release
            # the roots already opened, or this process keeps them locked.
            for server in clouds:
                if isinstance(server, CDStoreServer):
                    server.close()
            raise

    # ------------------------------------------------------------------
    # clients
    # ------------------------------------------------------------------
    def client(
        self,
        user_id: str,
        chunker: Chunker | ChunkerSpec | str | None = None,
        threads: int | None = None,
        pipeline_depth: int | str | None = None,
    ) -> CDStoreClient:
        """Get (or create) the CDStore client for ``user_id``.

        ``chunker``, ``threads`` and ``pipeline_depth`` default to the
        system-wide settings; pass explicit values to override for this
        client (first call wins — clients are cached per user).
        """
        if user_id not in self._clients:
            codec = None
            if self.key_server is not None:
                from repro.keyserver.client import KeyClient
                from repro.keyserver.codec import ServerAidedCAONTRS

                codec = ServerAidedCAONTRS(
                    self.n,
                    self.k,
                    key_client=KeyClient(user_id, self.key_server, salt=self.salt),
                )
            self._clients[user_id] = CDStoreClient(
                user_id=user_id,
                servers=self.servers,
                k=self.k,
                salt=self.salt,
                chunker=self.chunker if chunker is None else chunker,
                scheme=self.scheme,
                threads=self.threads if threads is None else threads,
                pipeline_depth=(
                    self.pipeline_depth if pipeline_depth is None else pipeline_depth
                ),
                codec=codec,
                gateway=self.gateway,
                trace=self.obs.enabled and self.obs.trace,
                span_ring=self.obs.span_ring_size,
                slow_threshold=self.obs.slow_request_seconds,
            )
        return self._clients[user_id]

    # ------------------------------------------------------------------
    # failure injection & repair (§3.1)
    # ------------------------------------------------------------------
    def _require_local(self, index: int, operation: str) -> None:
        if index in self.remote_indices:
            raise ParameterError(
                f"cannot {operation} remote cloud {index} "
                f"({self.clouds[index].name}): failure injection is driven "
                "at the serving process, not through the proxy"
            )

    def fail_cloud(self, index: int) -> None:
        """Take cloud ``index`` offline."""
        self._require_local(index, "fail")
        self.clouds[index].fail()

    def recover_cloud(self, index: int) -> None:
        """Bring cloud ``index`` back online (its data may be stale/lost)."""
        self._require_local(index, "recover")
        self.clouds[index].recover()

    def wipe_cloud(self, index: int) -> None:
        """Permanently destroy cloud ``index``'s data and its server state.

        Models vendor termination (§1): the backend is emptied and the
        co-locating server is replaced with a fresh one (its VM-local index
        is gone too).  Follow with :meth:`repair_cloud` to rebuild.
        """
        self._require_local(index, "wipe")
        self.clouds[index].wipe()
        self.servers[index].close()
        self.servers[index] = CDStoreServer(
            server_id=index, cloud=self.clouds[index]
        )
        # Existing clients hold server references; refresh them.
        for client in self._clients.values():
            client.servers[index] = self.servers[index]

    def _donors(self, index: int) -> list:
        """Every available cloud's server but ``index``'s (rebuild sources)."""
        return [s for s in self.servers if s.server_id != index and s.cloud.available]

    def _rebuild(
        self,
        index: int,
        user: str,
        lookup_key: bytes,
        wanted: set[int] | None = None,
    ) -> tuple[DirectReadSession, Iterator[tuple[Chunk, bytes]]]:
        """Regenerate cloud ``index``'s shares of one backup (§3.1).

        Opens ``user``'s read session over every available cloud but
        ``index`` — ``k`` read, the rest spares for failover and §3.2
        widening — and returns it with a generator that decodes the
        planned windows holding a secret in ``wanted`` (all of them when
        None), re-encodes each window in one batch and yields every
        secret of those windows as a :class:`Chunk` with its share
        ``index``.
        """
        client = self.client(user)
        session = DirectReadSession(client, lookup_key, self._donors(index))
        windows = [
            (start, end)
            for start, end in session.plan.windows
            if wanted is None or not wanted.isdisjoint(range(start, end))
        ]

        def shares() -> Iterator[tuple[Chunk, bytes]]:
            decoded = session.decode_windows(windows)
            for (start, _), secrets in zip(windows, decoded):
                offset = sum(session.plan.secret_sizes[:start])
                share_sets = client.dispersal.encode_batch(secrets)
                for seq, (secret, share_set) in enumerate(
                    zip(secrets, share_sets), start
                ):
                    yield Chunk(secret, offset, seq), share_set.shares[index]
                    offset += len(secret)

        return session, shares()

    def repair_cloud(self, index: int) -> int:
        """Rebuild cloud ``index``'s shares from the surviving clouds.

        CDStore "reconstructs original secrets and then rebuilds the lost
        shares as in Reed-Solomon codes" (§3.1).  Every backup the first
        surviving cloud lists is read window by window through the
        client's restore session, each window re-encoded, and share
        ``index`` streamed to the repaired server through the windowed
        uploader — one dedup query and one upload per 4 MB, as a backup
        does.  The pathname share is regenerated from the survivors' (the
        same sharing, not a fresh one).  Returns the number of shares
        rebuilt.
        """
        target = self.servers[index]
        target.cloud.check_available()
        donors = self._donors(index)
        if len(donors) < self.k:
            raise InsufficientCloudsError(
                f"repair needs k={self.k} surviving clouds, found {len(donors)}"
            )
        rebuilt = 0
        # Walk every (user, file) recorded on a survivor — through the
        # server surface, so a remote donor serves repairs over the wire.
        for user, lookup_key in donors[0].list_backups():
            session, shares = self._rebuild(index, user, lookup_key)
            uploader = CloudUploader(target, index, user)
            for chunk, share in shares:
                uploader.feed(chunk, share)
            result = uploader.finish()
            path_share = session.client._path_sharer.interpolate(
                session.path_shares(), index + 1
            )
            plan = session.plan
            manifest = FileManifest(
                lookup_key, path_share, plan.file_size, plan.secret_count, tag=plan.tag
            )
            target.finalize_file(user, manifest, result.metas)
            rebuilt += result.transferred
        target.flush()
        return rebuilt

    def scrub_and_repair(self, index: int) -> int:
        """Audit cloud ``index`` for silent corruption and heal it.

        Runs the server's scrub, then regenerates the corrupt shares the
        way :meth:`repair_cloud` does — reading only the restore windows
        that hold one — and re-ingests each under its index entry.  A
        backup whose recipe is unreadable gets every window regenerated
        and its recipe rebuilt.  Returns the number of shares healed plus
        recipes rebuilt.
        """
        target = self.servers[index]
        corrupt = set(target.scrub())
        healed: set[bytes] = set()
        recipes_rebuilt = 0
        for user, lookup_key in target.list_backups():
            try:
                recipe = target.get_recipe(user, lookup_key)
            except ReproError:
                recipe = None  # the recipe container itself is corrupt
            wanted = None
            if recipe is not None:
                pending = corrupt - healed
                wanted = {seq for seq, e in enumerate(recipe) if e.fingerprint in pending}
                if not wanted:
                    continue
            entries = []
            _, shares = self._rebuild(index, user, lookup_key, wanted)
            for chunk, share in shares:
                server_fp = fingerprint(share, domain="server")
                if server_fp in corrupt and server_fp not in healed:
                    target.replace_share(server_fp, share)
                    healed.add(server_fp)
                entries.append(RecipeEntry(server_fp, chunk.size))
            if recipe is None:
                target.rebuild_recipe(user, lookup_key, entries)
                recipes_rebuilt += 1
        target.flush()
        return len(healed) + recipes_rebuilt

    # ------------------------------------------------------------------
    # accounting (Figures 6 and 9)
    # ------------------------------------------------------------------
    def global_stats(self) -> DedupStats:
        """Fleet-wide deduplication stats.

        Logical/ transferred counters come from the clients; physical
        counters from the servers (inter-user dedup happens there).
        """
        stats = DedupStats()
        for client in self._clients.values():
            stats.logical_data += client.stats.logical_data
            stats.logical_shares += client.stats.logical_shares
            stats.transferred_shares += client.stats.transferred_shares
            stats.secrets_total += client.stats.secrets_total
            stats.shares_total += client.stats.shares_total
            stats.shares_transferred += client.stats.shares_transferred
        for server in self.servers:
            stats.physical_shares += server.stats.physical_shares
            stats.shares_stored += server.stats.shares_stored
        return stats

    def stored_bytes(self) -> int:
        """Total bytes stored across all cloud backends (incl. metadata)."""
        for server in self.servers:
            server.flush()
        return sum(cloud.stored_bytes for cloud in self.clouds)

    def flush(self) -> None:
        """Seal every server's open containers."""
        for server in self.servers:
            server.flush()

    def close(self) -> None:
        """Shut down client comm engines, server resources and proxies.

        Idempotent: the crash-only lifecycle rule is that anyone may
        call ``close()`` on the way down without coordinating over who
        already did.
        """
        if self._closed:
            return
        self._closed = True
        for client in self._clients.values():
            client.close()
        if self.gateway is not None:
            self.gateway.close()
        for server in self.servers:
            server.close()

    def __enter__(self) -> "CDStoreSystem":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
