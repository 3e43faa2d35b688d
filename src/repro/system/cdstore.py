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

from repro.chunking.base import Chunker
from repro.chunking.registry import ChunkerSpec
from repro.cloud.network import Link
from repro.cloud.provider import CloudProvider
from repro.client.client import CDStoreClient
from repro.config import ObsSpec, ReproConfig
from repro.crypto.hashing import fingerprint
from repro.dedup.stats import DedupStats
from repro.errors import InsufficientCloudsError, ParameterError
from repro.server.index import LSMIndex
from repro.server.messages import ShareMeta, ShareUpload
from repro.server.server import CDStoreServer
from repro.tenants import Credentials

__all__ = ["CDStoreSystem"]


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
        deployment.
    index_root:
        If given, servers use durable LSM indices under this directory;
        otherwise in-memory indices.
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
    workers:
        Default encode-pool flavour for clients, ``"thread"`` or
        ``"process"`` (see :mod:`repro.client.comm` for when each wins);
        individual :meth:`client` calls may override it.
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
        clouds: list[CloudProvider] | None = None,
        index_root: str | Path | None = None,
        scheme: str = "caont-rs",
        key_server=None,
        chunker: Chunker | ChunkerSpec | str | None = None,
        threads: int = 1,
        workers: str = "thread",
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
        self.workers = workers
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
            index = (
                LSMIndex(Path(index_root) / f"server-{i}")
                if index_root is not None
                else None
            )
            self.clouds.append(spec)
            self.servers.append(CDStoreServer(server_id=i, cloud=spec, index=index))
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

        ``root`` is the deployment directory: local cloud specs get a
        :class:`~repro.storage.backend.LocalDirBackend` under
        ``root/cloud-<i>`` and servers get durable LSM indices under
        ``root/indices`` (omit it for fully in-memory systems — tests,
        simulations).  Remote specs become authenticated proxies when
        ``credentials`` is given.  This replaces the old pattern of
        re-deriving constructor kwargs from a loose config dict at every
        call site.
        """
        from repro.storage.backend import LocalDirBackend

        root = Path(root) if root is not None else None
        clouds: list = []
        for i, spec in enumerate(config.cloud_specs):
            if spec.is_remote:
                clouds.append(str(spec))
                continue
            backend = (
                LocalDirBackend(root / f"cloud-{i}") if root is not None else None
            )
            clouds.append(
                CloudProvider(
                    name=f"cloud-{i}",
                    uplink=Link(100.0),
                    downlink=Link(100.0),
                    backend=backend,
                )
            )
        return cls(
            n=config.n,
            k=config.k,
            salt=config.salt_bytes,
            clouds=clouds,
            index_root=root / "indices" if root is not None else None,
            scheme=config.scheme,
            key_server=key_server,
            chunker=config.chunker,
            threads=config.threads,
            workers=config.workers,
            pipeline_depth=config.pipeline_depth,
            credentials=credentials,
            gateway=config.gateway,
            obs=config.obs,
        )

    # ------------------------------------------------------------------
    # clients
    # ------------------------------------------------------------------
    def client(
        self,
        user_id: str,
        chunker: Chunker | ChunkerSpec | str | None = None,
        threads: int | None = None,
        workers: str | None = None,
        pipeline_depth: int | str | None = None,
    ) -> CDStoreClient:
        """Get (or create) the CDStore client for ``user_id``.

        ``chunker``, ``threads``, ``workers`` and ``pipeline_depth``
        default to the system-wide settings; pass explicit values to
        override for this client (first call wins — clients are cached
        per user).
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
                workers=self.workers if workers is None else workers,
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
        self.servers[index] = CDStoreServer(
            server_id=index, cloud=self.clouds[index]
        )
        # Existing clients hold server references; refresh them.
        for client in self._clients.values():
            client.servers[index] = self.servers[index]

    def repair_cloud(self, index: int) -> int:
        """Rebuild cloud ``index``'s shares from the surviving clouds.

        CDStore "reconstructs original secrets and then rebuilds the lost
        shares as in Reed-Solomon codes" (§3.1).  Every user file is
        re-read from ``k`` healthy clouds, each secret decoded, share
        ``index`` regenerated and re-ingested at the repaired server.
        Returns the number of shares rebuilt.
        """
        target = self.servers[index]
        target.cloud.check_available()
        healthy = [
            server
            for server in self.servers
            if server.server_id != index and server.cloud.available
        ]
        if len(healthy) < self.k:
            raise InsufficientCloudsError(
                f"repair needs k={self.k} healthy clouds, found {len(healthy)}"
            )
        donors = healthy[: self.k]
        rebuilt = 0
        # Walk every (user, file) recorded on the first donor — through the
        # server surface, so a remote donor serves repairs over the wire.
        for user, lookup_key in donors[0].list_backups():
            client = self.client(user)
            # Donor reads go through the client's comm engine so recipe and
            # share fetches overlap across the k donor clouds (§4.6).
            recipes = {
                server.server_id: recipe
                for server, recipe in zip(
                    donors,
                    client.comm.map_servers(
                        lambda server, _user=user, _key=lookup_key: (
                            server.get_recipe(_user, _key)
                        ),
                        donors,
                    ),
                )
            }
            entry0 = donors[0].get_file_entry(user, lookup_key)
            shares_by_server = {
                server.server_id: shares
                for server, shares in zip(
                    donors,
                    client.comm.map_servers(
                        lambda server: server.fetch_shares(
                            [e.fingerprint for e in recipes[server.server_id]]
                        ),
                        donors,
                    ),
                )
            }
            metas: list[ShareMeta] = []
            for seq in range(entry0.secret_count):
                secret_size = recipes[donors[0].server_id][seq].secret_size
                shares = {
                    server.server_id: shares_by_server[server.server_id][
                        recipes[server.server_id][seq].fingerprint
                    ]
                    for server in donors
                }
                secret = client.dispersal.decode(shares, secret_size)
                new_shares = client.dispersal.encode(secret)
                lost = new_shares.shares[index]
                meta = ShareMeta(
                    fingerprint=fingerprint(lost, domain="client"),
                    share_size=len(lost),
                    secret_seq=seq,
                    secret_size=secret_size,
                )
                known = target.query_duplicates(user, [meta.fingerprint])[0]
                if not known:
                    target.upload_shares(
                        user, [ShareUpload(meta=meta, data=lost)]
                    )
                    rebuilt += 1
                metas.append(meta)
            manifest_entry = donors[0].get_file_entry(user, lookup_key)
            from repro.server.messages import FileManifest

            # The repaired server needs its own file entry + recipe; the
            # pathname share for cloud `index` is regenerated from donors'
            # shares via the client's path sharer.
            path_shares = {
                server.server_id: server.get_file_entry(user, lookup_key).path_share
                for server in donors
            }
            path = client._path_sharer.recover(
                path_shares, secret_size=self._path_len(path_shares)
            )
            new_path_shares = client._path_sharer.split(path)
            manifest = FileManifest(
                lookup_key=lookup_key,
                path_share=new_path_shares.shares[index],
                file_size=manifest_entry.file_size,
                secret_count=manifest_entry.secret_count,
            )
            target.finalize_file(user, manifest, metas)
        target.flush()
        return rebuilt

    @staticmethod
    def _path_len(path_shares: dict[int, bytes]) -> int:
        # Shamir shares are exactly as long as the secret.
        return len(next(iter(path_shares.values())))

    def scrub_and_repair(self, index: int) -> int:
        """Audit cloud ``index`` for silent corruption and heal it.

        Runs the server's scrub, then regenerates every corrupt share by
        decoding its secret from the healthy clouds and re-encoding —
        the same Reed-Solomon repair as :meth:`repair_cloud`, applied
        surgically.  Returns the number of shares healed.
        """
        target = self.servers[index]
        corrupt = set(target.scrub())
        donors = [
            server
            for server in self.servers
            if server.server_id != index and server.cloud.available
        ][: self.k]
        if len(donors) < self.k:
            raise InsufficientCloudsError(
                f"scrub repair needs k={self.k} healthy clouds"
            )
        from repro.crypto.hashing import fingerprint as _fingerprint
        from repro.errors import ReproError
        from repro.server.messages import RecipeEntry

        healed: set[bytes] = set()
        recipes_rebuilt = 0
        for user, lookup_key in target.list_backups():
            client = self.client(user)
            donor_recipes = {
                server.server_id: recipe
                for server, recipe in zip(
                    donors,
                    client.comm.map_servers(
                        lambda server, _user=user, _key=lookup_key: (
                            server.get_recipe(_user, _key)
                        ),
                        donors,
                    ),
                )
            }
            secret_count = len(donor_recipes[donors[0].server_id])

            def _regenerate(seq: int) -> tuple[bytes, int]:
                """Decode secret ``seq`` from donors; return (share, size)."""
                shares = {
                    server.server_id: server.fetch_shares(
                        [donor_recipes[server.server_id][seq].fingerprint]
                    )[donor_recipes[server.server_id][seq].fingerprint]
                    for server in donors
                }
                secret_size = donor_recipes[donors[0].server_id][seq].secret_size
                secret = client.dispersal.decode(shares, secret_size)
                return client.dispersal.encode(secret).shares[index], secret_size

            try:
                target_recipe = target.get_recipe(user, lookup_key, bypass_cache=True)
            except ReproError:
                # The recipe container itself is corrupt: rebuild the whole
                # recipe from donor data.
                entries = []
                for seq in range(secret_count):
                    share, secret_size = _regenerate(seq)
                    server_fp = _fingerprint(share, domain="server")
                    if server_fp in corrupt and server_fp not in healed:
                        target.replace_share(server_fp, share)
                        healed.add(server_fp)
                    entries.append(
                        RecipeEntry(fingerprint=server_fp, secret_size=secret_size)
                    )
                target.rebuild_recipe(user, lookup_key, entries)
                recipes_rebuilt += 1
                continue

            for seq, entry in enumerate(target_recipe):
                if entry.fingerprint in corrupt and entry.fingerprint not in healed:
                    share, _ = _regenerate(seq)
                    target.replace_share(entry.fingerprint, share)
                    healed.add(entry.fingerprint)
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
