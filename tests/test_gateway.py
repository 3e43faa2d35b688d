"""The sharded read gateway: ring, hot cache, service and wire surface.

Covers the `repro.gateway` stack bottom-up — consistent-hash stability,
byte-bounded cache eviction and per-backup invalidation, resolution +
window serving against real in-process servers — then end-to-end: a
client restoring through a gateway front-end over real loopback sockets,
tenancy scoping on the gateway frames, and the degraded mode the design
leans on (gateway path provably dead, restore still byte-identical via
the direct-quorum fallback).
"""

from __future__ import annotations

import struct
from collections import Counter

import pytest

from repro.chunking.fixed import FixedChunker
from repro.client.client import CDStoreClient
from repro.cloud.network import Link
from repro.cloud.provider import CloudProvider
from repro.errors import (
    AuthError,
    CloudUnavailableError,
    NotFoundError,
    ParameterError,
    ProtocolError,
)
from repro.gateway import GatewayService, HashRing, HotContainerCache
from repro.net import AsyncCDStoreTCPServer, CDStoreTCPServer, RemoteServerProxy, wire
from repro.server.server import CDStoreServer
from repro.tenants import Credentials, TenantRecord, TenantRegistry


def make_servers(n: int = 4) -> list[CDStoreServer]:
    return [
        CDStoreServer(
            server_id=i,
            cloud=CloudProvider(f"cloud-{i}", Link(100.0), Link(100.0)),
        )
        for i in range(n)
    ]


def make_client(servers, user="alice", **kwargs) -> CDStoreClient:
    kwargs.setdefault("chunker", FixedChunker(4096))
    return CDStoreClient(user_id=user, servers=list(servers), k=3,
                         salt=b"org", **kwargs)


def payload(size: int, seed: int = 7) -> bytes:
    import random

    return random.Random(seed).randbytes(size)


def store(servers, name: str, data: bytes, user="alice") -> None:
    writer = make_client(servers, user=user)
    writer.upload(name, data)
    writer.flush()


# ---------------------------------------------------------------------------
# consistent-hash ring
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_validation(self):
        with pytest.raises(ParameterError):
            HashRing([])
        with pytest.raises(ParameterError):
            HashRing([1, 1])
        with pytest.raises(ParameterError):
            HashRing([1], vnodes=0)

    def test_preferred_is_a_permutation_of_all_nodes(self):
        ring = HashRing([0, 1, 2, 3])
        order = ring.preferred(b"some-window-key")
        assert sorted(order) == [0, 1, 2, 3]

    def test_deterministic_across_instances(self):
        """Two processes building the same ring must agree (the cache
        only converges if every gateway shards identically)."""
        keys = [b"key-%d" % i for i in range(64)]
        a = HashRing([0, 1, 2, 3], vnodes=16)
        b = HashRing([3, 2, 1, 0], vnodes=16)  # order must not matter
        assert [a.preferred(k) for k in keys] == [b.preferred(k) for k in keys]

    def test_adding_a_node_only_moves_keys_to_it(self):
        """The consistent-hashing contract: growing the ring reassigns
        a ~1/n slice to the new node and nothing else — a modulo scheme
        would reshuffle (and cold-start the cache for) almost every key."""
        keys = [b"window-%d" % i for i in range(512)]
        before = HashRing([0, 1, 2, 3], vnodes=32)
        after = HashRing([0, 1, 2, 3, 4], vnodes=32)
        moved = 0
        for key in keys:
            old = before.preferred(key)[0]
            new = after.preferred(key)[0]
            if new != old:
                assert new == 4  # keys only ever move to the new node
                moved += 1
        assert 0 < moved < len(keys) // 2


# ---------------------------------------------------------------------------
# hot-container cache
# ---------------------------------------------------------------------------


ALICE = ("alice", b"file-a")
BOB = ("bob", b"file-b")


def _key(backup, window, server_id=0, digest=b"d"):
    return (*backup, window, server_id, digest)


class TestHotContainerCache:
    def test_byte_bounded_eviction(self):
        cache = HotContainerCache(100)
        cache.put(_key(ALICE, 0), [b"x" * 60])
        cache.put(_key(ALICE, 1), [b"y" * 60])  # evicts window 0
        assert cache.get(_key(ALICE, 0)) is None
        assert cache.get(_key(ALICE, 1)) == [b"y" * 60]
        assert cache.size_bytes <= cache.capacity_bytes

    def test_eviction_keeps_backup_index_in_step(self):
        """A capacity-evicted key must vanish from the per-backup index
        too, or invalidate() would count (and retain bookkeeping for)
        entries that no longer exist."""
        cache = HotContainerCache(100)
        cache.put(_key(ALICE, 0), [b"x" * 60])
        cache.put(_key(ALICE, 1), [b"y" * 60])  # evicts window 0
        assert cache.invalidate(ALICE) == 1  # only window 1 remains

    def test_invalidate_drops_only_that_backup(self):
        cache = HotContainerCache(1 << 20)
        cache.put(_key(ALICE, 0), [b"a"])
        cache.put(_key(ALICE, 1), [b"b"])
        cache.put(_key(BOB, 0), [b"c"])
        assert cache.invalidate(ALICE) == 2
        assert cache.invalidate(ALICE) == 0  # idempotent
        assert cache.get(_key(ALICE, 0)) is None
        assert cache.get(_key(BOB, 0)) == [b"c"]

    def test_hit_stats(self):
        cache = HotContainerCache(1 << 20)
        cache.put(_key(ALICE, 0), [b"a"])
        assert cache.get(_key(ALICE, 0)) is not None
        assert cache.get(_key(ALICE, 1)) is None
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_empty_share_lists_still_occupy_a_slot(self):
        cache = HotContainerCache(10)
        cache.put(_key(ALICE, 0), [])
        assert cache.entries == 1
        assert cache.size_bytes == 1  # floored, so it stays evictable


# ---------------------------------------------------------------------------
# gateway service over in-process replicas
# ---------------------------------------------------------------------------


class TestGatewayService:
    def test_parameter_validation(self):
        servers = make_servers(4)
        with pytest.raises(ParameterError):
            GatewayService(servers, k=0)
        with pytest.raises(ParameterError):
            GatewayService(servers[:2], k=3)
        with pytest.raises(ParameterError):
            GatewayService([servers[0], servers[0]], k=1)
        with pytest.raises(ParameterError):
            GatewayService(servers, k=3, recipe_ttl=-1)

    def test_resolve_matches_direct_plan(self):
        servers = make_servers(4)
        data = payload(50_000)
        store(servers, "f", data)
        client = make_client(servers)
        with GatewayService(servers, k=3) as service:
            file_size, secret_sizes, windows = service.resolve_backup(
                "alice", client._lookup_key("f")
            )
        assert file_size == len(data)
        assert sum(secret_sizes) == len(data)
        assert windows[0][0] == 0
        assert windows[-1][1] == len(secret_sizes)

    def test_resolve_unknown_backup_raises_not_found(self):
        servers = make_servers(4)
        client = make_client(servers)
        with GatewayService(servers, k=3) as service:
            with pytest.raises(NotFoundError):
                service.resolve_backup("alice", client._lookup_key("nope"))

    def test_window_index_out_of_range(self):
        servers = make_servers(4)
        store(servers, "f", payload(10_000))
        client = make_client(servers)
        with GatewayService(servers, k=3) as service:
            key = client._lookup_key("f")
            service.resolve_backup("alice", key)
            with pytest.raises(ParameterError):
                list(service.iter_window_shards("alice", key, 99))

    def test_restore_through_gateway_and_cache_hits(self):
        servers = make_servers(4)
        data = payload(100_000)
        store(servers, "f", data)
        with GatewayService(servers, k=3, window_bytes=16_384) as service:
            client = make_client(servers, gateway=service)
            with client.open_read("f") as session:
                assert session.plan.via == "gateway"
                assert len(session.plan.windows) > 1
                assert session.read() == data
            cold = service.stats()
            assert cold["cache_misses"] > 0 and cold["cache_hits"] == 0
            assert client.download("f") == data  # warm pass
            warm = service.stats()
            assert warm["cache_hits"] >= cold["cache_misses"]
            assert warm["cache_misses"] == cold["cache_misses"]
            assert warm["cache_hit_ratio"] > 0

    def test_overwrite_invalidates_and_serves_new_bytes(self):
        """recipe_ttl=0 revalidates every resolve: after an overwrite the
        next restore must return the new bytes and reclaim the old
        version's cache entries (content addressing already makes stale
        hits impossible; the invalidation frees the dead weight)."""
        servers = make_servers(4)
        old = payload(60_000, seed=1)
        new = payload(60_000, seed=2)
        store(servers, "f", old)
        with GatewayService(
            servers, k=3, window_bytes=16_384, recipe_ttl=0.0
        ) as service:
            client = make_client(servers, gateway=service)
            assert client.download("f") == old
            populated = service.stats()["cache_entries"]
            assert populated > 0
            store(servers, "f", new)
            assert client.download("f") == new
            # Old version's entries were invalidated on re-resolution:
            # the cache holds at most the new version's working set.
            assert service.stats()["cache_entries"] <= populated

    def test_invalidate_backup_counts_dropped_entries(self):
        servers = make_servers(4)
        store(servers, "f", payload(40_000))
        with GatewayService(servers, k=3, window_bytes=16_384) as service:
            client = make_client(servers, gateway=service)
            client.download("f")
            dropped = service.invalidate_backup(
                "alice", client._lookup_key("f")
            )
            assert dropped > 0
            assert service.stats()["cache_entries"] == 0

    def test_per_user_cache_isolation(self):
        """Two tenants storing the same pathname get their own bytes —
        cache keys carry the user id, so a shared gateway can never leak
        one tenant's hot windows into another's restore."""
        servers = make_servers(4)
        data_a = payload(30_000, seed=1)
        data_b = payload(30_000, seed=2)
        store(servers, "same-name", data_a, user="alice")
        store(servers, "same-name", data_b, user="bob")
        with GatewayService(servers, k=3) as service:
            alice = make_client(servers, user="alice", gateway=service)
            bob = make_client(servers, user="bob", gateway=service)
            assert alice.download("same-name") == data_a
            assert bob.download("same-name") == data_b
            assert alice.download("same-name") == data_a  # bob warmed nothing


# ---------------------------------------------------------------------------
# degraded mode: dead replicas fall back to the direct quorum
# ---------------------------------------------------------------------------


class _FlakyReplica:
    """Delegate that serves ``budget`` fetch_shares calls, then dies."""

    def __init__(self, inner, budget: list):
        self._inner = inner
        self._budget = budget  # shared across replicas: [calls_left]

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def fetch_shares(self, fingerprints):
        if self._budget[0] <= 0:
            raise CloudUnavailableError("replica killed mid-restore")
        self._budget[0] -= 1
        return self._inner.fetch_shares(fingerprints)


class TestGatewayFallback:
    def test_replica_dying_mid_restore_falls_back_byte_identically(self):
        """Window 0 streams fine, then every replica goes dark: the
        gateway path fails mid-restore and ``download`` restarts on the
        direct quorum, returning the exact original bytes."""
        servers = make_servers(4)
        data = payload(120_000)
        store(servers, "f", data)
        budget = [3]  # exactly one window's worth of fetches (k=3)
        flaky = [_FlakyReplica(s, budget) for s in servers]
        with GatewayService(flaky, k=3, window_bytes=16_384) as service:
            client = make_client(servers, gateway=service)
            with pytest.raises(CloudUnavailableError):
                with client.open_read("f", via="gateway") as session:
                    session.read()
            assert client.download("f") == data  # direct-quorum fallback

    def test_gateway_down_entirely_still_restores(self):
        servers = make_servers(4)
        data = payload(40_000)
        store(servers, "f", data)
        budget = [0]  # every gateway fetch fails immediately
        flaky = [_FlakyReplica(s, budget) for s in servers]
        with GatewayService(flaky, k=3) as service:
            client = make_client(servers, gateway=service)
            assert client.download("f") == data

    def test_stale_replica_falls_back_to_agreed_version(self):
        """An overwrite whose finalize failed on the gateway's first
        ring-preferred replica leaves it stale: the gateway resolves by the
        restore's quorum, so it serves the version the other three agree
        on itself instead of failing the restore into the direct path."""
        servers = make_servers(4)
        old, new = payload(20_000, seed=1), payload(30_000, seed=2)
        store(servers, "f", old)
        with GatewayService(servers, k=3) as service:
            client = make_client(servers, gateway=service)
            lookup_key = client._lookup_key("f")
            stale = servers[service.ring.preferred(lookup_key)[0]]

            def outage(*args, **kwargs):
                raise CloudUnavailableError("finalize lost")

            stale.finalize_file = outage
            with pytest.raises(CloudUnavailableError):
                store(servers, "f", new)
            del stale.finalize_file
            with client.open_read("f", via="gateway") as session:
                assert session.plan.via == "gateway"
                assert session.read() == new
            assert client.download("f") == new


class TestGatewayQuorum:
    """The gateway resolves by the restore's quorum and serves each window
    from the first k replicas, in that window's ring order, that agree."""

    @pytest.mark.parametrize(
        "schedule", [{}, {"threads": 2, "pipeline_depth": 2}], ids=["inline", "pipelined"]
    )
    def test_stale_replica_preferred_for_a_window_is_never_served(self, schedule):
        servers = make_servers(4)
        old, new = payload(20_000, seed=1), payload(30_000, seed=2)
        store(servers, "f", old)
        with GatewayService(servers, k=3, window_bytes=8192) as service:
            client = make_client(servers, gateway=service)
            lookup_key = client._lookup_key("f")
            stale_id = service.ring.preferred(lookup_key + struct.pack(">I", 1))[0]
            self._overwrite_failing_on(servers, stale_id, new, schedule)

            cache_keys, recipe_reads = [], Counter()
            put = service.cache.put

            def recording_put(key, shares):
                cache_keys.append(key)
                put(key, shares)

            def counting(server):
                get_recipe = server.get_recipe

                def counted(*args):
                    recipe_reads[server.server_id] += 1
                    return get_recipe(*args)

                return counted

            service.cache.put = recording_put
            for server in servers:
                server.get_recipe = counting(server)
            with client.open_read("f", via="gateway") as session:
                assert session.plan.via == "gateway"
                assert len(session.plan.windows) == 4
                assert session.read() == new
            assert {key[2] for key in cache_keys} == {0, 1, 2, 3}  # window indices
            assert stale_id not in {key[3] for key in cache_keys}  # replica ids
            assert set(recipe_reads.values()) == {1}  # once per cached resolution

    @staticmethod
    def _overwrite_failing_on(servers, stale_id: int, data: bytes, schedule) -> None:
        """Overwrite ``f`` with ``data`` while ``stale_id``'s finalize raises."""

        def outage(*args, **kwargs):
            raise CloudUnavailableError("finalize lost")

        servers[stale_id].finalize_file = outage
        with make_client(servers, **schedule) as writer:
            with pytest.raises(CloudUnavailableError):
                writer.upload("f", data)
            writer.flush()
        del servers[stale_id].finalize_file

    @pytest.mark.parametrize(
        "schedule", [{}, {"threads": 2, "pipeline_depth": 2}], ids=["inline", "pipelined"]
    )
    def test_same_shape_stale_replica_is_never_served(self, schedule):
        """A stale replica whose entry has the new version's size and secret
        count differs in its version tag: preferred for a window, it is
        skipped there, and every window comes from agreeing replicas."""
        servers = make_servers(4)
        old, new = payload(20_000, seed=1), payload(20_000, seed=2)
        store(servers, "f", old)
        with GatewayService(servers, k=3, window_bytes=8192) as service:
            client = make_client(servers, gateway=service)
            lookup_key = client._lookup_key("f")
            stale_id = service.ring.preferred(lookup_key + struct.pack(">I", 1))[0]
            self._overwrite_failing_on(servers, stale_id, new, schedule)
            stale = servers[stale_id].get_file_entry("alice", lookup_key)
            assert (stale.file_size, stale.secret_count) == (len(new), 5)

            cache_keys = []
            put = service.cache.put

            def recording_put(key, shares):
                cache_keys.append(key)
                put(key, shares)

            service.cache.put = recording_put
            with client.open_read("f", via="gateway") as session:
                assert session.plan.via == "gateway"
                assert session.read() == new
                windows = len(session.plan.windows)
            assert windows > 1
            assert {key[2] for key in cache_keys} == set(range(windows))
            assert stale_id not in {key[3] for key in cache_keys}


# ---------------------------------------------------------------------------
# end-to-end over real sockets
# ---------------------------------------------------------------------------


@pytest.fixture
def gateway_deployment():
    """Four TCP-served replicas behind one async gateway front-end."""
    servers = make_servers(4)
    tcps = [CDStoreTCPServer(server).start() for server in servers]
    replicas = [
        RemoteServerProxy(f"tcp://{t.address[0]}:{t.address[1]}", server_id=i)
        for i, t in enumerate(tcps)
    ]
    service = GatewayService(
        replicas, k=3, window_bytes=16_384, own_replicas=True
    )
    front = AsyncCDStoreTCPServer(None, gateway=service).start()
    host, port = front.address
    gw_proxy = RemoteServerProxy(
        f"tcp://{host}:{port}", server_id=wire.GATEWAY_SERVER_ID
    )
    try:
        yield servers, tcps, service, front, gw_proxy
    finally:
        gw_proxy.close()
        front.shutdown()
        service.close()  # closes the replica proxies (own_replicas)
        for tcp in tcps:
            tcp.shutdown()


class TestGatewayWireE2E:
    def test_restore_through_gateway_frames(self, gateway_deployment):
        servers, _tcps, service, _front, gw_proxy = gateway_deployment
        data = payload(100_000)
        store(servers, "f", data)
        client = make_client(servers, gateway=gw_proxy)
        assert client.download("f") == data
        assert service.stats()["resolutions"] == 1
        assert client.download("f") == data
        assert service.stats()["cache_hits"] > 0

    def test_gateway_front_end_rejects_api_frames(self, gateway_deployment):
        """A pure gateway front-end answers ping/auth/gateway frames only;
        server-API frames get a typed protocol error, not a hang."""
        servers, _tcps, _service, _front, gw_proxy = gateway_deployment
        store(servers, "f", payload(10_000))
        client = make_client(servers)
        assert gw_proxy.ping()
        with pytest.raises(ProtocolError, match="gateway front-end"):
            gw_proxy.get_file_entry("alice", client._lookup_key("f"))

    def test_replicas_killed_behind_cache_miss_falls_back(
        self, gateway_deployment
    ):
        """The ISSUE's degraded mode, over real sockets: warm file A,
        kill enough replicas that any k-subset contains a dead one, and
        restore file B (a cache miss) — the gateway path raises, the
        direct quorum (still reachable in-process) restores
        byte-identically."""
        servers, tcps, _service, _front, gw_proxy = gateway_deployment
        data_a = payload(40_000, seed=1)
        data_b = payload(40_000, seed=2)
        store(servers, "a", data_a)
        store(servers, "b", data_b)
        client = make_client(servers, gateway=gw_proxy)
        assert client.download("a") == data_a  # warm the gateway
        tcps[1].shutdown()  # two dead replicas: every k=3 choice
        tcps[2].shutdown()  # now includes at least one of them
        assert client.download("b") == data_b  # fallback, byte-identical
        with pytest.raises((CloudUnavailableError, ProtocolError)):
            with client.open_read("b", via="gateway") as session:
                session.read()


class TestGatewayTenancy:
    def test_gateway_frames_are_tenant_scoped(self):
        """An authenticated connection is pinned to its tenant for the
        gateway frames exactly like the server-API frames: alice cannot
        resolve (or warm the cache for) bob's backups."""
        registry = TenantRegistry([
            TenantRecord("alice", b"alice-secret"),
            TenantRecord("bob", b"bob-secret"),
        ])
        servers = make_servers(4)
        data_a = payload(20_000, seed=1)
        data_b = payload(20_000, seed=2)
        store(servers, "f", data_a, user="alice")
        store(servers, "f", data_b, user="bob")
        service = GatewayService(servers, k=3)
        front = AsyncCDStoreTCPServer(
            None, gateway=service, tenants=registry
        ).start()
        host, port = front.address
        alice_gw = RemoteServerProxy(
            f"tcp://{host}:{port}",
            server_id=wire.GATEWAY_SERVER_ID,
            credentials=Credentials("alice", b"alice-secret"),
        )
        try:
            alice = make_client(servers, user="alice", gateway=alice_gw)
            assert alice.download("f") == data_a
            bob_key = make_client(servers, user="bob")._lookup_key("f")
            with pytest.raises(AuthError):
                alice_gw.resolve_backup("bob", bob_key)
            with pytest.raises(AuthError):
                list(alice_gw.iter_window_shards("bob", bob_key, 0))
        finally:
            alice_gw.close()
            front.shutdown()
            service.close()

    def test_unauthenticated_gateway_frames_rejected(self):
        registry = TenantRegistry([TenantRecord("alice", b"alice-secret")])
        servers = make_servers(4)
        service = GatewayService(servers, k=3)
        front = AsyncCDStoreTCPServer(
            None, gateway=service, tenants=registry
        ).start()
        host, port = front.address
        anon = RemoteServerProxy(
            f"tcp://{host}:{port}", server_id=wire.GATEWAY_SERVER_ID
        )
        try:
            with pytest.raises(AuthError):
                anon.resolve_backup("alice", b"\0" * 32)
        finally:
            anon.close()
            front.shutdown()
            service.close()


# ---------------------------------------------------------------------------
# dispatcher wiring
# ---------------------------------------------------------------------------


class TestFrontEndWiring:
    def test_front_end_requires_server_or_gateway(self):
        from repro.net.dispatch import FrameDispatcher

        with pytest.raises(ValueError):
            FrameDispatcher(None)

    def test_api_front_end_without_gateway_rejects_gateway_frames(self):
        servers = make_servers(1)
        tcp = AsyncCDStoreTCPServer(servers[0]).start()
        host, port = tcp.address
        proxy = RemoteServerProxy(f"tcp://{host}:{port}", server_id=0)
        try:
            with pytest.raises(ProtocolError, match="no read gateway"):
                proxy.resolve_backup("alice", b"\0" * 32)
        finally:
            proxy.close()
            tcp.shutdown()
