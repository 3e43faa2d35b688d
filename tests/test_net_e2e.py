"""End-to-end tests for the networked serving layer (`repro.net`).

Real loopback sockets, real frames: backups written through
:class:`RemoteServerProxy` restore byte-identically through the in-process
engine (and vice versa), a connection killed mid-restore recovers through
the same window-granular spare failover the in-process stall tests
exercise, and a multi-container restore never sees a reply frame — nor a
server-side working set — beyond the configured frame budget.
"""

from __future__ import annotations

import threading

import pytest

from repro.chunking.fixed import FixedChunker
from repro.client.client import CDStoreClient
from repro.cloud.network import Link
from repro.cloud.provider import CloudProvider
from repro.errors import CloudUnavailableError, NotFoundError
from repro.config import CloudSpec
from repro.net import AsyncCDStoreTCPServer, CDStoreTCPServer, RemoteServerProxy
from repro.server.server import CDStoreServer
from repro.storage.container import KIND_SHARE
from repro.system.cdstore import CDStoreSystem


def make_servers(n: int = 4) -> list[CDStoreServer]:
    return [
        CDStoreServer(
            server_id=i,
            cloud=CloudProvider(f"cloud-{i}", Link(100.0), Link(100.0)),
        )
        for i in range(n)
    ]


@pytest.fixture
def served():
    """Four in-memory servers, each behind a loopback TCP server."""
    servers = make_servers(4)
    tcps = [CDStoreTCPServer(server).start() for server in servers]
    proxies = [
        RemoteServerProxy(f"tcp://{t.address[0]}:{t.address[1]}", server_id=i)
        for i, t in enumerate(tcps)
    ]
    try:
        yield servers, tcps, proxies
    finally:
        for proxy in proxies:
            proxy.close()
        for tcp in tcps:
            tcp.shutdown()


def make_client(servers, user="alice", **kwargs) -> CDStoreClient:
    kwargs.setdefault("chunker", FixedChunker(4096))
    return CDStoreClient(user_id=user, servers=list(servers), k=3,
                         salt=b"org", **kwargs)


def payload(size: int, seed: int = 7) -> bytes:
    import random

    return random.Random(seed).randbytes(size)


class _Wrapped:
    """Delegating server wrapper for failure injection at the TCP layer."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class CrashingServer(_Wrapped):
    """Serves ``ok_calls`` fetch streams, then dies with a non-Repro error —
    the TCP handler closes the connection abruptly, exactly like a killed
    process, with no error frame for the client to interpret."""

    def __init__(self, inner, ok_calls: int):
        super().__init__(inner)
        self.ok_calls = ok_calls
        self.calls = 0

    def iter_share_batches(self, fingerprints, **kwargs):
        self.calls += 1
        if self.calls > self.ok_calls:
            raise RuntimeError("injected server crash")
        return self._inner.iter_share_batches(fingerprints, **kwargs)


class CountingServer(_Wrapped):
    def __init__(self, inner):
        super().__init__(inner)
        self.fetch_calls = 0

    def iter_share_batches(self, fingerprints, **kwargs):
        self.fetch_calls += 1
        return self._inner.iter_share_batches(fingerprints, **kwargs)


# ---------------------------------------------------------------------------
# cross-transport byte identity
# ---------------------------------------------------------------------------


class TestCrossTransportIdentity:
    def test_socket_backup_restores_inproc_and_back(self, served):
        """One set of servers, two transports: what either engine writes,
        the other restores byte-identically."""
        servers, _tcps, proxies = served
        data_a = payload(50_000, seed=1)
        data_b = payload(50_000, seed=2)

        remote = make_client(proxies)
        local = make_client(servers)

        remote.upload("/via-socket", data_a)
        remote.flush()
        local.upload("/via-inproc", data_b)
        local.flush()

        # Byte-identical across the transport boundary, both directions.
        assert local.download("/via-socket") == data_a
        assert remote.download("/via-inproc") == data_b
        remote.close()
        local.close()

    def test_socket_and_inproc_store_identical_bytes(self, served):
        """The wire layer changes transport, not content: the same upload
        through sockets and through method calls lands the same physical
        bytes on the clouds."""
        servers, _tcps, proxies = served
        shadow = make_servers(4)
        data = payload(40_000)

        remote = make_client(proxies)
        direct = make_client(shadow)
        remote.upload("/f", data)
        remote.flush()
        direct.upload("/f", data)
        direct.flush()

        for via_socket, via_calls in zip(servers, shadow):
            a = via_socket.cloud.backend
            b = via_calls.cloud.backend
            assert a.list_keys() == b.list_keys()
            for key in a.list_keys():
                assert a.get_object(key) == b.get_object(key)
        remote.close()
        direct.close()

    def test_typed_errors_cross_the_wire(self, served):
        _servers, _tcps, proxies = served
        with pytest.raises(NotFoundError):
            proxies[0].get_file_entry("alice", b"\x00" * 32)
        # The connection survives a typed error: the next call works.
        assert proxies[0].ping()

    def test_delta_finalize_and_its_fallback_over_sockets(self, served):
        """A delta manifest crosses the wire, and so does the typed
        ``StaleBaseError`` a cloud answers when it does not hold the base."""
        from repro.obs.registry import REGISTRY

        _servers, _tcps, proxies = served
        counter = REGISTRY.counter("client_finalize_total")

        def finalizes():
            return [counter.value(mode=mode) for mode in ("delta", "full", "fallback")]

        first, second = make_client(proxies), make_client(proxies)
        v1 = payload(80_000, seed=1)
        v2 = v1[:30_000] + payload(4096, seed=2) + v1[34_096:]
        v3, v4 = payload(80_000, seed=3), v2[:40_000] + payload(100, seed=4) + v2[40_100:]
        first.upload("f", v1)
        before = finalizes()
        first.upload("f", v2)  # a delta on every cloud
        second.upload("f", v3)  # no history on this client: full
        first.upload("f", v4)  # its base is v2's version: stale everywhere
        assert [now - then for now, then in zip(finalizes(), before)] == [4, 4, 4]
        assert second.download("f") == v4
        first.close()
        second.close()

    def test_streaming_pipeline_over_sockets(self, served):
        """The comm engine's streaming upload/restore stages (per-cloud
        workers, bounded windows) run unchanged over the proxies."""
        _servers, _tcps, proxies = served
        data = payload(120_000, seed=3)
        client = make_client(proxies, threads=2, pipeline_depth=3)
        client.restore_window_bytes = 8192
        client.upload("/stream", data)
        client.flush()
        assert client.download("/stream") == data
        assert sorted(client.list_files()) == ["/stream"]
        client.close()


# ---------------------------------------------------------------------------
# cloud repair over the wire
# ---------------------------------------------------------------------------


class UploadCountingServer(_Wrapped):
    def __init__(self, inner):
        super().__init__(inner)
        self.upload_calls = 0

    def upload_shares(self, user_id, uploads):
        self.upload_calls += 1
        return self._inner.upload_shares(user_id, uploads)


class TestServedRepair:
    def test_repair_streams_pipelined_uploads_to_an_emptied_target(self, served):
        """Donors and the emptied target all behind TCP front-ends: the
        repair's shares reach the target as pipelined upload batches, not
        one synchronous call per share, and the repaired cloud serves."""
        _servers, tcps, proxies = served
        data = payload(120_000, seed=11)
        client = make_client(proxies)
        client.upload("/f", data)
        client.flush()
        client.close()
        # Vendor termination of cloud 0: a fresh, empty server takes over
        # its slot behind a new front-end.
        tcps[0].shutdown()
        target = UploadCountingServer(make_servers(1)[0])
        tcps[0] = CDStoreTCPServer(target).start()
        system = CDStoreSystem(
            n=4,
            k=3,
            salt=b"org",
            clouds=[f"tcp://{t.address[0]}:{t.address[1]}" for t in tcps],
            chunker=FixedChunker(4096),
        )
        proxy = system.servers[0]
        sent = {"sync": 0, "async": 0}
        sync_upload, async_upload = proxy.upload_shares, proxy.upload_shares_async

        def counted(kind, send):
            def call(*args):
                sent[kind] += 1
                return send(*args)

            return call

        proxy.upload_shares = counted("sync", sync_upload)
        proxy.upload_shares_async = counted("async", async_upload)
        try:
            assert system.repair_cloud(0) == 30
            assert 1 <= target.upload_calls <= 2
            assert sent == {"sync": 0, "async": target.upload_calls}
            tcps[3].shutdown()  # the repaired cloud is now in every quorum
            assert system.client("alice").download("/f") == data
        finally:
            system.close()


# ---------------------------------------------------------------------------
# mid-restore connection kill -> window-granular failover
# ---------------------------------------------------------------------------


class TestConnectionKillFailover:
    def test_connection_kill_mid_restore_fails_over_per_window(self):
        """A server that dies after serving window 0 drops the socket with
        no reply; the proxy surfaces CloudUnavailableError and the read
        session promotes the spare for the remaining windows only."""
        servers = make_servers(4)
        victim = CrashingServer(servers[1], ok_calls=2)  # entry+recipe use 0
        spare = CountingServer(servers[3])
        hosted = [servers[0], victim, servers[2], spare]
        tcps = [CDStoreTCPServer(server).start() for server in hosted]
        proxies = [
            RemoteServerProxy(f"tcp://{t.address[0]}:{t.address[1]}")
            for t in tcps
        ]
        try:
            data = payload(60_000, seed=4)  # 15 windows of one 4 KB secret
            client = make_client(proxies, pipeline_depth=3)
            client.restore_window_bytes = 4096
            client.upload("/f", data)
            client.flush()

            assert client.download("/f") == data
            # The victim served some windows before dying; the spare served
            # the rest — not the whole file.
            assert victim.calls > 1
            assert 0 < spare.fetch_calls < 15
            client.close()
        finally:
            for proxy in proxies:
                proxy.close()
            for tcp in tcps:
                tcp.shutdown()

    def test_dead_server_with_no_spare_propagates_as_outage(self, served):
        servers, tcps, proxies = served
        data = payload(30_000, seed=5)
        client = make_client(proxies[:3], pipeline_depth=2)  # k=3, no spare
        client.restore_window_bytes = 4096
        client.upload("/f", data)
        client.flush()
        tcps[1].shutdown()  # kill one chosen cloud, nothing to promote
        from repro.errors import InsufficientCloudsError

        with pytest.raises((CloudUnavailableError, InsufficientCloudsError)):
            client.download("/f")
        client.close()

    def test_proxy_reconnects_after_server_restart(self, served):
        servers, tcps, proxies = served
        assert proxies[0].ping()
        host, port = tcps[0].address
        tcps[0].shutdown()
        assert not proxies[0].ping()
        with pytest.raises(CloudUnavailableError):
            proxies[0].query_duplicates("alice", [])
        # Same address comes back: the proxy's next call reconnects.
        tcps[0] = CDStoreTCPServer(servers[0], host=host, port=port).start()
        assert proxies[0].ping()
        assert proxies[0].query_duplicates("alice", []) == []


class TestIdleConnection:
    """No thread reads the proxy's socket between calls, so a connection
    the server closed while the proxy sat idle is found before the next
    request is sent on it."""

    @pytest.mark.parametrize("front_end", [CDStoreTCPServer, AsyncCDStoreTCPServer])
    def test_server_restarted_while_idle_is_redialled(self, front_end):
        server = make_servers(1)[0]
        tcp = front_end(server).start()
        host, port = tcp.address
        proxy = RemoteServerProxy(f"tcp://{host}:{port}", server_id=0)
        try:
            assert proxy.query_duplicates("alice", []) == []
            tcp.shutdown()
            tcp = front_end(server, host=host, port=port).start()
            # No ping in between: the first call after the restart works.
            assert proxy.query_duplicates("alice", []) == []
        finally:
            proxy.close()
            tcp.shutdown()

    def test_a_connected_proxy_starts_no_thread(self):
        server = make_servers(1)[0]
        # One executor worker, started by a first proxy: the server adds
        # no thread for the connection under test.
        with AsyncCDStoreTCPServer(server, executor_size=1) as tcp:
            spec = f"tcp://{tcp.address[0]}:{tcp.address[1]}"
            with RemoteServerProxy(spec) as warm:
                assert warm.query_duplicates("alice", []) == []
            before = threading.active_count()
            with RemoteServerProxy(spec) as proxy:
                for _ in range(100):
                    assert proxy.query_duplicates("alice", []) == []
                assert threading.active_count() == before


# ---------------------------------------------------------------------------
# frame budget: bounded replies and bounded server memory
# ---------------------------------------------------------------------------


class TestFrameBudget:
    def test_multi_container_restore_respects_frame_budget(self, monkeypatch):
        """A restore spanning many containers streams in reply frames that
        never exceed the budget, and the server never materialises a whole
        share container."""
        import repro.storage.container as container_mod

        # Shrink containers so a modest backup spans several of them.
        monkeypatch.setattr(container_mod, "CONTAINER_CAP", 16 << 10)

        servers = make_servers(4)
        budget = 8 << 10
        tcps = [
            CDStoreTCPServer(server, frame_budget=budget).start()
            for server in servers
        ]
        proxies = [
            RemoteServerProxy(f"tcp://{t.address[0]}:{t.address[1]}")
            for t in tcps
        ]
        try:
            data = payload(160_000, seed=6)
            client = make_client(proxies)
            client.upload("/big", data)
            client.flush()

            for server in servers:
                share_containers = [
                    cid
                    for cid in server.cloud.backend.list_keys("container-")
                    if server.cloud.backend.get_object(cid)[4] == KIND_SHARE
                ]
                assert len(share_containers) >= 2, "test needs >1 container"

            # Spy on whole-container materialisation during the restore.
            whole_reads: list[str] = []
            original = container_mod.ContainerManager.read_container

            def spying(self, container_id):
                whole_reads.append(container_id)
                return original(self, container_id)

            monkeypatch.setattr(
                container_mod.ContainerManager, "read_container", spying
            )

            for proxy in proxies:
                proxy.max_reply_frame_bytes = 0

            assert client.download("/big") == data

            # 1. No reply frame exceeded the budget.
            for proxy in proxies:
                assert 0 < proxy.max_reply_frame_bytes <= budget
            # 2. No container, share or recipe, was materialised whole
            #    server-side.
            assert whole_reads == []
            client.close()
        finally:
            for proxy in proxies:
                proxy.close()
            for tcp in tcps:
                tcp.shutdown()

    def test_inproc_fetch_never_materialises_share_containers(self, monkeypatch):
        """The ROADMAP open item, closed for the in-process path too: the
        plain method-call fetch_shares serves cold restores via ranged
        entry reads."""
        import repro.storage.container as container_mod

        monkeypatch.setattr(container_mod, "CONTAINER_CAP", 16 << 10)
        system = CDStoreSystem(n=4, k=3, salt=b"org")
        client = system.client("alice", chunker=FixedChunker(4096))
        data = payload(120_000, seed=8)
        client.upload("/f", data)
        client.flush()

        whole_reads: list[str] = []
        original = container_mod.ContainerManager.read_container

        def spying(self, container_id):
            whole_reads.append(container_id)
            return original(self, container_id)

        monkeypatch.setattr(
            container_mod.ContainerManager, "read_container", spying
        )
        assert client.download("/f") == data
        assert whole_reads == []
        system.close()

    def test_fetch_batches_respect_payload_budget(self):
        """The shared batching helper caps each batch at the byte budget."""
        system = CDStoreSystem(n=4, k=3, salt=b"org")
        client = system.client("alice", chunker=FixedChunker(2048))
        client.upload("/f", payload(40_000, seed=9))
        client.flush()
        server = system.servers[0]
        recipe = server.get_recipe("alice", client._lookup_key("/f"))
        fps = [entry.fingerprint for entry in recipe]
        budget = 4096
        batches = list(server.iter_share_batches(fps, budget_bytes=budget))
        assert sum(len(batch) for batch in batches) == len(set(fps))
        for batch in batches:
            size = sum(len(data) for _, data in batch)
            assert size <= budget or len(batch) == 1
        system.close()


# ---------------------------------------------------------------------------
# address parsing
# ---------------------------------------------------------------------------


class TestCloudSpecParsing:
    def test_valid_specs(self):
        assert CloudSpec.parse("tcp://localhost:9300").address == ("localhost", 9300)
        assert CloudSpec.parse("tcp://10.0.0.1:1").address == ("10.0.0.1", 1)

    @pytest.mark.parametrize("text", ["tcp://[::1]:9300", "tcp://::1:9300"])
    def test_ipv6_host_round_trips_in_brackets(self, text):
        """The bracketed form is written; the unbracketed one that older
        config files hold is still read."""
        spec = CloudSpec.parse(text)
        assert spec.address == ("::1", 9300)
        assert str(spec) == "tcp://[::1]:9300"
        assert CloudSpec.parse(str(spec)) == spec
        assert str(CloudSpec.parse("tcp://10.0.0.1:1")) == "tcp://10.0.0.1:1"

    def test_proxy_dials_a_bracketed_ipv6_spec(self):
        try:
            tcp = AsyncCDStoreTCPServer(make_servers(1)[0], host="::1").start()
        except OSError:
            pytest.skip("::1 does not bind on this host")
        spec = f"tcp://[::1]:{tcp.address[1]}"
        try:
            with RemoteServerProxy(spec) as proxy:
                assert proxy.address_spec == spec
                assert proxy.ping()
        finally:
            tcp.shutdown()

    @pytest.mark.parametrize("spec", [
        "localhost:9300", "tcp://", "tcp://host", "tcp://:9300", "tcp://[]:9300",
        "tcp://host:", "tcp://host:abc", "tcp://host:0", "tcp://host:70000",
        "udp://host:1", "",
    ])
    def test_malformed_specs_rejected(self, spec):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            CloudSpec.parse(spec)


# ---------------------------------------------------------------------------
# mixed deployments through CDStoreSystem
# ---------------------------------------------------------------------------


class TestMixedSystem:
    def test_mixed_local_and_remote_clouds(self):
        backing = make_servers(4)
        tcps = [CDStoreTCPServer(backing[i]).start() for i in (2, 3)]
        try:
            clouds = [
                backing[0].cloud,
                backing[1].cloud,
                f"tcp://{tcps[0].address[0]}:{tcps[0].address[1]}",
                f"tcp://{tcps[1].address[0]}:{tcps[1].address[1]}",
            ]
            system = CDStoreSystem(n=4, k=3, salt=b"org", clouds=clouds)
            # Local slots talk straight to the backing servers so both
            # halves of the deployment share state.
            system.servers[0] = backing[0]
            system.servers[1] = backing[1]
            assert system.remote_indices == {2, 3}
            client = system.client("alice", chunker=FixedChunker(4096))
            data = payload(30_000, seed=10)
            client.upload("/f", data)
            client.flush()
            assert client.download("/f") == data
            stats = system.global_stats()
            assert stats.physical_shares > 0  # remote stats RPC folded in
            system.close()
        finally:
            for tcp in tcps:
                tcp.shutdown()

    def test_failure_injection_rejected_on_remote_clouds(self):
        backing = make_servers(1)
        with CDStoreTCPServer(backing[0]) as tcp:
            spec = f"tcp://{tcp.address[0]}:{tcp.address[1]}"
            system = CDStoreSystem(n=1, k=1, clouds=[spec])
            from repro.errors import ParameterError

            for op in (system.fail_cloud, system.recover_cloud, system.wipe_cloud):
                with pytest.raises(ParameterError):
                    op(0)
            system.close()

    def test_wrong_server_id_rejected_at_handshake(self):
        backing = make_servers(2)
        with CDStoreTCPServer(backing[1]) as tcp:  # serves id 1
            proxy = RemoteServerProxy(
                f"tcp://{tcp.address[0]}:{tcp.address[1]}", server_id=0
            )
            from repro.errors import ProtocolError

            with pytest.raises(ProtocolError, match="server id"):
                proxy.query_duplicates("alice", [])
            proxy.close()
