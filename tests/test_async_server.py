"""End-to-end tests for the asyncio serving front-end and mux protocol.

The async server must be behaviourally identical to the threaded one for
well-behaved clients (same dispatcher, same typed errors, same bytes),
while adding the multiplexing semantics this suite pins down: out-of-order
replies routed by request id, request-id reuse rejection, overload
shedding with typed frames, slow-reader eviction, and fast failure of all
in-flight requests when the connection dies mid-mux.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.chunking.fixed import FixedChunker
from repro.client.client import CDStoreClient
from repro.cloud.network import Link
from repro.cloud.provider import CloudProvider
from repro.crypto.hashing import fingerprint
from repro.dedup.stats import DedupStats
from repro.errors import (
    CloudUnavailableError,
    ProtocolError,
    ServerOverloadedError,
)
from repro.net import (
    AsyncCDStoreTCPServer,
    CDStoreTCPServer,
    RemoteServerProxy,
    wire,
)
from repro.server.messages import ShareMeta, ShareUpload
from repro.server.server import CDStoreServer


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


def proxy_for(tcp, **kwargs) -> RemoteServerProxy:
    host, port = tcp.address
    return RemoteServerProxy(f"tcp://{host}:{port}", **kwargs)


@pytest.fixture
def aserved():
    """Four in-memory servers, each behind a loopback *async* server."""
    servers = make_servers(4)
    tcps = [AsyncCDStoreTCPServer(server).start() for server in servers]
    proxies = [proxy_for(t, server_id=i) for i, t in enumerate(tcps)]
    try:
        yield servers, tcps, proxies
    finally:
        for proxy in proxies:
            proxy.close()
        for tcp in tcps:
            tcp.shutdown()


class _Wrapped:
    """Delegating server wrapper for failure injection at the TCP layer."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class GatedServer(_Wrapped):
    """``list_files()`` blocks until released — holds a request in flight."""

    def __init__(self, inner):
        super().__init__(inner)
        self.entered = threading.Event()
        self.gate = threading.Event()

    def list_files(self, user_id):
        self.entered.set()
        assert self.gate.wait(timeout=20), "gate never released"
        return self._inner.list_files(user_id)


class CrashingServer(_Wrapped):
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


def seed_shares(server, count: int, size: int, user="alice") -> list[bytes]:
    """Upload ``count`` distinct shares in-process; return *server* fps."""
    uploads, server_fps = [], []
    for i in range(count):
        data = bytes([i % 256]) * size
        meta = ShareMeta(
            fingerprint=fingerprint(data),
            share_size=len(data),
            secret_seq=i,
            secret_size=size,
        )
        uploads.append(ShareUpload(meta=meta, data=data))
        server_fps.append(fingerprint(data, domain="server"))
    server.upload_shares(user, uploads)
    server.flush()
    return server_fps


# ---------------------------------------------------------------------------
# raw-socket helpers (for protocol-violation tests no proxy would commit)
# ---------------------------------------------------------------------------


def connect_raw(tcp, timeout: float = 10.0):
    """Dial the server, run the PING handshake, return the socket."""
    sock = socket.create_connection(tcp.address, timeout=timeout)
    sock.sendall(wire.encode_mux_frame(wire.T_PING, 1, wire.T_PING.encode(wire.WIRE_VERSION, 0)))
    frame_type, rid, pong = read_raw_frame(sock)
    assert (frame_type, rid) == (wire.R_PONG, 1)
    version, _server_id, _flags = wire.R_PONG.decode(pong)
    assert version == wire.WIRE_VERSION
    return sock


def read_raw_frame(sock):
    return wire.read_frame_mux(lambda n: wire.recv_exact(sock, n))


def drain_until_close(sock) -> bytes:
    """Everything the server still sends; a socket timeout fails the test."""
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            chunk = b""
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


# ---------------------------------------------------------------------------
# the retired 7-byte framing and version 1 (both front-ends)
# ---------------------------------------------------------------------------

#: Wire v1 as it was: ``magic:u16 type:u8 length:u32``, no request id.
V1_HEADER = struct.Struct(">HBI")


def v1_frame(frame_type: int, payload: bytes = b"") -> bytes:
    return V1_HEADER.pack(0xCD5E, frame_type, len(payload)) + payload


@pytest.fixture(params=[CDStoreTCPServer, AsyncCDStoreTCPServer],
                ids=["thread", "async"])
def front_end(request):
    with request.param(make_servers(1)[0]) as tcp:
        yield tcp


class TestRetiredFraming:
    """A peer still speaking wire v1 gets a typed error or a clean close
    within the socket timeout — never a reply in the old framing."""

    @pytest.mark.parametrize("sent", [
        v1_frame(wire.T_PING, wire.T_PING.encode(wire.WIRE_VERSION, 0)),
        v1_frame(wire.T_PING, wire.T_PING.encode(wire.WIRE_VERSION, 0)) + v1_frame(wire.T_STATS),
        wire.encode_mux_frame(wire.T_PING, 1, wire.T_PING.encode(wire.WIRE_VERSION, 0))[:5],
    ], ids=["v1-ping", "v1-ping-then-request", "truncated-header"])
    def test_old_or_cut_off_first_frame_never_gets_an_old_reply(
        self, front_end, sent
    ):
        with socket.create_connection(front_end.address, timeout=5) as sock:
            sock.sendall(sent)
            sock.shutdown(socket.SHUT_WR)
            answer = drain_until_close(sock)
        # Whatever came back parses as 11-byte-header R_ERROR frames.
        pos = 0
        while pos < len(answer):
            header = answer[pos:pos + wire.MUX_FRAME_HEADER.size]
            frame_type, _rid, length = wire.decode_header(header)
            pos += len(header) + length
            assert frame_type == wire.R_ERROR
        assert pos == len(answer)

    def test_ping_advertising_version_1_is_a_typed_error(self, front_end):
        with socket.create_connection(front_end.address, timeout=5) as sock:
            sock.sendall(wire.encode_mux_frame(wire.T_PING, 9, wire.T_PING.encode(1, 0)))
            frame_type, rid, body = read_raw_frame(sock)
        assert (frame_type, rid) == (wire.R_ERROR, 9)
        exc = wire.decode_error(body)
        assert isinstance(exc, ProtocolError)
        assert "version 1" in str(exc)


# ---------------------------------------------------------------------------
# cross-transport identity
# ---------------------------------------------------------------------------


class TestAsyncCrossTransport:
    def test_backup_over_async_restores_byte_identically(self, aserved):
        servers, _tcps, proxies = aserved
        data = payload(200_000)
        remote = make_client(proxies)
        remote.upload("/backup/blob", data)
        remote.flush()
        assert remote.download("/backup/blob") == data
        remote.close()

        # The same stored state restores through the in-process engine.
        local = make_client(servers)
        assert local.download("/backup/blob") == data
        local.close()

    def test_typed_errors_cross_the_wire(self, aserved):
        from repro.errors import NotFoundError

        _servers, _tcps, proxies = aserved
        with pytest.raises(NotFoundError):
            proxies[0].get_file_entry("alice", b"\x00" * 32)


# ---------------------------------------------------------------------------
# mux semantics
# ---------------------------------------------------------------------------


class TestMuxSemantics:
    def test_out_of_order_replies_are_routed_by_request_id(self):
        """A fast request issued *after* a slow one completes *before* it —
        one socket, two in-flight requests, replies out of order."""
        server = GatedServer(make_servers(1)[0])
        done: list[str] = []
        with AsyncCDStoreTCPServer(server, executor_size=4) as tcp:
            proxy = proxy_for(tcp)
            try:
                slow = threading.Thread(
                    target=lambda: (proxy.list_files("alice"),
                                    done.append("slow")))
                slow.start()
                assert server.entered.wait(timeout=10)
                # The slow request is parked server-side; this one overtakes.
                assert isinstance(proxy.stats, DedupStats)
                done.append("fast")
                server.gate.set()
                slow.join(timeout=10)
                assert done == ["fast", "slow"]
            finally:
                server.gate.set()
                proxy.close()

    def test_interleaved_fetch_streams_on_one_socket(self):
        """Concurrent streamed fetches multiplex on one connection and each
        reassembles exactly its own shares."""
        server = make_servers(1)[0]
        fps = seed_shares(server, count=24, size=4096)
        with AsyncCDStoreTCPServer(server, frame_budget=8192) as tcp:
            proxy = proxy_for(tcp)
            try:
                slices = [fps[0:8], fps[8:16], fps[16:24]]
                results: dict[int, dict] = {}

                def fetch(idx: int) -> None:
                    results[idx] = proxy.fetch_shares(slices[idx])

                threads = [threading.Thread(target=fetch, args=(i,))
                           for i in range(len(slices))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                for idx, wanted in enumerate(slices):
                    assert set(results[idx]) == set(wanted)
                    for fp, data in results[idx].items():
                        assert fingerprint(data, domain="server") == fp
            finally:
                proxy.close()

    def test_abandoned_stream_then_reuse(self):
        """Breaking out of a streamed fetch leaves the connection usable:
        the tail frames of the abandoned stream are discarded, not
        misrouted into the next request."""
        server = make_servers(1)[0]
        fps = seed_shares(server, count=16, size=4096)
        with AsyncCDStoreTCPServer(server, frame_budget=4096) as tcp:
            proxy = proxy_for(tcp)
            try:
                seen = 0
                for _batch in proxy.iter_share_batches(fps):
                    seen += 1
                    break  # abandon mid-stream
                assert seen == 1
                assert isinstance(proxy.stats, DedupStats)
                full = proxy.fetch_shares(fps)
                assert set(full) == set(fps)
            finally:
                proxy.close()

    def test_request_id_reuse_is_rejected(self):
        """Reusing an in-flight request id is an unrecoverable protocol
        violation: typed R_ERROR, then the server hangs up."""
        server = GatedServer(make_servers(1)[0])
        with AsyncCDStoreTCPServer(server, executor_size=4) as tcp:
            sock = connect_raw(tcp)
            request = wire.T_LIST_FILES.encode("alice")
            try:
                sock.sendall(
                    wire.encode_mux_frame(wire.T_LIST_FILES, 7, request))
                assert server.entered.wait(timeout=10)
                sock.sendall(
                    wire.encode_mux_frame(wire.T_LIST_FILES, 7, request))
                while True:
                    frame_type, rid, body = read_raw_frame(sock)
                    if frame_type == wire.R_ERROR:
                        break
                assert rid == 7
                exc = wire.decode_error(body)
                assert isinstance(exc, ProtocolError)
                assert "reused" in str(exc)
                # The connection is then closed.
                server.gate.set()
                sock.settimeout(10)
                with pytest.raises(ConnectionError):
                    while True:
                        read_raw_frame(sock)
            finally:
                server.gate.set()
                sock.close()

    def test_distinct_request_ids_are_fine_back_to_back(self):
        server = make_servers(1)[0]
        with AsyncCDStoreTCPServer(server) as tcp:
            sock = connect_raw(tcp)
            try:
                for rid in (1, 2, 1):  # reuse *after* completion is legal
                    sock.sendall(wire.encode_mux_frame(wire.T_STATS, rid))
                    frame_type, got_rid, body = read_raw_frame(sock)
                    assert frame_type == wire.R_STATS
                    assert got_rid == rid
            finally:
                sock.close()


# ---------------------------------------------------------------------------
# overload + backpressure
# ---------------------------------------------------------------------------


class TestOverloadAndBackpressure:
    def test_over_budget_request_is_shed_with_typed_error(self):
        """With a per-source in-flight cap of 1, a second concurrent
        request gets ServerOverloadedError while the connection (and the
        first request) stay healthy."""
        server = GatedServer(make_servers(1)[0])
        with AsyncCDStoreTCPServer(
            server, executor_size=4, source_inflight_cap=1
        ) as tcp:
            proxy = proxy_for(tcp)
            slow_result: list = []
            try:
                slow = threading.Thread(
                    target=lambda: slow_result.append(
                        proxy.list_files("alice")))
                slow.start()
                assert server.entered.wait(timeout=10)
                with pytest.raises(ServerOverloadedError):
                    proxy.stats
                server.gate.set()
                slow.join(timeout=10)
                # The in-flight request was unaffected by the shed.
                assert slow_result == [[]]
                # The admission slot is released on the event loop and can
                # lag the reply by a beat; the connection must recover
                # promptly, not necessarily on the very next frame.
                deadline = time.monotonic() + 5.0
                while True:
                    try:
                        assert isinstance(proxy.stats, DedupStats)
                        break
                    except ServerOverloadedError:
                        assert time.monotonic() < deadline, (
                            "admission slot never released after job end"
                        )
                        time.sleep(0.01)
            finally:
                server.gate.set()
                proxy.close()

    def test_connection_over_the_cap_is_shed_typed_through_a_proxy(self):
        """The shed frame carries request id 0 (it answers no request);
        the proxy's handshake must surface it as ServerOverloadedError,
        not as a correlation-id mismatch."""
        server = make_servers(1)[0]
        with AsyncCDStoreTCPServer(server, max_connections=1) as tcp:
            first, second = proxy_for(tcp), proxy_for(tcp)
            try:
                assert first.ping()
                with pytest.raises(ServerOverloadedError, match="connection limit"):
                    second.list_files("alice")
                assert first.list_files("alice") == []  # unaffected
            finally:
                first.close()
                second.close()

    def test_slow_reader_is_evicted(self):
        """A client that stops reading a streamed fetch past the grace
        period is disconnected instead of pinning an executor slot."""
        server = make_servers(1)[0]
        fps = seed_shares(server, count=256, size=65_536)  # ~16 MB to stream
        with AsyncCDStoreTCPServer(
            server,
            frame_budget=65_536,
            write_queue_cap=65_536,
            slow_reader_grace=0.5,
        ) as tcp:
            sock = connect_raw(tcp)
            try:
                sock.sendall(
                    wire.encode_mux_frame(
                        wire.T_FETCH_SHARES, 1, wire.T_FETCH_SHARES.encode(fps)
                    )
                )
                # Read nothing: the write queue and kernel buffers fill and
                # the grace expires (16 MB cannot hide in socket buffers).
                time.sleep(3.0)
                # The connection was aborted under us: draining whatever was
                # buffered hits a reset/EOF, never the full stream.
                sock.settimeout(30)
                frames = 0
                with pytest.raises((ConnectionError, OSError)) as excinfo:
                    while True:
                        read_raw_frame(sock)
                        frames += 1
                assert not isinstance(excinfo.value, TimeoutError)
                assert frames < 256  # the stream was cut short
            finally:
                sock.close()


# ---------------------------------------------------------------------------
# failure semantics
# ---------------------------------------------------------------------------


class TestMuxFailureSemantics:
    def test_pending_requests_fail_fast_when_connection_dies(self):
        """Killing the server mid-mux fails every in-flight future with
        CloudUnavailableError promptly — not after the 30 s socket
        timeout."""
        server = GatedServer(make_servers(1)[0])
        tcp = AsyncCDStoreTCPServer(server, executor_size=4).start()
        proxy = proxy_for(tcp, timeout=30.0)
        failures: list[BaseException] = []

        def call() -> None:
            try:
                proxy.list_files("alice")
            except BaseException as exc:  # noqa: BLE001 - recording
                failures.append(exc)

        try:
            worker = threading.Thread(target=call)
            worker.start()
            assert server.entered.wait(timeout=10)
            start = time.monotonic()
            tcp.shutdown()
            worker.join(timeout=10)
            elapsed = time.monotonic() - start
            assert not worker.is_alive()
            assert len(failures) == 1
            assert isinstance(failures[0], CloudUnavailableError)
            assert elapsed < 10, f"fail-fast took {elapsed:.1f}s"
        finally:
            server.gate.set()
            proxy.close()
            tcp.shutdown()

    def test_connection_kill_mid_restore_fails_over_per_window(self):
        """The window-granular spare-failover path of the threaded e2e
        suite holds when the clouds are served by the async front-end."""
        servers = make_servers(4)
        victim = CrashingServer(servers[1], ok_calls=2)
        spare = CountingServer(servers[3])
        hosted = [servers[0], victim, servers[2], spare]
        tcps = [AsyncCDStoreTCPServer(server).start() for server in hosted]
        proxies = [proxy_for(t) for t in tcps]
        try:
            data = payload(60_000, seed=4)  # 15 windows of one 4 KB secret
            client = make_client(proxies, pipeline_depth=3)
            client.restore_window_bytes = 4096
            client.upload("/f", data)
            client.flush()

            assert client.download("/f") == data
            assert victim.calls > 1
            assert 0 < spare.fetch_calls < 15
            client.close()
        finally:
            for proxy in proxies:
                proxy.close()
            for tcp in tcps:
                tcp.shutdown()

    def test_proxy_reconnects_and_reauths_after_failure(self, aserved):
        """After a fail-fast drop the next call redials (and re-runs the
        handshake) transparently."""
        _servers, tcps, proxies = aserved
        proxy = proxies[0]
        assert proxy.ping()
        # Forcibly drop the connection under the proxy.
        with proxy._lock:
            proxy._drop(reason="test-induced drop")
        assert proxy.ping()
        assert proxy.list_files("alice") == []
