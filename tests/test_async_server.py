"""End-to-end tests for the asyncio serving front-end and mux protocol.

The async server must be behaviourally identical to the threaded one for
well-behaved clients (same dispatcher, same typed errors, same bytes),
while adding the multiplexing semantics this suite pins down: out-of-order
replies routed by request id, request-id reuse rejection, overload
shedding with typed frames, slow-reader eviction, and fast failure of all
in-flight requests when the connection dies mid-mux.  Raw-socket tests
hold the reactor's framing to the same answers however the request bytes
arrive (pipelined, dribbled, split around a large frame) and with replies
written concurrently by the loop and by workers.
"""

from __future__ import annotations

import socket
import struct
import sys
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


def request(row, request_id: int, *fields) -> bytes:
    """One complete request frame carrying ``fields``."""
    return wire.encode_mux_frame(row, request_id, row.encode(*fields))


# ---------------------------------------------------------------------------
# the reactor's framing: however the request bytes arrive
# ---------------------------------------------------------------------------


class TestReactorFraming:
    def test_pipelined_requests_in_one_send_are_all_answered(self):
        server = make_servers(1)[0]
        seed_shares(server, count=8, size=1024)
        known = [fingerprint(bytes([i]) * 1024) for i in range(8)]
        unknown = [fingerprint(bytes([i]) * 7) for i in range(8)]
        asked = {100 + i: fp for i, fp in enumerate(known + unknown)}
        with AsyncCDStoreTCPServer(server) as tcp:
            sock = connect_raw(tcp)
            try:
                sock.sendall(b"".join(
                    request(wire.T_QUERY_DUPLICATES, rid, "alice", [fp])
                    for rid, fp in asked.items()))
                answers = {}
                for _ in asked:
                    frame_type, rid, body = read_raw_frame(sock)
                    assert frame_type == wire.R_BOOLS
                    answers[rid] = wire.R_BOOLS.decode_result(body)
            finally:
                sock.close()
        assert answers == {rid: [fp in known] for rid, fp in asked.items()}

    def test_request_dribbled_one_byte_per_send_is_answered(self):
        server = make_servers(1)[0]
        seed_shares(server, count=1, size=1024)
        fp = fingerprint(bytes(1024))
        with AsyncCDStoreTCPServer(server) as tcp:
            sock = connect_raw(tcp)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                for byte in request(wire.T_QUERY_DUPLICATES, 5, "alice", [fp, b"\x00" * 32]):
                    sock.send(bytes([byte]))
                    time.sleep(0.001)
                frame_type, rid, body = read_raw_frame(sock)
            finally:
                sock.close()
        assert (frame_type, rid) == (wire.R_BOOLS, 5)
        assert wire.R_BOOLS.decode_result(body) == [True, False]

    def test_partial_frames_of_two_connections_stay_apart(self):
        """The loop reads every connection through one shared buffer; what
        one connection left half-sent is its own when it resumes."""
        server = make_servers(1)[0]
        seed_shares(server, count=2, size=1024)
        first, second = (request(wire.T_QUERY_DUPLICATES, 7 + i, "alice", [fingerprint(bytes([i]) * 1024)])
                         for i in range(2))
        with AsyncCDStoreTCPServer(server) as tcp:
            a, b = connect_raw(tcp), connect_raw(tcp)
            try:
                a.sendall(first[:20])
                b.sendall(request(wire.T_QUERY_DUPLICATES, 9, "alice", [b"\x00" * 32]) + second[:20])
                time.sleep(0.1)  # both halves reach the loop before the rest
                a.sendall(first[20:])
                b.sendall(second[20:])
                answers = [read_raw_frame(a), read_raw_frame(b), read_raw_frame(b)]
            finally:
                a.close()
                b.close()
        bools = [(rid, wire.R_BOOLS.decode_result(body)) for _type, rid, body in answers]
        assert bools == [(7, [True]), (9, [False]), (8, [True])]

    def test_frame_larger_than_the_read_buffer(self):
        """A 1 MB upload and a query behind it, in one send: the read
        buffer grows for the upload and the query is still answered."""
        server = make_servers(1)[0]
        data = payload(1 << 20)
        meta = ShareMeta(fingerprint=fingerprint(data), share_size=len(data),
                         secret_seq=0, secret_size=len(data))
        with AsyncCDStoreTCPServer(server) as tcp:
            sock = connect_raw(tcp)
            try:
                sock.sendall(
                    request(wire.T_UPLOAD_SHARES, 1, "alice", [ShareUpload(meta=meta, data=data)])
                    + request(wire.T_FLUSH, 2))
                replies = {rid: frame_type for frame_type, rid, _ in
                           (read_raw_frame(sock) for _ in range(2))}
            finally:
                sock.close()
        assert replies == {1: wire.R_OK, 2: wire.R_OK}
        assert server.query_duplicates("alice", [meta.fingerprint]) == [True]

    def test_oversized_length_in_a_lone_header_is_a_typed_error(self):
        """A header announcing more than ``max_frame`` bytes is answered
        before any payload arrives: R_ERROR with id 0, then a hang-up."""
        server = make_servers(1)[0]
        with AsyncCDStoreTCPServer(server, max_frame=1 << 20) as tcp:
            sock = connect_raw(tcp)
            try:
                magic, _type, _rid, _length = wire.MUX_FRAME_HEADER.unpack(
                    wire.encode_mux_frame(wire.T_LIST_FILES, 1))
                sock.sendall(wire.MUX_FRAME_HEADER.pack(magic, wire.T_LIST_FILES, 9, (1 << 20) + 1))
                frame_type, rid, body = read_raw_frame(sock)
                rest = drain_until_close(sock)
            finally:
                sock.close()
        assert (frame_type, rid) == (wire.R_ERROR, 0)
        exc = wire.decode_error(body)
        assert isinstance(exc, ProtocolError) and "exceeds" in str(exc)
        assert rest == b""

    def test_concurrent_writers_never_interleave_a_frame(self):
        """PINGs answered on the loop between three streamed fetches and
        eight queries answered on four workers, all on one connection and
        behind a small write queue: every reply frame parses and carries
        exactly what its own request asked for."""
        server = make_servers(1)[0]
        # 9 MB of replies, left unread for a moment: more than loopback
        # buffers hold, so the socket refuses bytes and workers wait on
        # the write queue while the loop answers the PINGs.
        fps = seed_shares(server, count=144, size=64 << 10)
        slices = {10 + i: fps[48 * i:48 * (i + 1)] for i in range(3)}
        queries = {20 + i: fingerprint(bytes([i * 11]) * (64 << 10)) for i in range(8)}
        pings = range(30, 40)
        with AsyncCDStoreTCPServer(server, executor_size=4, frame_budget=160 << 10,
                                   write_queue_cap=256 << 10) as tcp:
            sock = connect_raw(tcp)
            try:
                frames = [request(wire.T_FETCH_SHARES, rid, wanted)
                          for rid, wanted in slices.items()]
                frames += [request(wire.T_QUERY_DUPLICATES, rid, "alice", [fp])
                           for rid, fp in queries.items()]
                for i, rid in enumerate(pings):
                    frames.insert(2 * i, request(wire.T_PING, rid, wire.WIRE_VERSION, 0))
                sock.sendall(b"".join(frames))
                time.sleep(0.5)
                streamed = {rid: {} for rid in slices}
                ended, answered, ponged = {}, {}, set()
                while len(ended) + len(answered) + len(ponged) < 21:
                    frame_type, rid, body = read_raw_frame(sock)
                    if frame_type == wire.R_SHARE_BATCH:
                        assert rid not in ended
                        streamed[rid].update(wire.R_SHARE_BATCH.decode_result(body))
                    elif frame_type == wire.R_SHARES_END:
                        ended[rid] = wire.R_SHARES_END.decode_result(body)
                    elif frame_type == wire.R_BOOLS:
                        answered[rid] = wire.R_BOOLS.decode_result(body)
                    else:
                        assert frame_type == wire.R_PONG
                        ponged.add(rid)
            finally:
                sock.close()
        assert ponged == set(pings)
        assert answered == {rid: [True] for rid in queries}
        assert ended == {rid: len(wanted) for rid, wanted in slices.items()}
        for rid, wanted in slices.items():
            assert set(streamed[rid]) == set(wanted)
            for fp, data in streamed[rid].items():
                assert fingerprint(data, domain="server") == fp


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
        """Every retired revision (1, and 2 with its longer T_GET_RECIPE)
        fails at the handshake, not at a later frame."""
        for version in (1, 2):
            with socket.create_connection(front_end.address, timeout=5) as sock:
                ping = wire.T_PING.encode(version, 0)
                sock.sendall(wire.encode_mux_frame(wire.T_PING, 9, ping))
                frame_type, rid, body = read_raw_frame(sock)
            assert (frame_type, rid) == (wire.R_ERROR, 9)
            exc = wire.decode_error(body)
            assert isinstance(exc, ProtocolError)
            assert f"version {version}" in str(exc)


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


class TestSharedProxy:
    def test_threads_sharing_one_proxy_each_get_their_own_answers(self):
        """8 threads x 50 mixed calls on one proxy with no reader thread,
        against out-of-order replies, beside a stream abandoned after its
        first batch: every call gets its own answer and the connection
        is never dropped."""
        server = make_servers(1)[0]
        fps = seed_shares(server, count=32, size=2048)
        known = [fingerprint(bytes([i]) * 2048) for i in range(32)]
        unknown = [fingerprint(bytes([i]) * 5) for i in range(32)]
        errors: list[BaseException] = []

        def work(t: int) -> None:
            try:
                for j in range(50):
                    at = (t * 50 + j) % 30
                    if j % 2:
                        asked = [known[at], unknown[at], known[at + 1]]
                        assert proxy.query_duplicates("alice", asked) == [True, False, True]
                    else:
                        got = proxy.fetch_shares(fps[at:at + 3])
                        assert set(got) == set(fps[at:at + 3])
                        for fp, data in got.items():
                            assert fingerprint(data, domain="server") == fp
                    if t == 0 and j == 10:
                        for _batch in proxy.iter_share_batches(fps):
                            break  # abandoned: its tail is swallowed
            except BaseException as exc:  # noqa: BLE001 - recording
                errors.append(exc)

        with AsyncCDStoreTCPServer(server, executor_size=4, frame_budget=4096) as tcp:
            proxy = proxy_for(tcp)
            try:
                assert proxy.ping()
                sock = proxy._sock
                threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-5)
                try:
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60)
                finally:
                    sys.setswitchinterval(interval)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                assert proxy._sock is sock
                assert set(proxy.fetch_shares(fps)) == set(fps)
            finally:
                proxy.close()


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

    def test_close_wakes_a_caller_reading_its_reply(self):
        """``close()`` from another thread fails a call blocked reading its
        reply at once, not after the 30 s timeout."""
        server = GatedServer(make_servers(1)[0])
        failures: list[BaseException] = []

        def call() -> None:
            try:
                proxy.list_files("alice")
            except BaseException as exc:  # noqa: BLE001 - recording
                failures.append(exc)

        with AsyncCDStoreTCPServer(server, executor_size=4) as tcp:
            proxy = proxy_for(tcp, timeout=30.0)
            worker = threading.Thread(target=call)
            try:
                worker.start()
                assert server.entered.wait(timeout=10)
                start = time.monotonic()
                proxy.close()
                worker.join(timeout=10)
                elapsed = time.monotonic() - start
            finally:
                server.gate.set()
        assert not worker.is_alive()
        assert len(failures) == 1 and isinstance(failures[0], CloudUnavailableError)
        assert elapsed < 5, f"close took {elapsed:.1f}s to fail the call"

    def test_a_wedged_request_times_out_every_waiter_at_once(self):
        """The request whose deadline passes first drops the connection,
        which fails every other waiter at once, not at its own deadline."""
        server = GatedServer(make_servers(1)[0])
        outcomes: dict = {}

        def call(name) -> None:
            start = time.monotonic()
            try:
                proxy.list_files("alice")
                outcomes[name] = (None, time.monotonic() - start)
            except BaseException as exc:  # noqa: BLE001 - recording
                outcomes[name] = (exc, time.monotonic() - start)

        with AsyncCDStoreTCPServer(server, executor_size=8) as tcp:
            proxy = proxy_for(tcp, timeout=2.0)
            try:
                wedged = threading.Thread(target=call, args=("wedged",))
                wedged.start()
                assert server.entered.wait(timeout=10)
                time.sleep(1.0)
                others = [threading.Thread(target=call, args=(i,)) for i in range(4)]
                for thread in others:
                    thread.start()
                for thread in [wedged, *others]:
                    thread.join(timeout=10)
            finally:
                server.gate.set()
                proxy.close()
        assert set(outcomes) == {"wedged", 0, 1, 2, 3}
        assert all(isinstance(exc, CloudUnavailableError) for exc, _ in outcomes.values())
        assert "timed out" in str(outcomes["wedged"][0])
        # Each of the others waited about 1 s of its own 2 s timeout.
        assert max(outcomes[i][1] for i in range(4)) < 1.75

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
