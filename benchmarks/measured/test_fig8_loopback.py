"""Figure 8, measured legs — real sockets on loopback.

The paper's Figure 8 numbers are reproduced by the testbed model in
``benchmarks/test_fig8_multi_client.py``.  The two tables here exercise
the deployment shape the paper actually measures on this machine:

* the **socket leg**: a real wall-clock backup through
  :class:`RemoteServerProxy` over loopback TCP (frames, serialisation,
  kernel round-trips) against the same backup via in-process calls, once
  per content-defined chunker;
* the **front-end curve**: aggregate RPC-level upload throughput of
  1 -> 64 concurrent clients against the thread-per-connection and the
  asyncio front-ends;
* the **small-RPC cost**: CPU time and voluntary context switches that
  one trivial request costs on each front-end.

Nothing about speed is asserted; each leg checks that it moved its bytes.
"""

import resource
import threading
import time
from collections import deque

from conftest import emit, scaled

from repro.bench.reporting import format_table
from repro.chunking import create_chunker
from repro.client.client import CDStoreClient
from repro.cloud.network import MB, Link
from repro.cloud.provider import CloudProvider
from repro.crypto.drbg import DRBG
from repro.crypto.hashing import fingerprint
from repro.net import AsyncCDStoreTCPServer, CDStoreTCPServer, RemoteServerProxy
from repro.server.messages import ShareMeta, ShareUpload
from repro.server.server import CDStoreServer


def _fresh_servers(n: int = 4) -> list[CDStoreServer]:
    return [
        CDStoreServer(
            server_id=i,
            cloud=CloudProvider(f"cloud-{i}", Link(1000.0), Link(1000.0)),
        )
        for i in range(n)
    ]


def _timed_upload(servers, data: bytes, chunker: str) -> float:
    """Wall-clock MB/s of one unique-data backup against ``servers``."""
    client = CDStoreClient(
        user_id="bench",
        servers=list(servers),
        k=3,
        salt=b"fig8",
        chunker=create_chunker(chunker),
        pipeline_depth=4,
    )
    try:
        started = time.perf_counter()
        receipt = client.upload("/fig8", data)
        client.flush()
        elapsed = time.perf_counter() - started
        assert receipt.transferred_share_bytes > len(data)  # n/k of unique data
    finally:
        client.close()
    return len(data) / MB / elapsed


def _socket_upload(data: bytes, chunker: str) -> float:
    servers = _fresh_servers()
    tcps = [CDStoreTCPServer(server).start() for server in servers]
    proxies = [
        RemoteServerProxy(f"tcp://{t.address[0]}:{t.address[1]}", server_id=i)
        for i, t in enumerate(tcps)
    ]
    try:
        return _timed_upload(proxies, data, chunker)
    finally:
        for proxy in proxies:
            proxy.close()
        for tcp in tcps:
            tcp.shutdown()


def test_fig8_socket_leg():
    """Real-socket serving layer: loopback TCP vs in-process throughput.

    Both legs run the identical backup (same chunker, same streaming
    pipeline, fresh servers each) — the only difference is whether the
    comm engine's per-cloud workers call server methods or drive
    :class:`RemoteServerProxy` frames over loopback TCP.  Two rounds each,
    best-of taken, to damp scheduler noise at smoke scale.
    """
    data = DRBG("fig8-socket").random_bytes(scaled(8 << 20, floor=1 << 20))

    rows = []
    for chunker in ("rabin", "gear"):
        inproc_mbps = max(
            _timed_upload(_fresh_servers(), data, chunker) for _ in range(2)
        )
        socket_mbps = max(_socket_upload(data, chunker) for _ in range(2))
        rows.append([chunker, inproc_mbps, socket_mbps, socket_mbps / inproc_mbps])

    table = format_table(
        ["chunker", "in-process MB/s", "loopback TCP MB/s", "TCP/in-process"],
        rows,
        title="Figure 8 (socket leg): one client, unique data, "
              f"{len(data) / MB:.0f} MB, (n, k)=(4, 3)",
    )
    emit("fig8_socket", table)


# ---------------------------------------------------------------------------
# front-end scaling curve: 1 -> 64 concurrent clients against one cloud server
# ---------------------------------------------------------------------------

#: Shares per upload batch x share size = the paper's ~64 KB wire batches.
_MUX_SHARE_SIZE = 8192
_MUX_SHARES_PER_BATCH = 8
#: Unacked pipelined batches each mux client keeps in flight.
_MUX_ACK_WINDOW = 4
#: Concurrent clients per shared mux connection (64 clients -> 4 sockets).
_CLIENTS_PER_MUX_SOCKET = 16


def _client_batches(leg: str, client_idx: int, per_client_bytes: int):
    """Pre-generate one client's unique upload batches (outside the timer)."""
    drbg = DRBG(f"fig8-mux-{leg}-{client_idx}")
    shares = max(_MUX_SHARES_PER_BATCH,
                 per_client_bytes // _MUX_SHARE_SIZE)
    batches, batch = [], []
    for seq in range(shares):
        data = drbg.random_bytes(_MUX_SHARE_SIZE)
        meta = ShareMeta(
            fingerprint=fingerprint(data),
            share_size=len(data),
            secret_seq=seq,
            secret_size=_MUX_SHARE_SIZE,
        )
        batch.append(ShareUpload(meta=meta, data=data))
        if len(batch) == _MUX_SHARES_PER_BATCH:
            batches.append(batch)
            batch = []
    if batch:
        batches.append(batch)
    return batches


def _run_clients(workers) -> float:
    """Start ``workers`` simultaneously; wall-clock seconds until all done."""
    go = threading.Event()
    failures: list[BaseException] = []

    def wrap(fn):
        def run():
            go.wait()
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)
        return run

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    for t in threads:
        t.start()
    started = time.perf_counter()
    go.set()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    if failures:
        raise failures[0]
    return elapsed


def _thread_aggregate_mbps(clients: int, per_client_bytes: int) -> float:
    """Thread-per-connection front-end, one connection per client, one
    blocking round-trip per batch (64 clients = 64 server threads)."""
    server = CDStoreServer(
        server_id=0, cloud=CloudProvider("cloud-0", Link(1000.0), Link(1000.0))
    )
    all_batches = [
        _client_batches("thread", i, per_client_bytes) for i in range(clients)
    ]
    total = sum(u.wire_size for bs in all_batches for b in bs for u in b)
    with CDStoreTCPServer(server) as tcp:
        host, port = tcp.address
        proxies = [
            RemoteServerProxy(f"tcp://{host}:{port}", server_id=0)
            for _ in range(clients)
        ]
        try:
            for proxy in proxies:
                assert proxy.ping()  # connect + handshake outside the timer

            def worker(idx: int):
                def run():
                    for batch in all_batches[idx]:
                        proxies[idx].upload_shares(f"user-{idx}", batch)
                return run

            elapsed = _run_clients([worker(i) for i in range(clients)])
        finally:
            for proxy in proxies:
                proxy.close()
    return total / MB / elapsed


def _async_aggregate_mbps(clients: int, per_client_bytes: int) -> float:
    """Async front-end, clients sharing a few multiplexed connections,
    each keeping a window of pipelined unacked batches in flight."""
    server = CDStoreServer(
        server_id=0, cloud=CloudProvider("cloud-0", Link(1000.0), Link(1000.0))
    )
    all_batches = [
        _client_batches("async", i, per_client_bytes) for i in range(clients)
    ]
    total = sum(u.wire_size for bs in all_batches for b in bs for u in b)
    sockets = max(1, (clients + _CLIENTS_PER_MUX_SOCKET - 1)
                  // _CLIENTS_PER_MUX_SOCKET)
    with AsyncCDStoreTCPServer(
        server,
        executor_size=8,
        max_backlog=1024,
        source_inflight_cap=1024,
    ) as tcp:
        host, port = tcp.address
        proxies = [
            RemoteServerProxy(f"tcp://{host}:{port}", server_id=0)
            for _ in range(sockets)
        ]
        try:
            for proxy in proxies:
                assert proxy.ping()

            def worker(idx: int):
                proxy = proxies[idx % sockets]

                def run():
                    acks: deque = deque()
                    for batch in all_batches[idx]:
                        while len(acks) >= _MUX_ACK_WINDOW:
                            acks.popleft().result()
                        acks.append(
                            proxy.upload_shares_async(f"user-{idx}", batch)
                        )
                    while acks:
                        acks.popleft().result()
                return run

            elapsed = _run_clients([worker(i) for i in range(clients)])
        finally:
            for proxy in proxies:
                proxy.close()
    return total / MB / elapsed


def test_fig8_mux_scaling_curve():
    """Aggregate RPC-level upload throughput, 1 -> 64 concurrent clients.

    Both legs drive the same (only) proxy.  Thread leg: the
    thread-per-connection front-end with one connection per client and
    lock-step round trips (64 clients = 64 server threads).  Async leg:
    the asyncio front-end with clients multiplexed over ``clients/16``
    shared connections, each keeping a pipelined ack window in flight
    (8 executor threads total, per-source admission control active).

    The measured loopback curve is the front-end parity measurement
    ROADMAP item 3 waits on: ``async/thread`` >= 1 across the curve is
    the condition for deleting the thread front-end.  (What the ack
    window buys on a WAN is a model, pinned in ``fig8_mux_model.txt``.)
    """
    per_client_bytes = scaled(1 << 20, floor=256 << 10)
    rows = []
    for clients in (1, 4, 16, 64):
        thread = _thread_aggregate_mbps(clients, per_client_bytes)
        asynced = _async_aggregate_mbps(clients, per_client_bytes)
        rows.append([clients, thread, asynced, asynced / thread])

    table = format_table(
        ["clients", "thread MB/s", "async MB/s", "async/thread"],
        rows,
        title="Figure 8 (front-end leg): measured loopback aggregate upload MB/s "
              f"vs #clients, {per_client_bytes / MB:.2f} MB/client",
    )
    emit("fig8_mux_scaling", table)


# ---------------------------------------------------------------------------
# small-RPC cost: what one trivial request costs each front-end
# ---------------------------------------------------------------------------

#: Serial requests timed per front-end, after as many untimed ones.
_SMALL_RPCS = 2000


def _small_rpc_cost(front_end) -> tuple[float, float]:
    """CPU microseconds and voluntary context switches per serial
    ``query_duplicates`` of one fingerprint, client and server together
    (both run in this process, so ``RUSAGE_SELF`` sees both)."""
    server = CDStoreServer(
        server_id=0, cloud=CloudProvider("cloud-0", Link(1000.0), Link(1000.0))
    )
    fingerprints = [fingerprint(b"fig8-small-rpc")]
    with front_end(server) as tcp:
        host, port = tcp.address
        proxy = RemoteServerProxy(f"tcp://{host}:{port}", server_id=0)
        try:
            for _ in range(_SMALL_RPCS):
                assert proxy.query_duplicates("bench", fingerprints) == [False]
            before = resource.getrusage(resource.RUSAGE_SELF)
            for _ in range(_SMALL_RPCS):
                proxy.query_duplicates("bench", fingerprints)
            after = resource.getrusage(resource.RUSAGE_SELF)
        finally:
            proxy.close()
    cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return cpu_s / _SMALL_RPCS * 1e6, (after.ru_nvcsw - before.ru_nvcsw) / _SMALL_RPCS


def test_fig8_small_rpc_cost():
    """The per-request price of each front-end, isolated from storage work.

    One client, one connection, ``_SMALL_RPCS`` serial one-fingerprint
    ``query_duplicates`` calls (about 2 us of server work each): what is
    left is framing, the hops between threads and the kernel round trip.
    This is the small-op cost that ``serve_small_mixed`` pays per frame.
    """
    rows = []
    for name, front_end in (("thread", CDStoreTCPServer), ("async", AsyncCDStoreTCPServer)):
        cpu_us, switches = _small_rpc_cost(front_end)
        assert cpu_us > 0
        rows.append([name, cpu_us, switches])
    table = format_table(
        ["front-end", "CPU us/request", "voluntary switches/request"],
        rows,
        title=f"Figure 8 (small-RPC cost): {_SMALL_RPCS} serial one-fingerprint "
              "query_duplicates over loopback, client + server CPU",
    )
    emit("fig8_small_rpc", table)
