"""Figure 8 — aggregate upload speed of multiple concurrent clients (LAN).

Paper: unique-data aggregate reaches 282 MB/s at 8 clients (limited by
server NIC + disk writes; 310 MB/s without disk I/O ≈ the aggregate
Ethernet of k = 3 servers); duplicate-data aggregate reaches 572 MB/s with
a knee at 4 clients where server CPU saturates.

The **socket leg** exercises the deployment shape the paper actually
measures: a real wall-clock backup through :class:`RemoteServerProxy` over
loopback TCP (frames, serialisation, kernel round-trips) against the same
backup via in-process calls.  The socket/in-process throughput *ratio* is
machine-relative, so it travels to CI as a tracked baseline while raw
MB/s does not.
"""

import time

from conftest import BENCH_CHUNKER, emit, emit_metrics, scaled

from repro.bench.reporting import format_table
from repro.bench.transfer import aggregate_upload_speeds
from repro.chunking import create_chunker
from repro.client.client import CDStoreClient
from repro.cloud.network import MB, Link
from repro.cloud.provider import CloudProvider
from repro.cloud.testbed import lan_testbed
from repro.crypto.drbg import DRBG
from repro.net import CDStoreTCPServer, RemoteServerProxy
from repro.server.server import CDStoreServer


def test_fig8(benchmark):
    rows = benchmark(aggregate_upload_speeds, lan_testbed())

    table = format_table(
        ["clients", "aggregate uniq MB/s", "aggregate dup MB/s"],
        [[r.clients, r.unique_mbps, r.duplicate_mbps] for r in rows],
        title="Figure 8: aggregate upload speeds vs #clients, LAN, (n, k)=(4, 3)",
    )
    emit("fig8", table)

    uniq = {r.clients: r.unique_mbps for r in rows}
    dup = {r.clients: r.duplicate_mbps for r in rows}
    # Paper magnitudes at 8 clients (±20%).
    assert abs(uniq[8] - 282) / 282 < 0.20
    assert abs(dup[8] - 572) / 572 < 0.20
    # Knee: duplicate curve saturates at ~4 clients.
    assert dup[4] > 0.95 * dup[8]
    assert dup[2] < 0.7 * dup[8]
    # Unique curve saturates on server NIC/disk well below linear scaling.
    assert uniq[8] < 0.5 * 8 * uniq[1]


def _fresh_servers(n: int = 4) -> list[CDStoreServer]:
    return [
        CDStoreServer(
            server_id=i,
            cloud=CloudProvider(f"cloud-{i}", Link(1000.0), Link(1000.0)),
        )
        for i in range(n)
    ]


def _timed_upload(servers, data: bytes) -> float:
    """Wall-clock MB/s of one unique-data backup against ``servers``."""
    client = CDStoreClient(
        user_id="bench",
        servers=list(servers),
        k=3,
        salt=b"fig8",
        chunker=create_chunker(BENCH_CHUNKER),
        pipeline_depth=4,
    )
    try:
        started = time.perf_counter()
        client.upload("/fig8", data)
        client.flush()
        elapsed = time.perf_counter() - started
    finally:
        client.close()
    return len(data) / MB / elapsed


def test_fig8_socket_leg():
    """Real-socket serving layer: loopback TCP vs in-process throughput.

    Both legs run the identical backup (same chunker leg, same streaming
    pipeline, fresh servers each) — the only difference is whether the
    comm engine's per-cloud workers call server methods or drive
    :class:`RemoteServerProxy` frames over loopback TCP.  Two rounds each,
    best-of taken, to damp scheduler noise at smoke scale.
    """
    data = DRBG("fig8-socket").random_bytes(scaled(8 << 20, floor=1 << 20))

    inproc_mbps = max(
        _timed_upload(_fresh_servers(), data) for _ in range(2)
    )

    socket_runs = []
    for _ in range(2):
        servers = _fresh_servers()
        tcps = [CDStoreTCPServer(server).start() for server in servers]
        proxies = [
            RemoteServerProxy(
                f"tcp://{t.address[0]}:{t.address[1]}", server_id=i
            )
            for i, t in enumerate(tcps)
        ]
        try:
            socket_runs.append(_timed_upload(proxies, data))
        finally:
            for proxy in proxies:
                proxy.close()
            for tcp in tcps:
                tcp.shutdown()
    socket_mbps = max(socket_runs)

    ratio = socket_mbps / inproc_mbps
    table = format_table(
        ["transport", "upload MB/s", "vs in-process"],
        [
            ["in-process", inproc_mbps, 1.0],
            ["loopback TCP", socket_mbps, ratio],
        ],
        title="Figure 8 (socket leg): one client, unique data, "
              f"{len(data) / MB:.0f} MB, (n, k)=(4, 3)",
    )
    emit("fig8_socket", table)
    emit_metrics({"fig8.socket_over_inproc_upload": ratio})

    # Frames + loopback round-trips tax throughput but must stay within
    # the same order of magnitude: the serving layer is a transport, not a
    # bottleneck.
    assert ratio > 0.2
    # Sanity: the socket leg actually moved the data.
    assert socket_mbps > 0


# ---------------------------------------------------------------------------
# front-end scaling curve: 1 -> 64 concurrent clients against one cloud server
# ---------------------------------------------------------------------------

import threading
from collections import deque

from repro.bench.transfer import _meta_bytes
from repro.client.comm import UPLOAD_ACK_WINDOW
from repro.cloud.network import batch_count
from repro.cloud.testbed import cloud_testbed
from repro.crypto.hashing import fingerprint
from repro.net import AsyncCDStoreTCPServer
from repro.server.messages import ShareMeta, ShareUpload

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


def _modeled_mux_speedup(window: int = UPLOAD_ACK_WINDOW) -> float:
    """Per-stream speedup the mux ack window buys a dedup-heavy backup.

    The quantity the ack window changes is round trips: a lock-step
    caller pays one link round trip per RPC, while a pipelining
    caller keeps ``window`` requests in flight so only every
    ``window``-th round trip lands on the critical path.  On a
    dedup-heavy (second-backup) upload the wire carries metadata, not
    shares, so those round trips *are* the transfer time — the regime
    where fig8's duplicate-data curve lives.  Modeled with the repo's
    canonical :meth:`Link.transfer_time` accounting on the commercial
    cloud testbed (Table 2 links, 25 ms per-request latency), each 4 MB
    window costing its dedup query plus its metadata batch; the most
    conservative (slowest-win) cloud is reported.  Deterministic, so it
    travels to CI as a gated baseline the way the fig7 pipeline-speedup
    metrics do.
    """
    testbed = cloud_testbed()
    logical = 256 * MB
    meta_wire = int(_meta_bytes(int(logical)))
    rpcs = 2 * batch_count(logical)  # query + metadata batch per 4 MB unit
    speedups = []
    for cloud in testbed.clouds:
        serial = cloud.uplink.transfer_time(meta_wire, batches=rpcs)
        mux = cloud.uplink.transfer_time(
            meta_wire, batches=-(-rpcs // window)
        )
        speedups.append(serial / mux)
    return min(speedups)


def test_fig8_mux_scaling_curve():
    """Aggregate RPC-level upload throughput, 1 -> 64 concurrent clients.

    Both legs drive the same (only) proxy.  Thread leg: the
    thread-per-connection front-end with one connection per client and
    lock-step round trips (64 clients = 64 server threads).  Async leg:
    the asyncio front-end with clients multiplexed over ``clients/16``
    shared connections, each keeping a pipelined ack window in flight
    (8 executor threads total, per-source admission control active).

    Two claims, two instruments — matching the fig7/fig8 convention of
    gating deterministic model ratios while printing machine wall-clock
    as context:

    * the **measured loopback curve** (emitted table) is the front-end
      parity measurement ROADMAP item 3 waits on: ``async/thread`` >= 1
      across the curve is the condition for deleting the thread
      front-end;
    * the **gated ratio** (``fig8.mux_over_serial``) is the modeled
      per-stream speedup of ``UPLOAD_ACK_WINDOW`` pipelined batches over
      lock-step round trips on the cloud testbed, where the 25 ms
      per-RPC round trip the window amortises is the dominant cost of
      dedup-heavy uploads.  The acceptance bar is >= 2x.
    """
    per_client_bytes = scaled(1 << 20, floor=256 << 10)
    counts = [1, 4, 16, 64]
    rows = []
    ratios = {}
    for clients in counts:
        thread = _thread_aggregate_mbps(clients, per_client_bytes)
        asynced = _async_aggregate_mbps(clients, per_client_bytes)
        ratios[clients] = asynced / thread
        rows.append([clients, thread, asynced, asynced / thread])

    modeled = _modeled_mux_speedup()
    table = format_table(
        ["clients", "thread MB/s", "async MB/s", "async/thread"],
        rows,
        title="Figure 8 (front-end leg): measured loopback aggregate upload MB/s "
              f"vs #clients, {per_client_bytes / MB:.2f} MB/client "
              f"(modeled WAN per-stream mux speedup: {modeled:.2f}x)",
    )
    emit("fig8_mux_scaling", table)
    emit_metrics({"fig8.mux_over_serial": modeled})

    # Acceptance gate: the ack window must at least double dedup-heavy
    # upload throughput over lock-step round trips.
    assert modeled >= 2.0, f"modeled mux/serial = {modeled:.2f}"
    # Measured sanity: every point on the curve moved real bytes, and the
    # 64-client async leg does not collapse against thread-per-connection
    # while using an 8-thread executor.
    assert all(row[1] > 0 and row[2] > 0 for row in rows)
    assert ratios[64] > 0.25, f"async collapsed at 64 clients: {ratios[64]:.2f}"
