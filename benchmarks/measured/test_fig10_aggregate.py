"""Figure 10, measured leg — 8 concurrent readers over real sockets.

The hit ratio and the modeled gateway/direct speedup of the zipf replay
are pinned by ``benchmarks/test_fig10_gateway.py``.  This leg runs the
same kind of workload both ways on loopback — direct quorum restores via
per-cloud ``RemoteServerProxy`` frames vs the same restores through an
async gateway front-end: a warm gateway answers one resolve plus one
window round-trip per restore from memory, while the direct path pays
per-cloud entry/recipe/fetch round trips and server-side index lookups.
Nothing about speed is asserted; every restore must return the bytes
that were stored, and the warm gateway must serve most of them from its
cache.
"""

from __future__ import annotations

import threading
import time

from conftest import emit, scaled
from fig10_workload import K, make_client, make_servers, store_catalog, zipf_ranks

from repro.bench.reporting import format_table
from repro.cloud.network import MB
from repro.gateway import GatewayService
from repro.net import (
    AsyncCDStoreTCPServer,
    CDStoreTCPServer,
    RemoteServerProxy,
    wire,
)

_READERS = 8
_RESTORES_PER_READER = 6


def _run_readers(clients, sequences, catalog) -> float:
    """All readers restore their zipf sequences concurrently; seconds."""
    names = sorted(catalog)
    go = threading.Event()
    failures: list[BaseException] = []

    def reader(idx: int):
        def run():
            go.wait()
            try:
                for rank in sequences[idx]:
                    name = names[rank]
                    assert clients[idx].download(name) == catalog[name]
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)
        return run

    threads = [
        threading.Thread(target=reader(i)) for i in range(len(clients))
    ]
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


def test_fig10_aggregate_restore_8_readers():
    file_bytes = scaled(256 << 10, floor=128 << 10)
    files = 8
    servers = make_servers()
    catalog = store_catalog(servers, files, file_bytes)
    names = sorted(catalog)
    sequences = [
        zipf_ranks(files, _RESTORES_PER_READER, seed=2000 + i)
        for i in range(_READERS)
    ]
    restored = sum(
        len(catalog[names[rank]]) for seq in sequences for rank in seq
    )

    tcps = [CDStoreTCPServer(server).start() for server in servers]
    proxies = [
        RemoteServerProxy(f"tcp://{t.address[0]}:{t.address[1]}", server_id=i)
        for i, t in enumerate(tcps)
    ]
    service = GatewayService(
        [
            RemoteServerProxy(
                f"tcp://{t.address[0]}:{t.address[1]}", server_id=i
            )
            for i, t in enumerate(tcps)
        ],
        k=K,
        own_replicas=True,
    )
    front = AsyncCDStoreTCPServer(None, gateway=service).start()
    gw_proxy = RemoteServerProxy(
        f"tcp://{front.address[0]}:{front.address[1]}",
        server_id=wire.GATEWAY_SERVER_ID,
    )
    try:
        # Direct leg: every restore pays per-cloud entry/recipe/fetch
        # round trips against the k quorum clouds.
        direct_clients = [make_client(proxies) for _ in range(_READERS)]
        direct_s = _run_readers(direct_clients, sequences, catalog)

        # Gateway leg (steady state): one warm pass, then the same
        # concurrent workload through the gateway frames.
        warm = make_client(proxies, gateway=gw_proxy)
        for name in names:
            warm.download(name)
        gateway_clients = [
            make_client(proxies, gateway=gw_proxy) for _ in range(_READERS)
        ]
        gateway_s = _run_readers(gateway_clients, sequences, catalog)
    finally:
        gw_proxy.close()
        front.shutdown()
        service.close()
        for proxy in proxies:
            proxy.close()
        for tcp in tcps:
            tcp.shutdown()

    direct_mbps = restored / MB / direct_s
    gateway_mbps = restored / MB / gateway_s
    stats = service.stats()
    table = format_table(
        ["read path", "aggregate MB/s", "vs direct"],
        [
            ["direct quorum", direct_mbps, 1.0],
            ["gateway (warm)", gateway_mbps, gateway_mbps / direct_mbps],
        ],
        title=f"Figure 10: {_READERS} concurrent readers x "
              f"{_RESTORES_PER_READER} zipf restores, "
              f"{file_bytes / MB:.2f} MB files, loopback TCP "
              f"(gateway hit ratio {stats['cache_hit_ratio']:.0%})",
    )
    emit("fig10_aggregate", table)

    assert stats["cache_hit_ratio"] > 0.5
