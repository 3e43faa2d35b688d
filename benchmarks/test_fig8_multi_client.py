"""Figure 8 — aggregate upload speed of multiple concurrent clients (LAN).

Paper: unique-data aggregate reaches 282 MB/s at 8 clients (limited by
server NIC + disk writes; 310 MB/s without disk I/O ≈ the aggregate
Ethernet of k = 3 servers); duplicate-data aggregate reaches 572 MB/s with
a knee at 4 clients where server CPU saturates.

Both tables are testbed models.  The measured loopback legs (one client
over real sockets, the 1 → 64 client front-end curve) are
``measured/test_fig8_loopback.py``.
"""

from conftest import pin

from repro.bench.reporting import format_table
from repro.bench.transfer import _meta_bytes, aggregate_upload_speeds
from repro.client.comm import UPLOAD_ACK_WINDOW
from repro.cloud.network import MB, batch_count
from repro.cloud.testbed import cloud_testbed, lan_testbed


def test_fig8():
    rows = aggregate_upload_speeds(lan_testbed())

    table = format_table(
        ["clients", "aggregate uniq MB/s", "aggregate dup MB/s"],
        [[r.clients, r.unique_mbps, r.duplicate_mbps] for r in rows],
        title="Figure 8: aggregate upload speeds vs #clients, LAN, (n, k)=(4, 3)",
    )
    pin("fig8", table)

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


def test_fig8_mux_model():
    """Per-stream speedup the mux ack window buys a dedup-heavy backup.

    The quantity the ack window changes is round trips: a lock-step
    caller pays one link round trip per RPC, while a pipelining
    caller keeps ``UPLOAD_ACK_WINDOW`` requests in flight so only every
    window-th round trip lands on the critical path.  On a dedup-heavy
    (second-backup) upload the wire carries metadata, not shares, so
    those round trips *are* the transfer time — the regime where fig8's
    duplicate-data curve lives.  Modeled with the repo's canonical
    :meth:`Link.transfer_time` accounting on the commercial cloud testbed
    (Table 2 links, 25 ms per-request latency), each 4 MB window costing
    its dedup query plus its metadata batch; the claim is held on the
    most conservative (slowest-win) cloud.
    """
    logical = 256 * MB
    meta_wire = int(_meta_bytes(int(logical)))
    rpcs = 2 * batch_count(logical)  # query + metadata batch per 4 MB unit
    windowed_rpcs = -(-rpcs // UPLOAD_ACK_WINDOW)
    rows, speedups = [], []
    for cloud in cloud_testbed().clouds:
        serial = cloud.uplink.transfer_time(meta_wire, batches=rpcs)
        windowed = cloud.uplink.transfer_time(meta_wire, batches=windowed_rpcs)
        speedups.append(serial / windowed)
        rows.append([cloud.name, serial, windowed, f"{speedups[-1]:.4f}"])

    table = format_table(
        ["cloud", "lock-step s", "windowed s", "speedup"],
        rows,
        title="Figure 8 addendum: modeled per-stream upload of 256 MB of duplicate "
              f"data, {rpcs} RPCs lock-step vs ack window {UPLOAD_ACK_WINDOW}",
    )
    pin("fig8_mux_model", table)

    # The ack window must at least double dedup-heavy upload throughput
    # over lock-step round trips.
    modeled = min(speedups)
    assert modeled >= 2.0, f"modeled mux/serial = {modeled:.2f}"
