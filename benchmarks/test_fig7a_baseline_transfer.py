"""Figure 7(a) — single-client baseline upload/download speeds.

Paper (MB/s): LAN 77.5 (uniq) / 149.9 (dup) / 99.2 (down); cloud testbed
6.2 / 57.1 / 12.3.  Shape claims: unique uploads are bounded by k/n of the
network; duplicate uploads are compute-bound (LAN) or dedup-round-trip
bound (cloud) and far faster; downloads sit just under the link speed.

Also reports the streaming transfer stage's schedule comparison at one
encode thread: the serial encode-then-upload sum versus the overlapped
windowed-pipeline makespan (4 MB encode windows flowing into the per-cloud
upload queues, ``pipeline_depth > 1``) — the overlap must be a strict win.
"""

from conftest import pin

from repro.bench.reporting import format_table
from repro.bench.transfer import baseline_transfer_speeds, upload_makespans
from repro.cloud.testbed import cloud_testbed, lan_testbed

PAPER = {
    "lan": (77.5, 149.9, 99.2),
    "cloud": (6.2, 57.1, 12.3),
}


def test_fig7a():
    results = [baseline_transfer_speeds(tb) for tb in (lan_testbed(), cloud_testbed())]

    table = format_table(
        ["testbed", "upload uniq", "upload dup", "download", "paper (u/d/dl)"],
        [
            [
                s.testbed,
                s.upload_unique_mbps,
                s.upload_duplicate_mbps,
                s.download_mbps,
                "/".join(str(v) for v in PAPER[s.testbed]),
            ]
            for s in results
        ],
        title="Figure 7(a): single-client baseline speeds (MB/s), (n, k)=(4, 3), 2 GB",
    )
    pin("fig7a", table)

    for s in results:
        paper_uniq, paper_dup, paper_down = PAPER[s.testbed]
        assert abs(s.upload_unique_mbps - paper_uniq) / paper_uniq < 0.20
        assert abs(s.upload_duplicate_mbps - paper_dup) / paper_dup < 0.20
        assert abs(s.download_mbps - paper_down) / paper_down < 0.20
        # Structural claims.
        assert s.upload_duplicate_mbps > s.download_mbps > s.upload_unique_mbps


def test_fig7a_pipeline():
    testbeds = (lan_testbed(), cloud_testbed())
    comparisons = [upload_makespans(tb) for tb in testbeds]
    pipeline_table = format_table(
        ["testbed", "windows", "serial s", "overlapped s", "speedup"],
        [
            [c.testbed, c.windows, c.serial_s, c.overlapped_s, f"{c.speedup:.4f}"]
            for c in comparisons
        ],
        title="Figure 7(a) addendum: serial vs streamed upload schedule "
        "(threads=1, unique data)",
    )
    pin("fig7a_pipeline", pipeline_table)

    for c, tb in zip(comparisons, testbeds):
        # The overlapped makespan must sit strictly below the serial
        # encode + upload sum — the streaming transfer stage's claim.
        assert c.overlapped_s < c.serial_s
        # Sanity bound: overlap can at most hide the encode stage plus the
        # serialisation of that testbed's own n cloud visits.
        assert c.speedup <= tb.n + 1
