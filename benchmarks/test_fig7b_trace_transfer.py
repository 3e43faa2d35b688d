"""Figure 7(b) — trace-driven single-client transfer speeds (FSL trace).

Paper (MB/s): LAN 92.3 (first backup) / 145.1 (subsequent) / 89.6 (down);
cloud 6.9 / 56.2 / 9.5.  Shape claims: the first backup uploads faster
than unique data (it already contains intra-user duplicates); subsequent
backups approach the duplicate-data speed; downloads run below baseline
because deduplication fragments chunks across containers.

The replay also accumulates the serial encode-then-upload schedule next to
the pipelined one, so the table shows what the streaming transfer stage
saves across a whole backup campaign at one encode thread.
"""

from conftest import pin

from repro.bench.reporting import format_table
from repro.bench.transfer import baseline_transfer_speeds, trace_transfer_speeds
from repro.cloud.testbed import cloud_testbed, lan_testbed
from repro.workloads import FSLWorkload


def test_fig7b():
    # LAN: 7 weekly backups of 5 users; cloud: 2 weeks of 1 user (§5.5).
    lan_wl = FSLWorkload(users=5, weeks=7, chunks_per_user=500)
    cloud_wl = FSLWorkload(users=1, weeks=2, chunks_per_user=500)
    results = [
        trace_transfer_speeds(lan_testbed(), lan_wl, users=5, weeks=7),
        trace_transfer_speeds(cloud_testbed(), cloud_wl, users=1, weeks=2),
    ]

    table = format_table(
        [
            "testbed",
            "upload first",
            "upload subsqt",
            "download",
            "overlap s",
            "serial s",
            "speedup",
        ],
        [
            [
                s.testbed,
                s.upload_first_mbps,
                s.upload_subsequent_mbps,
                s.download_mbps,
                s.upload_seconds_overlapped,
                s.upload_seconds_serial,
                f"{s.upload_seconds_serial / s.upload_seconds_overlapped:.4f}",
            ]
            for s in results
        ],
        title="Figure 7(b): trace-driven speeds (MB/s), FSL-like workload",
    )
    pin("fig7b", table)

    for s in results:
        baseline = baseline_transfer_speeds(
            lan_testbed() if s.testbed == "lan" else cloud_testbed()
        )
        # First backup beats unique-data uploads (intra-user dups inside).
        assert s.upload_first_mbps > baseline.upload_unique_mbps
        # Subsequent backups approach the duplicate-data bound.
        assert s.upload_subsequent_mbps > 0.5 * baseline.upload_duplicate_mbps
        # Fragmentation keeps trace downloads below the baseline download.
        assert s.download_mbps < baseline.download_mbps
        # The pipelined schedule strictly beats serial encode+upload.
        assert s.upload_seconds_overlapped < s.upload_seconds_serial
