"""Unit pins for the calibrated transfer model (fast versions of the
Figure 7/8 shape checks, so regressions surface in the unit suite)."""

import pytest

from repro.bench.transfer import (
    _download_clouds,
    _meta_bytes,
    _share_bytes,
    aggregate_upload_speeds,
    baseline_transfer_speeds,
    cloud_speed_table,
    trace_transfer_speeds,
)
from repro.cloud.network import MB
from repro.cloud.testbed import LOCAL_I5, LOCAL_XEON, cloud_testbed, lan_testbed
from repro.workloads import FSLWorkload, VMWorkload


class TestHelpers:
    def test_share_bytes(self):
        assert _share_bytes(3000, 3) == 1000.0

    def test_meta_bytes_is_small(self):
        # Metadata is ~0.6% of logical data at 8 KB secrets.
        assert _meta_bytes(1_000_000) < 10_000

    def test_download_clouds_pick_fastest(self):
        tb = cloud_testbed()
        chosen = [tb.clouds[i].name for i in _download_clouds(tb, 3)]
        assert "azure" in chosen and "rackspace" in chosen
        assert "amazon" not in chosen  # slowest pair loses the tie to google


class TestBaselineSpeeds:
    def test_lan_matches_paper_band(self):
        s = baseline_transfer_speeds(lan_testbed())
        assert 70 < s.upload_unique_mbps < 90      # paper 77.5
        assert 135 < s.upload_duplicate_mbps < 170  # paper 149.9
        assert 90 < s.download_mbps < 110           # paper 99.2

    def test_cloud_matches_paper_band(self):
        s = baseline_transfer_speeds(cloud_testbed())
        assert 5 < s.upload_unique_mbps < 8         # paper 6.2
        assert 45 < s.upload_duplicate_mbps < 75    # paper 57.1
        assert 10 < s.download_mbps < 15            # paper 12.3

    def test_k_affects_unique_speed(self):
        """Higher k/n ratio means less redundancy on the wire."""
        tb = lan_testbed()
        data = 1 << 30
        t_k3 = tb.upload_time(data, [data / 3] * 4, k=3)
        t_k2 = tb.upload_time(data, [data / 2] * 4, k=2)
        assert t_k3 < t_k2

    def test_xeon_model_slows_compute_bound_paths(self):
        fast = baseline_transfer_speeds(lan_testbed(model=LOCAL_I5))
        slow = baseline_transfer_speeds(lan_testbed(model=LOCAL_XEON))
        # Duplicate uploads are compute-bound: the slower machine shows it.
        assert slow.upload_duplicate_mbps < fast.upload_duplicate_mbps
        # On the Xeon, even unique uploads fall below the network bound
        # (69 MB/s chunk+encode < 82.5 MB/s k/n-link), mirroring §5.5's
        # observation that the i5 testbed was chosen for the LAN runs.
        assert slow.upload_unique_mbps <= fast.upload_unique_mbps

    def test_thread_scaling_model(self):
        one = lan_testbed(model=LOCAL_I5.scaled_threads(1))
        four = lan_testbed(model=LOCAL_I5.scaled_threads(4))
        s1 = baseline_transfer_speeds(one)
        s4 = baseline_transfer_speeds(four)
        assert s4.upload_duplicate_mbps > 1.5 * s1.upload_duplicate_mbps


class TestTable2:
    def test_speeds_below_raw_bandwidth(self):
        """Per-unit request latency keeps measured speeds under the link
        rate, as in a real measurement."""
        for row in cloud_speed_table(cloud_testbed()):
            from repro.cloud.testbed import CLOUD_LINKS

            up, down = CLOUD_LINKS[row.cloud]
            assert row.upload_mbps < up
            assert row.download_mbps < down


class TestAggregate:
    def test_single_client_matches_baseline(self):
        tb = lan_testbed()
        row = aggregate_upload_speeds(tb, client_counts=(1,))[0]
        baseline = baseline_transfer_speeds(tb)
        assert row.unique_mbps == pytest.approx(baseline.upload_unique_mbps, rel=0.01)

    def test_dup_knee_position(self):
        rows = {r.clients: r for r in aggregate_upload_speeds(lan_testbed())}
        # Linear until ~3 clients, flat after 4 (server CPU saturation).
        assert rows[3].duplicate_mbps == pytest.approx(3 * rows[1].duplicate_mbps, rel=0.02)
        assert rows[8].duplicate_mbps == pytest.approx(rows[4].duplicate_mbps, rel=0.02)


class TestTraceDriven:
    def test_vm_workload_trace(self):
        """The trace driver accepts any Workload, not just FSL."""
        workload = VMWorkload(users=3, weeks=2, master_chunks=100)
        s = trace_transfer_speeds(lan_testbed(), workload, users=3, weeks=2)
        assert s.upload_first_mbps > 0
        assert s.upload_subsequent_mbps > s.upload_first_mbps * 0.5

    def test_fragmentation_slows_downloads(self):
        workload = FSLWorkload(users=2, weeks=3, chunks_per_user=150)
        slow = trace_transfer_speeds(
            lan_testbed(), workload, users=2, weeks=3, fragmentation=0.3
        )
        workload2 = FSLWorkload(users=2, weeks=3, chunks_per_user=150)
        fast = trace_transfer_speeds(
            lan_testbed(), workload2, users=2, weeks=3, fragmentation=0.0
        )
        assert slow.download_mbps < fast.download_mbps


class TestClientUploadWalltime:
    """§4.6: a threaded client's wall-clock is the per-cloud makespan."""

    def test_parallel_is_makespan_serial_is_sum(self):
        from repro.bench.transfer import client_upload_walltime

        clouds = cloud_testbed().clouds
        wire = [50 * MB] * len(clouds)
        serial = client_upload_walltime(clouds, wire, threads=1)
        parallel = client_upload_walltime(clouds, wire, threads=4)
        batches = -(-int(50 * MB) // (4 << 20))  # 4 MB units, §4.1
        per_cloud = [
            cloud.uplink.transfer_time(int(50 * MB), batches=batches)
            for cloud in clouds
        ]
        assert serial == pytest.approx(sum(per_cloud))
        assert parallel == pytest.approx(max(per_cloud))
        assert parallel < serial
