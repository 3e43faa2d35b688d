"""Benchmark drivers: sanity of every table/figure generator."""

import pytest

from repro.bench.dedup import simulate_two_stage
from repro.bench.encoding import (
    FIGURE5_SCHEMES,
    encoding_speed,
    figure5b_k,
    sweep_n,
    sweep_threads,
)
from repro.bench.reporting import format_table
from repro.bench.table1 import scheme_comparison
from repro.bench.transfer import (
    aggregate_upload_speeds,
    baseline_transfer_speeds,
    cloud_speed_table,
    trace_transfer_speeds,
)
from repro.cloud.testbed import cloud_testbed, lan_testbed
from repro.workloads import FSLWorkload


class TestTable1Driver:
    def test_rows_cover_all_schemes(self):
        rows = scheme_comparison(secret_size=3000)
        names = [r.scheme for r in rows]
        assert names == [
            "ssss",
            "ida",
            "rsss",
            "ssms",
            "aont-rs",
            "caont-rs-rivest",
            "caont-rs",
        ]

    def test_measured_close_to_analytic(self):
        for row in scheme_comparison(secret_size=6000):
            assert row.measured_blowup == pytest.approx(row.analytic_blowup, rel=0.05)

    def test_table1_ordering(self):
        """SSSS blowup n; IDA lowest; AONT-RS family near n/k."""
        rows = {r.scheme: r for r in scheme_comparison(secret_size=6000)}
        assert rows["ssss"].measured_blowup == max(r.measured_blowup for r in rows.values())
        assert rows["ida"].measured_blowup == min(r.measured_blowup for r in rows.values())


class TestEncodingDriver:
    def test_single_measurement(self):
        # Which codec is fastest (Figure 5's headline) is a measured table,
        # benchmarks/measured/test_fig5a_encoding_threads.py; here each
        # codec only has to run through the driver.
        for scheme in FIGURE5_SCHEMES:
            result = encoding_speed(scheme, data_bytes=128 << 10)
            assert result.mbps > 0
            assert result.scheme == scheme

    def test_figure5b_k_rule(self):
        assert figure5b_k(4) == 3
        assert figure5b_k(8) == 6
        assert figure5b_k(20) == 15

    def test_sweep_threads_shape(self):
        results = sweep_threads(threads_list=(1, 2), schemes=("caont-rs",), data_bytes=64 << 10)
        assert len(results) == 2
        assert {r.threads for r in results} == {1, 2}

    def test_sweep_n_shape(self):
        results = sweep_n(n_list=(4, 8), schemes=("caont-rs",), data_bytes=64 << 10)
        assert [(r.n, r.k) for r in results] == [(4, 3), (8, 6)]


class TestTransferDrivers:
    def test_table2_ordering(self):
        rows = {r.cloud: r for r in cloud_speed_table(cloud_testbed())}
        # Azure/Rackspace are the fast pair; Amazon/Google the slow pair.
        assert rows["azure"].upload_mbps > rows["amazon"].upload_mbps
        assert rows["rackspace"].download_mbps > rows["google"].download_mbps

    def test_fig7a_lan_shape(self):
        s = baseline_transfer_speeds(lan_testbed())
        assert s.upload_duplicate_mbps > s.download_mbps > s.upload_unique_mbps

    def test_fig7a_cloud_shape(self):
        s = baseline_transfer_speeds(cloud_testbed())
        assert s.upload_duplicate_mbps > s.download_mbps > s.upload_unique_mbps
        # The dup/uniq gap is far wider on the Internet (paper: >9x).
        assert s.upload_duplicate_mbps / s.upload_unique_mbps > 5

    def test_fig7b_shape(self):
        workload = FSLWorkload(users=3, weeks=3, chunks_per_user=200)
        s = trace_transfer_speeds(lan_testbed(), workload, users=3, weeks=3)
        uniq = baseline_transfer_speeds(lan_testbed()).upload_unique_mbps
        assert s.upload_first_mbps > uniq  # first backup has internal dups
        assert s.upload_subsequent_mbps > s.upload_first_mbps
        assert s.download_mbps < baseline_transfer_speeds(lan_testbed()).download_mbps

    def test_fig8_shape(self):
        rows = aggregate_upload_speeds(lan_testbed())
        uniq = [r.unique_mbps for r in rows]
        dup = [r.duplicate_mbps for r in rows]
        # Monotone non-decreasing with saturation.
        assert all(b >= a - 1e-6 for a, b in zip(uniq, uniq[1:]))
        assert all(b >= a - 1e-6 for a, b in zip(dup, dup[1:]))
        assert dup[-1] > uniq[-1]
        # Knee: dup saturates by 4+ clients (§5.5 CPU saturation).
        assert dup[7] == pytest.approx(dup[4], rel=0.05)
        assert uniq[7] < 8 * uniq[0]  # far from linear scaling


class TestDedupDriver:
    def test_rows_per_week(self):
        workload = FSLWorkload(users=2, weeks=4, chunks_per_user=100)
        rows = simulate_two_stage(workload)
        assert [r.week for r in rows] == [1, 2, 3, 4]
        # Cumulative counters never decrease.
        for a, b in zip(rows, rows[1:]):
            assert b.cumulative_logical_data >= a.cumulative_logical_data
            assert b.cumulative_physical_shares >= a.cumulative_physical_shares


class TestReporting:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.50" in text
        assert "x" in text

    def test_empty_rows(self):
        text = format_table(["col"], [])
        assert "col" in text
