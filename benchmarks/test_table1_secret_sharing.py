"""Table 1 — comparison of secret sharing algorithms.

Paper columns: confidentiality degree r and storage blowup for SSSS, IDA,
RSSS, SSMS and AONT-RS at the same (n, k).  We print the analytic blowup
next to the measured blowup of real splits, plus the convergent variants.
"""

from conftest import pin

from repro.bench.reporting import format_table
from repro.bench.table1 import scheme_comparison


def test_table1():
    rows = scheme_comparison(n=4, k=3, rsss_r=1, secret_size=8192)

    table = format_table(
        ["scheme", "r", "analytic blowup", "measured blowup", "dedupable"],
        [
            [r.scheme, r.r, r.analytic_blowup, r.measured_blowup, r.deterministic]
            for r in rows
        ],
        title="Table 1: secret sharing algorithms at (n, k) = (4, 3), 8 KB secrets",
    )
    pin("table1", table)

    by_name = {r.scheme: r for r in rows}
    # Paper's Table 1 relationships.
    assert by_name["ssss"].measured_blowup == 4.0  # n
    assert abs(by_name["ida"].measured_blowup - 4 / 3) < 0.01  # n/k
    assert abs(by_name["rsss"].measured_blowup - 2.0) < 0.01  # n/(k-r)
    assert by_name["ssms"].measured_blowup > by_name["ida"].measured_blowup
    assert by_name["aont-rs"].measured_blowup < by_name["ssms"].measured_blowup
    # Only the convergent instantiations are deduplicable.
    assert by_name["caont-rs"].deterministic
    assert not by_name["aont-rs"].deterministic
