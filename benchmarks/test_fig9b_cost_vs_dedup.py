"""Figure 9(b) — cost saving vs deduplication ratio (16 TB weekly backups).

Paper: the saving increases with the dedup ratio and is about 70-80 % for
ratios between 10x and 50x.
"""

from conftest import pin

from repro.bench.reporting import format_table
from repro.costs import sweep_dedup_ratio


def test_fig9b():
    rows = sweep_dedup_ratio()

    table = format_table(
        ["dedup ratio", "saving vs AONT-RS %", "saving vs single %", "CDStore $/mo"],
        [
            [
                r.dedup_ratio,
                100 * r.saving_vs_aont_rs,
                100 * r.saving_vs_single_cloud,
                r.cdstore.total_usd,
            ]
            for r in rows
        ],
        title="Figure 9(b): cost savings vs dedup ratio (16 TB weekly, 26-week retention)",
    )
    pin("fig9b", table)

    savings = [r.saving_vs_aont_rs for r in rows]
    assert savings == sorted(savings)  # monotone in the dedup ratio
    in_band = [r for r in rows if 10 <= r.dedup_ratio <= 50]
    assert all(r.saving_vs_aont_rs >= 0.70 for r in in_band)
    assert all(r.saving_vs_single_cloud >= 0.70 for r in in_band)
