"""Figure 9(a) — cost saving vs weekly backup size (dedup ratio 10x).

Paper: savings grow with the weekly backup size and reach at least 70 % at
16 TB/week (CDStore ≈ $3,540/mo vs AONT-RS ≈ $16,400/mo and single-cloud
≈ $12,250/mo); the saving vs AONT-RS exceeds the saving vs single cloud;
the curves are jagged where the cheapest EC2 instance switches.
"""

from conftest import pin

from repro.bench.reporting import format_table
from repro.costs import sweep_weekly_size

TB = 1000**4


def test_fig9a():
    rows = sweep_weekly_size()

    table = format_table(
        ["weekly TB", "saving vs AONT-RS %", "saving vs single %", "CDStore $/mo", "instance"],
        [
            [
                r.weekly_bytes / TB,
                100 * r.saving_vs_aont_rs,
                100 * r.saving_vs_single_cloud,
                r.cdstore.total_usd,
                r.cdstore.instances[0],
            ]
            for r in rows
        ],
        title="Figure 9(a): cost savings vs weekly backup size (10x dedup, 26-week retention)",
    )
    pin("fig9a", table)

    by_tb = {r.weekly_bytes / TB: r for r in rows}
    # Headline: >= 70% saving at 16 TB/week.
    assert by_tb[16].saving_vs_aont_rs >= 0.70
    assert by_tb[16].saving_vs_single_cloud >= 0.70
    # vs AONT-RS always exceeds vs single cloud (dispersal redundancy).
    for r in rows:
        assert r.saving_vs_aont_rs >= r.saving_vs_single_cloud
    # Savings grow with size overall.
    assert by_tb[256].saving_vs_aont_rs > by_tb[1].saving_vs_aont_rs
    # Paper magnitudes at the 16 TB point.
    assert abs(by_tb[16].aont_rs.total_usd - 16_400) / 16_400 < 0.15
    assert abs(by_tb[16].single_cloud.total_usd - 12_250) / 12_250 < 0.15
