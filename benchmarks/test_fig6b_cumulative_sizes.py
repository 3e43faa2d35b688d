"""Figure 6(b) — cumulative data and share sizes under two-stage dedup.

Paper: after 16 weekly backups the physical shares are ~6.3 % of logical
data for FSL and ~0.8 % for VM — the (n/k = 4/3) dispersal redundancy is
more than offset by deduplication.  The four series are logical data,
logical shares, transferred shares and physical shares.
"""

from conftest import pin

from repro.bench.dedup import simulate_two_stage
from repro.bench.reporting import format_table
from repro.workloads import FSLWorkload, VMWorkload


def _table(rows, title):
    return format_table(
        ["week", "logical MB", "logical shares MB", "transferred MB", "physical MB"],
        [
            [
                r.week,
                r.cumulative_logical_data / 1e6,
                r.cumulative_logical_shares / 1e6,
                r.cumulative_transferred_shares / 1e6,
                r.cumulative_physical_shares / 1e6,
            ]
            for r in rows
        ],
        title=title,
    )


def test_fig6b_fsl():
    rows = simulate_two_stage(FSLWorkload(chunks_per_user=800))
    pin("fig6b_fsl", _table(rows, "Figure 6(b) FSL: cumulative sizes"))

    final = rows[-1]
    # Ordering of the four series (every week).
    for r in rows:
        assert (
            r.cumulative_logical_shares
            > r.cumulative_logical_data
            > r.cumulative_transferred_shares
            > r.cumulative_physical_shares
        )
    ratio = final.cumulative_physical_shares / final.cumulative_logical_data
    assert 0.04 < ratio < 0.11  # paper: 6.3%


def test_fig6b_vm():
    rows = simulate_two_stage(VMWorkload(users=60, master_chunks=1500))
    pin("fig6b_vm", _table(rows, "Figure 6(b) VM: cumulative sizes"))

    final = rows[-1]
    ratio = final.cumulative_physical_shares / final.cumulative_logical_data
    assert ratio < 0.05  # paper: 0.8% at 156 users; scales with user count
    # Inter-user dedup is crucial for VM: physical much lower than transferred.
    assert final.cumulative_physical_shares < 0.5 * final.cumulative_transferred_shares
