"""Figure 6(a) — intra-user and inter-user deduplication savings per week.

Paper (FSL): intra-user savings ≥ 94.2 % for subsequent backups; inter-user
savings ≤ 12.9 %.  Paper (VM): first-week inter-user saving 93.4 % (images
cloned from one master), subsequent weeks 11.8-47.0 %, intra ≥ 98 %.
"""

from conftest import pin

from repro.bench.dedup import simulate_two_stage
from repro.bench.reporting import format_table
from repro.workloads import FSLWorkload, VMWorkload


def test_fig6a_fsl():
    workload = FSLWorkload(chunks_per_user=800)
    rows = simulate_two_stage(workload)

    table = format_table(
        ["week", "intra-user saving %", "inter-user saving %"],
        [[r.week, 100 * r.intra_saving, 100 * r.inter_saving] for r in rows],
        title="Figure 6(a) FSL: weekly dedup savings, (n, k)=(4, 3)",
    )
    pin("fig6a_fsl", table)

    assert all(r.intra_saving >= 0.94 for r in rows[1:])
    assert all(r.inter_saving <= 0.15 for r in rows)


def test_fig6a_vm():
    workload = VMWorkload(users=60, master_chunks=1500)
    rows = simulate_two_stage(workload)

    table = format_table(
        ["week", "intra-user saving %", "inter-user saving %"],
        [[r.week, 100 * r.intra_saving, 100 * r.inter_saving] for r in rows],
        title="Figure 6(a) VM: weekly dedup savings, (n, k)=(4, 3)",
    )
    pin("fig6a_vm", table)

    assert rows[0].inter_saving > 0.88  # cloned master images
    assert all(r.intra_saving >= 0.97 for r in rows[1:])
    assert all(0.10 <= r.inter_saving <= 0.55 for r in rows[1:])
