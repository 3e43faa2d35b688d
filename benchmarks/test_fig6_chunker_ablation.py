"""Figure 6 addendum — gear vs Rabin chunking ablation (dedup savings).

The Figure 6 dedup results replay *chunk traces*, so they are blind to the
chunker; this ablation closes the loop at the byte level: each user-week
snapshot of (scaled-down) FSL- and VM-like workloads is materialised into
its backup byte stream (§5.5's fingerprint-repetition reconstruction,
which preserves content similarity), re-chunked with the paper's Rabin
chunker and with the FastCDC-style gear chunker, and pushed through the
two-stage dedup accounting.

Claim: switching chunkers moves the two-stage dedup savings by at most a
few percentage points — boundaries differ, but both are content-defined
with the same size targets, so unchanged byte ranges re-align either way.
(Gear ingests several times faster; both chunkers' ingest rates are rows
of ``measured/test_microbenchmarks.py``.)  This is what makes ``--chunker
gear`` a safe choice for throughput-bound deployments.

One deviation from §5.5's reconstruction: chunks are filled with a
*fingerprint-seeded random stream*, not the fingerprint repeated.  The
repetition trick preserves content similarity for transfer experiments,
but its 32-byte period is pathological for any CDC hash (the rolling
window sees a cycle, so boundary anchors all but vanish inside a chunk);
seeding a DRBG with the fingerprint keeps the same identity property —
identical records yield identical bytes, distinct records distinct bytes —
on realistic entropy, which is what a boundary-behaviour ablation must
measure.
"""

from conftest import pin

from repro.bench.dedup import TwoStageSimulator
from repro.bench.reporting import format_table
from repro.chunking import GearChunker, RabinChunker
from repro.crypto.drbg import DRBG
from repro.crypto.hashing import sha256
from repro.workloads import FSLWorkload, VMWorkload
from repro.workloads.base import BackupSnapshot, ChunkRecord

#: fingerprint -> materialised fill, shared across weeks (identical
#: records must materialise identically for dedup to see them as equal).
_FILL_CACHE: dict[bytes, bytes] = {}


def _materialize_entropy(record: ChunkRecord) -> bytes:
    """Fingerprint-seeded random fill (see the module docstring)."""
    data = _FILL_CACHE.get(record.fingerprint)
    if data is None or len(data) < record.size:
        data = DRBG(record.fingerprint).random_bytes(record.size)
        _FILL_CACHE[record.fingerprint] = data
    return data[: record.size]


def _rechunk(snapshot: BackupSnapshot, chunker) -> BackupSnapshot:
    """Materialise a snapshot's bytes and re-chunk them for real."""
    stream = b"".join(_materialize_entropy(record) for record in snapshot.chunks)
    records = tuple(
        ChunkRecord(fingerprint=sha256(chunk.data), size=chunk.size)
        for chunk in chunker.chunk_bytes(stream)
    )
    return BackupSnapshot(user=snapshot.user, week=snapshot.week, chunks=records)


def _replay(workload, chunker) -> tuple[float, float]:
    """Run the byte-level two-stage replay; returns (saving, logical MB).

    ``saving`` is the end-state two-stage reduction
    ``1 - physical / logical`` — the Figure 6(b) headline number.
    """
    sim = TwoStageSimulator()
    logical = 0
    for snapshot in workload.all_snapshots():
        logical += snapshot.logical_bytes
        sim.ingest_snapshot(_rechunk(snapshot, chunker))
    saving = 1.0 - sim.stats.physical_shares / max(sim.stats.logical_shares, 1)
    return saving, logical / 1e6


def _workloads():
    # Laptop-scale cuts of the §5.2 datasets (1 MiB per FSL user and per
    # VM master image): enough users/weeks for both dedup stages to
    # matter, small enough that the Rabin leg takes about a second.
    return (
        ("fsl", FSLWorkload(users=4, weeks=5, chunks_per_user=(1 << 20) // 8192)),
        ("vm", VMWorkload(users=6, weeks=5, master_chunks=(1 << 20) // 4096)),
    )


def test_fig6_chunker_ablation():
    rows = []
    for name, workload in _workloads():
        rabin_saving, logical_mb = _replay(workload, RabinChunker())
        gear_saving, _ = _replay(workload, GearChunker())
        rows.append(
            [
                name,
                100 * rabin_saving,
                100 * gear_saving,
                f"{gear_saving / rabin_saving:.4f}",
                logical_mb,
            ]
        )
        # Dedup parity: within 3 percentage points on both datasets.
        assert abs(gear_saving - rabin_saving) <= 0.03, (
            f"{name}: gear saving {gear_saving:.3f} vs rabin "
            f"{rabin_saving:.3f} diverges by more than 3pp"
        )

    table = format_table(
        ["workload", "rabin saving %", "gear saving %", "gear/rabin", "logical MB"],
        rows,
        title="Figure 6 addendum: gear vs Rabin byte-level two-stage dedup saving",
    )
    pin("fig6_chunker_ablation", table)
