"""Figure 6 addendum — gear vs Rabin chunking ablation (dedup + ingest).

The Figure 6 dedup results replay *chunk traces*, so they are blind to the
chunker; this ablation closes the loop at the byte level: each user-week
snapshot of (scaled-down) FSL- and VM-like workloads is materialised into
its backup byte stream (§5.5's fingerprint-repetition reconstruction,
which preserves content similarity), re-chunked with the paper's Rabin
chunker and with the FastCDC-style gear chunker, and pushed through the
two-stage dedup accounting.

Claim: switching chunkers moves the two-stage dedup savings by at most a
few percentage points — boundaries differ, but both are content-defined
with the same size targets, so unchanged byte ranges re-align either way —
while gear ingests several times faster.  This is what makes ``--chunker
gear`` a safe default for throughput-bound deployments.

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

import time

from conftest import emit, emit_metrics, scaled

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


def _replay(workload, chunker) -> tuple[float, float, float]:
    """Run the byte-level two-stage replay; returns (saving, MB/s, MB).

    ``saving`` is the end-state two-stage reduction
    ``1 - physical / logical`` — the Figure 6(b) headline number.
    """
    sim = TwoStageSimulator()
    chunk_seconds = 0.0
    logical = 0
    for snapshot in workload.all_snapshots():
        stream_len = snapshot.logical_bytes
        logical += stream_len
        start = time.perf_counter()
        rechunked = _rechunk(snapshot, chunker)
        chunk_seconds += time.perf_counter() - start
        sim.ingest_snapshot(rechunked)
    saving = 1.0 - sim.stats.physical_shares / max(sim.stats.logical_shares, 1)
    mbps = logical / 1e6 / chunk_seconds if chunk_seconds else float("inf")
    return saving, mbps, logical / 1e6


def _workloads():
    # Laptop-scale cuts of the §5.2 datasets: enough users/weeks for both
    # dedup stages to matter, small enough that the Rabin leg stays inside
    # the bench-smoke budget.
    fsl_chunks = max(scaled(1 << 20, floor=256 << 10) // 8192, 24)
    vm_chunks = max(scaled(1 << 20, floor=256 << 10) // 4096, 48)
    return (
        ("fsl", FSLWorkload(users=4, weeks=5, chunks_per_user=fsl_chunks)),
        ("vm", VMWorkload(users=6, weeks=5, master_chunks=vm_chunks)),
    )


def test_fig6_chunker_ablation(benchmark):
    chunkers = (("rabin", RabinChunker()), ("gear", GearChunker()))

    def run():
        return [
            (name, chunker_name) + _replay(workload, chunker)
            for name, workload in _workloads()
            for chunker_name, chunker in chunkers
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    table = format_table(
        ["workload", "chunker", "two-stage saving %", "ingest MB/s", "logical MB"],
        [
            [workload, chunker, 100 * saving, mbps, mb]
            for workload, chunker, saving, mbps, mb in results
        ],
        title="Figure 6 addendum: gear vs Rabin byte-level dedup ablation",
    )
    emit("fig6_chunker_ablation", table)

    savings = {(w, c): saving for w, c, saving, _, _ in results}
    metrics = {}
    for workload, _ in _workloads():
        rabin_saving = savings[(workload, "rabin")]
        gear_saving = savings[(workload, "gear")]
        # Dedup parity: within 3 percentage points on both datasets.
        assert abs(gear_saving - rabin_saving) <= 0.03, (
            f"{workload}: gear saving {gear_saving:.3f} vs rabin "
            f"{rabin_saving:.3f} diverges by more than 3pp"
        )
        metrics[f"fig6.{workload}.gear_over_rabin_saving"] = (
            gear_saving / rabin_saving
        )
    emit_metrics(metrics)
