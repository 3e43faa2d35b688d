"""Ablation — restore fragmentation growth across backup generations.

§5.5: "The download speed will gradually degrade due to fragmentation as
we store more backups."  This ablation runs a weekly backup series through
the *real* system, measures container locality of each generation's
restore with :mod:`repro.analysis.fragmentation`, and checks the paper's
qualitative claim: later generations touch more containers per restored
byte than the first.
"""

from conftest import pin

from repro.analysis import analyze_fragmentation
from repro.bench.reporting import format_table
from repro.chunking import FixedChunker
from repro.config import ReproConfig
from repro.crypto.drbg import DRBG
from repro.system import CDStoreSystem


def test_ablation_fragmentation():
    def run():
        system = CDStoreSystem.from_config(
            ReproConfig(n=4, k=3, salt="org", chunker="fixed:size=4096")
        )
        client = system.client("alice", chunker=FixedChunker(4096))
        rng = DRBG("frag-weeks")
        chunks = [rng.random_bytes(4096) for _ in range(60)]
        reports = []
        for week in range(6):
            # Each week modifies ~10% of chunks, scattering new chunks into
            # fresh containers while most references point at old ones.
            for _ in range(6):
                chunks[rng.randint(0, len(chunks) - 1)] = rng.random_bytes(4096)
            data = b"".join(chunks)
            client.upload(f"/w{week}", data)
            client.flush()
            report = analyze_fragmentation(
                system.servers[0], "alice", client._lookup_key(f"/w{week}")
            )
            reports.append((week, report))
            assert client.download(f"/w{week}") == data
        return reports

    reports = run()

    table = format_table(
        ["week", "containers accessed", "container switches", "frag score"],
        [
            [week, r.containers_accessed, r.container_switches, r.fragmentation_score]
            for week, r in reports
        ],
        title="Ablation: restore fragmentation across weekly backups",
    )
    pin("ablation_fragmentation", table)

    first = reports[0][1]
    last = reports[-1][1]
    # Later backups scatter across more containers and lose locality.
    assert last.containers_accessed > first.containers_accessed
    assert last.fragmentation_score > first.fragmentation_score
    assert first.fragmentation_score == 0.0  # fresh backup is sequential
