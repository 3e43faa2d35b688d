"""Ablations — component-level design choices, counted in bytes and ops
(see "Paper reproductions" in docs/ARCHITECTURE.md; the timed Vandermonde
vs Cauchy ablation is ``measured/test_ablation_rs_matrix.py``).

* recipe compression on/off: backend bytes for version-heavy backups;
* container LRU cache: backend reads with and without cache hits;
* Rabin vs fixed-size chunking: dedup savings under content shifting
  (the §4.2 rationale for variable-size chunking).
"""

from conftest import pin

from repro.bench.reporting import format_table
from repro.chunking import FixedChunker, RabinChunker
from repro.crypto.drbg import DRBG


def test_ablation_recipe_compression():
    """Recipe compression against a version-heavy backup series."""
    from repro.chunking import FixedChunker
    from repro.config import ReproConfig
    from repro.system import CDStoreSystem

    def run(compression: bool) -> int:
        system = CDStoreSystem.from_config(
            ReproConfig(n=4, k=3, salt="org", chunker="fixed:size=4096")
        )
        for server in system.servers:
            server.recipe_compression = compression
        client = system.client("alice", chunker=FixedChunker(4096))
        # Backup data with heavy internal duplication (e.g. database pages
        # or VM images): the recipe repeats the same few fingerprints, the
        # pattern recipe compression [41] exploits.
        blocks = [DRBG(f"block{i}").random_bytes(4096) for i in range(3)]
        data = b"".join(blocks[i % 3] for i in range(120))
        for version in range(4):
            client.upload(f"/v{version}", data)
        system.flush()
        return system.stored_bytes()

    with_c, without_c = run(True), run(False)
    table = format_table(
        ["recipe compression", "stored bytes"],
        [["on", with_c], ["off", without_c]],
        title="Ablation: recipe compression, duplicate-heavy backup versions",
    )
    pin("ablation_recipe_compression", table)
    assert with_c < without_c


def test_ablation_container_cache():
    """Container LRU cache: repeated restores against backend reads.

    A hit serves a whole run of a fetch batch's entries in that container,
    not one share: the cache is looked up once per container per batch.
    """
    from repro.chunking import FixedChunker
    from repro.config import ReproConfig
    from repro.system import CDStoreSystem

    def run() -> tuple[int, int]:
        system = CDStoreSystem.from_config(ReproConfig(n=4, k=3))
        client = system.client("alice", chunker=FixedChunker(4096))
        data = DRBG("cache").random_bytes(100_000)
        client.upload("/f", data)
        client.flush()
        before = sum(c.backend.get_ops for c in system.clouds)
        for _ in range(5):
            assert client.download("/f") == data
        after = sum(c.backend.get_ops for c in system.clouds)
        hits = sum(s.containers.cache_stats[0] for s in system.servers)
        return after - before, hits

    backend_reads, cache_hits = run()
    table = format_table(
        ["metric", "count"],
        [["backend reads for 5 restores", backend_reads],
         ["container cache hits", cache_hits]],
        title="Ablation: container LRU cache",
    )
    pin("ablation_container_cache", table)
    assert cache_hits > backend_reads  # most reads served from cache


def test_ablation_chunking():
    """Rabin vs fixed chunking under content shifting (§4.2)."""

    def dedup_saving(chunker) -> float:
        base = DRBG("shift").random_bytes(200_000)
        shifted = DRBG("prefix").random_bytes(97) + base  # insertion at front
        baseline = {c.data for c in chunker.chunk_bytes(base)}
        shifted_chunks = list(chunker.chunk_bytes(shifted))
        dup = sum(c.size for c in shifted_chunks if c.data in baseline)
        total = sum(c.size for c in shifted_chunks)
        return dup / total

    def run():
        return {
            "rabin": dedup_saving(RabinChunker(avg_size=4096, min_size=1024, max_size=16384)),
            "fixed": dedup_saving(FixedChunker(4096)),
        }

    results = run()
    table = format_table(
        ["chunker", "dedup saving after 97-byte insertion %"],
        [[name, 100 * saving] for name, saving in results.items()],
        title="Ablation: content-defined vs fixed chunking under shifting",
    )
    pin("ablation_chunking", table)
    assert results["rabin"] > 0.6
    assert results["fixed"] < 0.1
