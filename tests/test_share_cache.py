"""The client's share cache: hash key h = H(salt || X) → share fingerprints.

A backup answers the secrets its dispersal already encoded from the cache
instead of encoding them again.  What the servers see must not depend on
it: the dedup queries and the uploads are the same bytes in the same order
cold or warm, inline or pipelined; a cloud that lost a share gets it
re-encoded, checked against the cached fingerprint.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.convergent import ShareCache
from repro.crypto.drbg import DRBG
from repro.errors import IntegrityError, ParameterError
from repro.obs.registry import REGISTRY
from repro.system.cdstore import CDStoreSystem

SCHEDULES = {"inline": (1, 1), "pipelined": (3, 2)}


def data_of(size: int, seed: str) -> bytes:
    return DRBG(seed).random_bytes(size)


def next_version(data: bytes, seed: str) -> bytes:
    """Overwrite one extent in the middle: most chunks stay the same."""
    middle = len(data) // 2
    return data[:middle] + data_of(5000, seed) + data[middle + 5000 :]


def make_system(schedule: str = "inline") -> CDStoreSystem:
    threads, depth = SCHEDULES[schedule]
    return CDStoreSystem(n=4, k=3, salt=b"org", threads=threads, pipeline_depth=depth)


def record_traffic(system: CDStoreSystem) -> list:
    """Log every dedup query and upload each server receives, in order."""
    log: list = []
    for idx, server in enumerate(system.servers):
        query, upload = server.query_duplicates, server.upload_shares

        def logged_query(user_id, fingerprints, idx=idx, query=query):
            log.append((idx, "query", user_id, list(fingerprints)))
            return query(user_id, fingerprints)

        def logged_upload(user_id, uploads, idx=idx, upload=upload):
            log.append((idx, "upload", user_id, [(u.meta, u.data) for u in uploads]))
            return upload(user_id, uploads)

        server.query_duplicates = logged_query
        server.upload_shares = logged_upload
    return log


def per_cloud(log: list, n: int) -> list[list]:
    return [[entry for entry in log if entry[0] == idx] for idx in range(n)]


def outcomes() -> dict[str, float]:
    counter = REGISTRY.counter("client_share_cache_total")
    return {name: counter.value(outcome=name) for name in ("hit", "miss", "reencode")}


def delta(before: dict, after: dict) -> dict:
    return {name: after[name] - before[name] for name in before}


VERSIONS = [data_of(300_000, "v0")]
VERSIONS.append(next_version(VERSIONS[0], "v1"))
VERSIONS.append(next_version(VERSIONS[1], "v2"))


def back_up_versions(system: CDStoreSystem, cold: bool) -> list:
    """Back up every version under one path; ``cold`` empties the cache
    before each backup.  Returns the per-cloud server traffic."""
    log = record_traffic(system)
    client = system.client("alice")
    for data in VERSIONS:
        if cold:
            client.dispersal.share_cache = ShareCache()
        client.upload("/f", data)
    return per_cloud(log, system.n)


class TestCacheStates:
    def test_cold_then_warm(self):
        system = make_system()
        client = system.client("alice")
        chunks = list(client.chunker.chunk_bytes(VERSIONS[0]))
        before = outcomes()
        client.upload("/f", VERSIONS[0])
        cold = delta(before, outcomes())
        assert cold == {"hit": 0, "miss": len(chunks), "reencode": 0}
        assert len(client.dispersal.share_cache) == len({c.data for c in chunks})

        before = outcomes()
        receipt = client.upload("/f", VERSIONS[1])
        warm = delta(before, outcomes())
        assert warm["hit"] > 0.8 * receipt.secret_count
        assert warm["hit"] + warm["miss"] == receipt.secret_count
        assert warm["reencode"] == 0
        assert client.download("/f") == VERSIONS[1]
        system.close()

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_warm_traffic_equals_cold_traffic(self, schedule):
        """The servers cannot tell whether the client's cache was warm."""
        warm_system, cold_system = make_system(schedule), make_system(schedule)
        warm = back_up_versions(warm_system, cold=False)
        cold = back_up_versions(cold_system, cold=True)
        assert warm == cold
        assert warm_system.client("alice").download("/f") == VERSIONS[-1]
        warm_system.close()
        cold_system.close()

    def test_inline_and_pipelined_send_the_same_bytes_warm(self):
        inline_system, pipelined_system = make_system("inline"), make_system("pipelined")
        inline = back_up_versions(inline_system, cold=False)
        pipelined = back_up_versions(pipelined_system, cold=False)
        assert inline == pipelined
        inline_system.close()
        pipelined_system.close()

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_wiped_cloud_gets_its_shares_re_encoded(self, schedule):
        system = make_system(schedule)
        client = system.client("alice")
        client.upload("/f", VERSIONS[0])
        system.wipe_cloud(2)
        before = outcomes()
        receipt = client.upload("/f", VERSIONS[0])
        counts = delta(before, outcomes())
        assert counts["hit"] == receipt.secret_count
        assert counts["miss"] == 0
        assert counts["reencode"] > 0
        # Only the wiped cloud lacked the shares, so only it is sent any.
        assert [b > 0 for b in receipt.wire_bytes_per_cloud] == [False, False, True, False]
        assert client.download("/f") == VERSIONS[0]
        # Cloud 2 alone (with any two others) restores the same bytes.
        system.fail_cloud(0)
        assert client.download("/f") == VERSIONS[0]
        system.close()


class TestPoisonedEntry:
    def test_mismatching_fingerprint_raises_and_leaves_the_cache(self):
        system = make_system()
        client = system.client("alice")
        client.upload("/f", VERSIONS[0])
        cache = client.dispersal.share_cache
        key = client.dispersal.hash_keys(
            [next(iter(client.chunker.chunk_bytes(VERSIONS[0]))).data]
        )[0]
        [value] = cache.get_many([key])
        # Cloud 1's fingerprint replaced by one no cloud has seen: that
        # cloud asks for the share, and its re-encoding does not match.
        cache.put_many([(key, value[:32] + bytes(32) + value[64:])])
        with pytest.raises(IntegrityError):
            client.upload("/g", VERSIONS[0])
        assert cache.get_many([key]) == [None]
        client.upload("/g", VERSIONS[0])
        assert client.download("/g") == VERSIONS[0]
        system.close()


class TestBound:
    def test_lru_bound_holds(self):
        cache = ShareCache(capacity=3)
        cache.put_many([(bytes([i]) * 32, bytes([i]) * 128) for i in range(3)])
        assert cache.get_many([bytes([0]) * 32]) == [bytes([0]) * 128]  # refresh 0
        cache.put_many([(bytes([3]) * 32, bytes([3]) * 128)])
        assert len(cache) == 3
        assert cache.get_many([bytes([i]) * 32 for i in range(4)]) == [
            bytes([0]) * 128,
            None,
            bytes([2]) * 128,
            bytes([3]) * 128,
        ]

    def test_capacity_validated(self):
        with pytest.raises(ParameterError):
            ShareCache(capacity=0)

    def test_backup_larger_than_the_cache(self):
        system = make_system("pipelined")
        client = system.client("alice")
        client.dispersal.share_cache = ShareCache(capacity=8)
        client.upload("/f", VERSIONS[0])
        assert len(client.dispersal.share_cache) == 8
        before = outcomes()
        receipt = client.upload("/f", VERSIONS[0])
        counts = delta(before, outcomes())
        # The newest eight chunks were cached; evicted ones re-encode as misses.
        assert counts["hit"] == 8
        assert counts["miss"] == receipt.secret_count - 8
        assert len(client.dispersal.share_cache) == 8
        assert client.download("/f") == VERSIONS[0]
        system.close()


class TestConcurrentUploads:
    def test_two_uploads_share_one_client_cache(self):
        system = CDStoreSystem(n=4, k=3, salt=b"org", threads=2)
        client = system.client("alice")
        files = {f"/f{i}": data_of(200_000, f"concurrent-{i}") for i in range(2)}
        errors: list[BaseException] = []

        def back_up_all() -> None:
            barrier = threading.Barrier(len(files))

            def one(path: str, data: bytes) -> None:
                try:
                    barrier.wait()
                    client.upload(path, data)
                except BaseException as exc:  # surfaced below
                    errors.append(exc)

            workers = [
                threading.Thread(target=one, args=item) for item in files.items()
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()

        back_up_all()
        assert not errors
        before = outcomes()
        back_up_all()
        assert not errors
        counts = delta(before, outcomes())
        assert counts["miss"] == 0 and counts["hit"] > 0
        for path, data in files.items():
            assert client.download(path) == data
        system.close()
