"""End-to-end integration scenarios combining many subsystems at once."""

import os

import pytest

from repro.chunking import FixedChunker, RabinChunker
from repro.config import ReproConfig
from repro.crypto.drbg import DRBG
from repro.system.cdstore import CDStoreSystem
from repro.workloads import FSLWorkload, VMWorkload, materialize

pytestmark = pytest.mark.slow  # deselect with -m "not slow" when iterating


class TestDurableDeployment:
    """LocalDir backends + LSM indices: everything on disk, reopened."""

    def test_full_lifecycle_on_disk(self, tmp_path):
        def make_system():
            return CDStoreSystem.from_config(
                ReproConfig(n=4, k=3, salt="org"), root=tmp_path
            )

        data = DRBG("durable").random_bytes(80_000)
        system = make_system()
        client = system.client("alice", chunker=FixedChunker(4096))
        client.upload("/persisted.tar", data)
        client.flush()
        system.close()

        # A brand-new process (fresh objects) sees the same deployment.
        system2 = make_system()
        client2 = system2.client("alice", chunker=FixedChunker(4096))
        assert client2.download("/persisted.tar") == data
        assert client2.list_files() == ["/persisted.tar"]
        # Dedup state also survived: re-upload transfers nothing.
        receipt = client2.upload("/persisted-v2.tar", data)
        assert receipt.transferred_share_bytes == 0
        system2.close()


class TestWorkloadDrivenCampaign:
    """Synthetic workloads materialised through the real pipeline."""

    @pytest.mark.parametrize("workload_cls,kwargs", [
        (FSLWorkload, dict(users=2, weeks=3, chunks_per_user=30,
                           avg_chunk=4096, min_chunk=4096, max_chunk=4096)),
        (VMWorkload, dict(users=3, weeks=2, master_chunks=40)),
    ])
    def test_campaign_restores_bit_exact(self, workload_cls, kwargs):
        workload = workload_cls(**kwargs)
        system = CDStoreSystem(n=4, k=3, salt=b"org")
        for snapshot in workload.all_snapshots():
            payload = b"".join(materialize(c) for c in snapshot.chunks)
            client = system.client(snapshot.user, chunker=FixedChunker(4096))
            client.upload(f"/{snapshot.user}/w{snapshot.week}", payload)
        # Every backup restores, even with a failed cloud.
        system.fail_cloud(1)
        for snapshot in workload.all_snapshots():
            payload = b"".join(materialize(c) for c in snapshot.chunks)
            client = system.client(snapshot.user)
            assert client.download(f"/{snapshot.user}/w{snapshot.week}") == payload

    def test_vm_campaign_inter_user_savings_materialise(self):
        """Cloned images dedup across users in the *real* system, not just
        the accounting simulator."""
        workload = VMWorkload(users=4, weeks=1, master_chunks=50)
        system = CDStoreSystem(n=4, k=3, salt=b"org")
        for snapshot in workload.week_snapshots(1):
            payload = b"".join(materialize(c) for c in snapshot.chunks)
            client = system.client(snapshot.user, chunker=FixedChunker(4096))
            client.upload("/image", payload)
        stats = system.global_stats()
        assert stats.inter_user_saving > 0.6


class TestMixedOperations:
    def test_interleaved_backup_restore_delete_gc(self):
        system = CDStoreSystem(n=4, k=3, salt=b"org")
        client = system.client("alice", chunker=FixedChunker(4096))
        keep = DRBG("keep").random_bytes(40_000)
        drop = DRBG("drop").random_bytes(40_000)
        client.upload("/keep", keep)
        client.upload("/drop", drop)
        client.flush()
        stored_before = system.stored_bytes()
        client.delete("/drop")
        freed = sum(server.collect_garbage() for server in system.servers)
        assert freed > 0
        assert system.stored_bytes() < stored_before
        assert client.download("/keep") == keep

    def test_gc_preserves_cross_user_shares(self):
        system = CDStoreSystem(n=4, k=3, salt=b"org")
        shared = DRBG("shared").random_bytes(30_000)
        alice = system.client("alice", chunker=FixedChunker(4096))
        bob = system.client("bob", chunker=FixedChunker(4096))
        alice.upload("/a", shared)
        bob.upload("/b", shared)
        alice.flush()
        alice.delete("/a")
        for server in system.servers:
            server.collect_garbage()
        assert bob.download("/b") == shared

    def test_repair_after_gc(self):
        system = CDStoreSystem(n=4, k=3, salt=b"org")
        client = system.client("alice", chunker=FixedChunker(4096))
        data = DRBG("rg").random_bytes(30_000)
        client.upload("/f", data)
        client.upload("/temp", DRBG("tmp").random_bytes(20_000))
        client.flush()
        client.delete("/temp")
        for server in system.servers:
            server.collect_garbage()
        system.wipe_cloud(3)
        system.repair_cloud(3)
        system.fail_cloud(0)
        assert client.download("/f") == data

    def test_rabin_chunked_versions_dedup_across_insertion(self):
        """The §4.2 argument end-to-end: an insertion at the front of the
        file must not defeat deduplication under Rabin chunking."""
        system = CDStoreSystem(n=4, k=3, salt=b"org")
        chunker = RabinChunker(avg_size=2048, min_size=512, max_size=8192)
        client = system.client("alice", chunker=chunker)
        base = DRBG("rabin-e2e").random_bytes(120_000)
        client.upload("/v1", base)
        receipt = client.upload("/v2", os.urandom(64) + base)
        assert receipt.intra_user_saving > 0.6
        assert client.download("/v2")[64:] == base


class TestScaleSmoke:
    def test_many_small_files(self):
        system = CDStoreSystem(n=4, k=3)
        client = system.client("alice", chunker=FixedChunker(2048))
        files = {}
        for i in range(40):
            data = DRBG(f"file{i}").random_bytes(3000 + 17 * i)
            files[f"/f{i}"] = data
            client.upload(f"/f{i}", data)
        assert len(client.list_files()) == 40
        for path, data in files.items():
            assert client.download(path) == data

    def test_larger_file_many_containers(self):
        system = CDStoreSystem(n=4, k=3)
        client = system.client("alice", chunker=FixedChunker(8192))
        data = DRBG("big").random_bytes(1 << 20)
        client.upload("/big", data)
        client.flush()
        assert client.download("/big") == data
