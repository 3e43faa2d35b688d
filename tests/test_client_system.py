"""Client + system integration: upload/restore, failures, side channels."""

import pytest

from repro.chunking.fixed import FixedChunker
from repro.chunking.rabin import RabinChunker
from repro.crypto.drbg import DRBG
from repro.errors import (
    CloudUnavailableError,
    InsufficientCloudsError,
    NotFoundError,
    ParameterError,
)
from repro.config import ReproConfig
from repro.system.cdstore import CDStoreSystem


@pytest.fixture
def system() -> CDStoreSystem:
    return CDStoreSystem(n=4, k=3, salt=b"org")


def data_of(size: int, seed: str = "payload") -> bytes:
    return DRBG(seed).random_bytes(size)


class TestBackupRestore:
    def test_roundtrip(self, system):
        client = system.client("alice", chunker=FixedChunker(4096))
        payload = data_of(50_000)
        receipt = client.upload("/home/alice/docs.tar", payload)
        assert receipt.file_size == 50_000
        assert receipt.secret_count == 13
        assert client.download("/home/alice/docs.tar") == payload

    def test_roundtrip_with_rabin_chunking(self, system):
        chunker = RabinChunker(avg_size=1024, min_size=256, max_size=4096)
        client = system.client("alice", chunker=chunker)
        payload = data_of(30_000)
        client.upload("/backup.tar", payload)
        assert client.download("/backup.tar") == payload

    def test_empty_file(self, system):
        client = system.client("alice", chunker=FixedChunker(4096))
        client.upload("/empty", b"")
        assert client.download("/empty") == b""

    def test_multiple_files_per_user(self, system):
        client = system.client("alice", chunker=FixedChunker(4096))
        files = {f"/f{i}": data_of(10_000 + i, seed=f"f{i}") for i in range(5)}
        for path, payload in files.items():
            client.upload(path, payload)
        for path, payload in files.items():
            assert client.download(path) == payload

    def test_unknown_file_raises(self, system):
        client = system.client("alice")
        with pytest.raises(NotFoundError):
            client.download("/never-uploaded")

    def test_same_path_different_users_are_distinct(self, system):
        alice = system.client("alice", chunker=FixedChunker(4096))
        bob = system.client("bob", chunker=FixedChunker(4096))
        pa, pb = data_of(9_000, "a"), data_of(9_000, "b")
        alice.upload("/shared/path", pa)
        bob.upload("/shared/path", pb)
        assert alice.download("/shared/path") == pa
        assert bob.download("/shared/path") == pb

    def test_threaded_encoding(self, system):
        client = system.client("turbo", chunker=FixedChunker(2048), threads=3)
        payload = data_of(40_000)
        client.upload("/fast", payload)
        assert client.download("/fast") == payload


class TestDeduplication:
    def test_intra_user_dedup_on_duplicate_upload(self, system):
        client = system.client("alice", chunker=FixedChunker(4096))
        payload = data_of(40_000)
        first = client.upload("/v1", payload)
        second = client.upload("/v2", payload)
        assert first.intra_user_saving < 0.05
        assert second.intra_user_saving > 0.99
        assert second.transferred_share_bytes == 0

    def test_partial_modification_savings(self, system):
        client = system.client("alice", chunker=FixedChunker(4096))
        payload = bytearray(data_of(40_000))
        client.upload("/v1", bytes(payload))
        payload[0:4096] = data_of(4096, "new-chunk")  # change one chunk
        receipt = client.upload("/v2", bytes(payload))
        assert 0.85 < receipt.intra_user_saving < 0.95

    def test_inter_user_dedup_is_server_side_only(self, system):
        """Bob's identical upload transfers everything (side-channel safe)
        but stores nothing new (inter-user dedup)."""
        alice = system.client("alice", chunker=FixedChunker(4096))
        bob = system.client("bob", chunker=FixedChunker(4096))
        payload = data_of(40_000)
        alice.upload("/a", payload)
        stored_before = system.global_stats().physical_shares
        receipt = bob.upload("/b", payload)
        assert receipt.intra_user_saving == 0.0  # full transfer: no leak
        assert system.global_stats().physical_shares == stored_before

    def test_upload_pattern_independent_of_other_users(self, system):
        """The dedup answers bob observes are identical whether or not
        alice previously uploaded the same data (§3.3)."""
        payload = data_of(40_000)
        # System A: alice uploaded the payload first.
        sys_a = CDStoreSystem(n=4, k=3, salt=b"org")
        sys_a.client("alice", chunker=FixedChunker(4096)).upload("/a", payload)
        receipt_a = sys_a.client("bob", chunker=FixedChunker(4096)).upload("/b", payload)
        # System B: bob is alone.
        sys_b = CDStoreSystem(n=4, k=3, salt=b"org")
        receipt_b = sys_b.client("bob", chunker=FixedChunker(4096)).upload("/b", payload)
        assert receipt_a.transferred_share_bytes == receipt_b.transferred_share_bytes
        assert receipt_a.wire_bytes_per_cloud == receipt_b.wire_bytes_per_cloud

    def test_global_stats_consistency(self, system):
        client = system.client("alice", chunker=FixedChunker(4096))
        payload = data_of(40_000)
        client.upload("/a", payload)
        client.upload("/b", payload)
        stats = system.global_stats()
        assert stats.logical_data == 80_000
        assert stats.transferred_shares == stats.physical_shares
        assert stats.intra_user_saving == pytest.approx(0.5, abs=0.01)
        assert stats.dedup_ratio == pytest.approx(2.0, abs=0.05)


class TestFailuresAndRepair:
    def test_restore_with_one_cloud_down(self, system):
        client = system.client("alice", chunker=FixedChunker(4096))
        payload = data_of(30_000)
        client.upload("/f", payload)
        for idx in range(4):
            system.fail_cloud(idx)
            assert client.download("/f") == payload
            system.recover_cloud(idx)

    def test_restore_fails_below_k(self, system):
        client = system.client("alice", chunker=FixedChunker(4096))
        client.upload("/f", data_of(10_000))
        system.fail_cloud(0)
        system.fail_cloud(1)
        with pytest.raises(InsufficientCloudsError):
            client.download("/f")

    def test_upload_requires_all_clouds(self, system):
        client = system.client("alice", chunker=FixedChunker(4096))
        system.fail_cloud(2)
        with pytest.raises(CloudUnavailableError):
            client.upload("/f", data_of(5_000))

    def test_wipe_and_repair(self, system):
        client = system.client("alice", chunker=FixedChunker(4096))
        payload = data_of(30_000)
        client.upload("/f", payload)
        client.flush()
        system.wipe_cloud(1)
        rebuilt = system.repair_cloud(1)
        assert rebuilt > 0
        system.fail_cloud(0)  # force the repaired cloud into the quorum
        assert client.download("/f") == payload

    def test_repair_needs_k_healthy_donors(self, system):
        client = system.client("alice", chunker=FixedChunker(4096))
        client.upload("/f", data_of(10_000))
        system.wipe_cloud(0)
        system.fail_cloud(1)
        system.fail_cloud(2)
        with pytest.raises(InsufficientCloudsError):
            system.repair_cloud(0)

    def test_corrupted_share_brute_force(self, system):
        client = system.client("alice", chunker=FixedChunker(4096))
        payload = data_of(20_000)
        client.upload("/f", payload)
        client.flush()
        backend = system.clouds[0].backend
        for key in backend.list_keys("container-"):
            backend.corrupt(key, offset=64, flips=16)
        assert client.download("/f") == payload


class TestDeletion:
    def test_delete_then_download_fails(self, system):
        client = system.client("alice", chunker=FixedChunker(4096))
        client.upload("/f", data_of(10_000))
        client.delete("/f")
        with pytest.raises(NotFoundError):
            client.download("/f")

    def test_delete_requires_all_clouds(self, system):
        client = system.client("alice", chunker=FixedChunker(4096))
        client.upload("/f", data_of(10_000))
        system.fail_cloud(3)
        with pytest.raises(CloudUnavailableError):
            client.delete("/f")


class TestSystemConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            CDStoreSystem(n=3, k=4)
        from repro.cloud.network import Link
        from repro.cloud.provider import CloudProvider

        clouds = [CloudProvider("x", Link(1), Link(1))]
        with pytest.raises(ParameterError):
            CDStoreSystem(n=4, k=3, clouds=clouds)

    def test_client_is_cached(self, system):
        assert system.client("alice") is system.client("alice")

    def test_durable_indices(self, tmp_path):
        system = CDStoreSystem.from_config(ReproConfig(n=4, k=3), root=tmp_path)
        client = system.client("alice", chunker=FixedChunker(4096))
        payload = data_of(15_000)
        client.upload("/f", payload)
        assert client.download("/f") == payload
        system.close()

    def test_durable_indices_flush_at_the_request_boundary(self, tmp_path):
        """Servers over a root sync their index per request, which is
        where a memtable past ``memtable_bytes`` flushes."""
        system = CDStoreSystem.from_config(ReproConfig(n=4, k=3), root=tmp_path)
        for server in system.servers:
            server.index.store.memtable_bytes = 2048
        client = system.client("alice", chunker=FixedChunker(4096))
        payload = data_of(60_000)
        client.upload("/f", payload)
        for i, server in enumerate(system.servers):
            assert server.index.store.table_count >= 1
            assert list((tmp_path / "indices" / f"server-{i}").glob("sst-*.db"))
        assert client.download("/f") == payload
        system.close()

    def test_stored_bytes_accounting(self, system):
        client = system.client("alice", chunker=FixedChunker(4096))
        client.upload("/f", data_of(30_000))
        stored = system.stored_bytes()
        # Stored bytes = physical shares + recipes + container framing; at
        # (4,3) that is at least 4/3 of the data.
        assert stored > 30_000 * 4 / 3
