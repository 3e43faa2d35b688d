"""Integrity scrubbing and surgical share repair."""

import pytest

from repro.chunking import FixedChunker
from repro.crypto.drbg import DRBG
from repro.errors import NotFoundError, ProtocolError
from repro.storage.container import KIND_SHARE, Container, ContainerManager
from repro.system.cdstore import CDStoreSystem


@pytest.fixture
def loaded_system():
    system = CDStoreSystem(n=4, k=3, salt=b"org")
    client = system.client("alice", chunker=FixedChunker(4096))
    data = DRBG("scrub-data").random_bytes(60_000)
    client.upload("/backup.tar", data)
    client.flush()
    return system, client, data


class TestScrub:
    def test_clean_system_scrubs_clean(self, loaded_system):
        system, _, _ = loaded_system
        for server in system.servers:
            assert server.scrub() == []

    def test_scrub_detects_corruption(self, loaded_system):
        system, _, _ = loaded_system
        backend = system.clouds[2].backend
        for key in backend.list_keys("container-"):
            backend.corrupt(key, offset=50, flips=4)
        corrupt = system.servers[2].scrub()
        assert corrupt
        # Other clouds unaffected.
        assert system.servers[0].scrub() == []

    def test_scrub_detects_destroyed_container(self, loaded_system):
        system, _, _ = loaded_system
        backend = system.clouds[1].backend
        keys = backend.list_keys("container-")
        backend.put_object(keys[0], b"not a container at all")
        assert system.servers[1].scrub()


class TestScrubAndRepair:
    def test_heals_corruption(self, loaded_system):
        system, client, data = loaded_system
        backend = system.clouds[2].backend
        for key in backend.list_keys("container-"):
            backend.corrupt(key, offset=50, flips=4)
        healed = system.scrub_and_repair(2)
        assert healed > 0
        # After healing, the cloud scrubs clean and can serve restores on
        # its own quorum.
        assert system.servers[2].scrub() == []
        system.fail_cloud(0)
        assert client.download("/backup.tar") == data

    def test_noop_when_clean(self, loaded_system):
        system, _, _ = loaded_system
        assert system.scrub_and_repair(0) == 0

    def test_rebuilds_an_unreadable_recipe(self, loaded_system):
        """A cloud whose recipe container is gone gets the recipe rebuilt
        from the donors, and then serves restores from its own quorum."""
        system, client, data = loaded_system
        assert client.download("/backup.tar") == data  # offset tables cached
        target = system.servers[2]
        entry = target.get_file_entry("alice", client._lookup_key("/backup.tar"))
        system.clouds[2].backend.delete_object(entry.recipe_ref.container_id)
        assert system.scrub_and_repair(2) == 1  # one recipe, no share
        system.fail_cloud(0)
        assert client.download("/backup.tar") == data

    def test_gc_reclaims_replaced_copies(self, loaded_system):
        system, client, data = loaded_system
        backend = system.clouds[3].backend
        for key in backend.list_keys("container-"):
            backend.corrupt(key, offset=10, flips=2)
        system.scrub_and_repair(3)
        freed = system.servers[3].collect_garbage()
        assert freed > 0  # the corrupted original copies are swept
        system.fail_cloud(1)
        assert client.download("/backup.tar") == data


class TestMaintenanceReads:
    """Scrub and GC parse what is stored, once, and fail typed only."""

    @staticmethod
    def _share_container(backend) -> str:
        return next(
            cid
            for cid in backend.list_keys("container-")
            if backend.get_object(cid)[4] == KIND_SHARE
        )

    def test_a_programming_error_in_a_read_propagates(self, loaded_system, monkeypatch):
        """Only storage failures mean "container unreadable": a bug must
        not report every share corrupt or let GC sweep the container."""
        system, _, _ = loaded_system

        def broken(self, *args, **kwargs):
            raise RuntimeError("bug in the read path")

        monkeypatch.setattr(ContainerManager, "read_container", broken)
        with pytest.raises(RuntimeError):
            system.servers[0].scrub()
        with pytest.raises(RuntimeError):
            system.servers[0].collect_garbage()

    def test_unknown_kind_byte_reads_as_corrupt(self, loaded_system):
        system, _, _ = loaded_system
        backend = system.clouds[1].backend
        cid = self._share_container(backend)
        blob = bytearray(backend.get_object(cid))
        stored = {key for key, _ in Container.deserialize(bytes(blob)).entries}
        blob[4] = 9
        backend.put_object(cid, bytes(blob))
        assert set(system.servers[1].scrub()) == stored

    def test_gc_parses_each_container_once(self, monkeypatch):
        """Live shares of a swept container are copied out of the parse
        GC already made, not re-read one by one."""
        system = CDStoreSystem(n=4, k=3, salt=b"org")
        client = system.client("alice", chunker=FixedChunker(4096))
        keep = DRBG("keep").random_bytes(20_000)
        client.upload("/keep", keep)
        client.upload("/drop", DRBG("drop").random_bytes(20_000))
        client.flush()
        client.delete("/drop")
        server = system.servers[0]
        parse = Container.deserialize
        parsed: list[int] = []

        def counting(blob):
            parsed.append(len(blob))
            return parse(blob)

        monkeypatch.setattr(Container, "deserialize", staticmethod(counting))
        reads = server.cloud.backend.get_ops
        assert server.collect_garbage() > 0
        assert len(parsed) == server.cloud.backend.get_ops - reads > 0
        monkeypatch.undo()
        system.fail_cloud(3)
        assert client.download("/keep") == keep


class TestReplaceShare:
    def test_replace_validates_fingerprint(self, loaded_system):
        system, _, _ = loaded_system
        server = system.servers[0]
        from repro.server.index import PREFIX_SHARE

        key, _ = next(iter(server.index.items(PREFIX_SHARE)))
        fp = key[len(PREFIX_SHARE):]
        with pytest.raises(ProtocolError):
            server.replace_share(fp, b"wrong bytes")

    def test_replace_unknown_share_raises(self, loaded_system):
        system, _, _ = loaded_system
        with pytest.raises(NotFoundError):
            system.servers[0].replace_share(b"f" * 32, b"data")
