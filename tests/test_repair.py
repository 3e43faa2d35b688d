"""Cloud repair and scrub-repair: one rebuild path (§3.1, §3.2).

Both rebuilds read the surviving clouds through the client's windowed
restore session — spare failover and §3.2 share-pool widening included —
re-encode each decoded window, and hand share ``index`` to the target:
``repair_cloud`` through the windowed uploader, ``scrub_and_repair``
through ``replace_share``.  These tests pin what that buys: a corrupt
donor no longer stops a repair, the target sees one dedup query and one
upload per 4 MB window, and the rebuilt cloud (pathname shares included)
equals the one that was lost.
"""

from __future__ import annotations

import pytest

from repro.chunking import FixedChunker
from repro.crypto.drbg import DRBG
from repro.errors import IntegrityError
from repro.server.index import FileEntry
from repro.sharing.ssss import SSSS
from repro.storage.container import KIND_SHARE, Container
from repro.system.cdstore import CDStoreSystem


#: The inline reference schedule, and the pipelined one whose per-cloud
#: workers fetch the donors' windows while the caller re-encodes.
SCHEDULES = [{}, {"threads": 2, "pipeline_depth": 2}]


def loaded(n: int, k: int, size: int = 60_000, paths=("/backup.tar",), **schedule):
    system = CDStoreSystem(n=n, k=k, salt=b"org", **schedule)
    client = system.client("alice", chunker=FixedChunker(4096))
    files = {path: DRBG(f"repair{path}").random_bytes(size) for path in paths}
    for path, data in files.items():
        client.upload(path, data)
    client.flush()
    return system, client, files


def corrupt_containers(system, cloud: int, shares_only: bool) -> None:
    """Flip one byte inside every entry stored on cloud ``cloud`` (or
    inside every share, leaving its recipes intact): the containers
    still parse, but the bytes they hand out are wrong."""
    backend = system.clouds[cloud].backend
    for key in backend.list_keys("container-"):
        blob = bytearray(backend.get_object(key))
        if shares_only and blob[4] != KIND_SHARE:
            continue
        for _, payload in Container.deserialize(bytes(blob)).entries:
            blob[blob.find(payload) + len(payload) // 2] ^= 0x01
        backend.put_object(key, bytes(blob))


def objects(system, cloud: int) -> dict[str, bytes]:
    backend = system.clouds[cloud].backend
    return {key: backend.get_object(key) for key in backend.list_keys()}


def restores_with_quorum(system, client, files, quorum) -> bool:
    down = [i for i in range(system.n) if i not in quorum]
    for i in down:
        system.fail_cloud(i)
    try:
        return all(client.download(path) == data for path, data in files.items())
    finally:
        for i in down:
            system.recover_cloud(i)


class TestRepairReproducesTheLostCloud:
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=["inline", "pipelined"])
    def test_backend_objects_equal_the_lost_ones(self, schedule):
        system, _, _ = loaded(4, 3, **schedule)
        lost = objects(system, 1)
        system.wipe_cloud(1)
        assert objects(system, 1) == {}
        assert system.repair_cloud(1) > 0
        assert objects(system, 1) == lost

    def test_file_entries_equal_the_lost_ones(self):
        """Path shares included: the repaired entry holds share 1 of the
        sharing the other clouds hold, not of a fresh one."""
        system, _, _ = loaded(4, 3)
        lost = sorted(system.servers[1].list_files("alice"))
        system.wipe_cloud(1)
        system.repair_cloud(1)
        assert sorted(system.servers[1].list_files("alice")) == lost

    def test_list_files_names_the_file_with_the_repaired_cloud_in_the_quorum(self):
        system, client, files = loaded(4, 3, paths=("/a", "/docs/b.tar"))
        system.wipe_cloud(1)
        system.repair_cloud(1)
        system.fail_cloud(0)  # quorum {1, 2, 3}
        assert client.list_files() == ["/a", "/docs/b.tar"]
        assert restores_with_quorum(system, client, files, {1, 2, 3})


class TestListFilesFailsTyped:
    def test_a_non_utf8_pathname_raises_integrity_error(self):
        system, client, _ = loaded(4, 3)
        lookup_key = client._lookup_key("/backup.tar")
        shares = SSSS(4, 3).split(b"\xff\xfe").shares
        for i in range(3):
            server = system.servers[i]
            key = server._file_key("alice", lookup_key)
            entry = FileEntry.unpack(server.index.get(key))
            entry.path_share = shares[i]
            server.index.put(key, entry.pack())
        with pytest.raises(IntegrityError, match=lookup_key.hex()[:16]):
            client.list_files()


class TestCorruptDonor:
    """n=5, k=3: a corrupt donor is routed around as a restore would."""

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=["inline", "pipelined"])
    @pytest.mark.parametrize("shares_only", [True, False], ids=["shares", "all"])
    def test_repair_cloud_succeeds(self, shares_only, schedule):
        system, client, files = loaded(5, 3, **schedule)
        system.wipe_cloud(0)
        corrupt_containers(system, 1, shares_only)
        assert system.repair_cloud(0) > 0
        assert restores_with_quorum(system, client, files, {0, 2, 3})

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=["inline", "pipelined"])
    def test_scrub_and_repair_heals(self, schedule):
        system, client, files = loaded(5, 3, **schedule)
        corrupt_containers(system, 2, shares_only=True)
        corrupt_containers(system, 0, shares_only=True)  # the first donor
        assert system.scrub_and_repair(2) > 0
        assert system.servers[2].scrub() == []
        assert restores_with_quorum(system, client, files, {1, 2, 3})


class _Counting:
    """Count calls to ``names`` on one server instance."""

    def __init__(self, server, *names: str) -> None:
        self.calls = dict.fromkeys(names, 0)
        for name in names:
            method = getattr(server, name)

            def counted(*args, _name=name, _method=method, **kwargs):
                self.calls[_name] += 1
                return _method(*args, **kwargs)

            setattr(server, name, counted)


class TestRpcShape:
    def test_repair_uploads_per_window_not_per_share(self):
        """1 MiB of 4 KiB chunks: 256 shares, well under one 4 MB window,
        so one dedup query and one upload reach the target."""
        system, client, files = loaded(4, 3, size=1 << 20)
        system.wipe_cloud(0)
        target = _Counting(system.servers[0], "query_duplicates", "upload_shares")
        assert system.repair_cloud(0) == 256
        assert target.calls == {"query_duplicates": 1, "upload_shares": 1}
        assert restores_with_quorum(system, client, files, {0, 1, 2})

    def test_scrub_repair_fetches_per_window_not_per_secret(self):
        system, client, files = loaded(4, 3)
        corrupt_containers(system, 2, shares_only=True)
        donors = [_Counting(system.servers[i], "fetch_shares") for i in (0, 1, 3)]
        assert system.scrub_and_repair(2) == 15  # every share of the file
        # One window, read from the k donors the session chose.
        assert sum(d.calls["fetch_shares"] for d in donors) == 3
        assert system.servers[2].scrub() == []
