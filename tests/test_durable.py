"""Crash-only file layer (``repro.storage.durable``): the CRC-framed
record log under the container journal and the index WAL, and the one
temp-fsync-rename publish every durable file goes through."""

import errno
import shutil
from pathlib import Path

import pytest

from repro.config import CONFIG_FILE_NAME, ReproConfig
from repro.errors import StorageError
from repro.storage.backend import MemoryBackend
from repro.storage.container import (
    KIND_RECIPE,
    KIND_SHARE,
    ContainerManager,
    ContainerRef,
)
from repro.storage.durable import RecordLog, publish
from repro.tenants import TENANTS_FILE_NAME, TenantRecord, TenantRegistry

JOURNAL_GOLDEN = Path(__file__).parent / "data" / "journal_golden.log"
_HEADER = 8  # u32 crc32 | u32 length


def replay(path: Path) -> list[bytes]:
    """The payloads a reader opening ``path`` now would recover."""
    with RecordLog(path) as log:
        return [payload for _, payload in log.records()]


class TestRecordLog:
    def test_synced_records_replay_in_order_with_their_end_offsets(self, tmp_path):
        path = tmp_path / "log"
        with RecordLog(path) as log:
            log.append(b"a")
            log.append(b"bc", b"", b"d")  # parts join into one payload
            log.append(b"")
            log.sync()
            ends = [end for end, _ in log.records()]
        assert replay(path) == [b"a", b"bcd", b""]
        assert ends == [_HEADER + 1, 2 * _HEADER + 4, 3 * _HEADER + 4]

    @pytest.mark.parametrize("size", [20, 20_000])
    def test_unsynced_appends_are_invisible_to_a_second_reader(self, tmp_path, size):
        """Nothing reaches the OS before sync(): not a record prefix, not
        a buffer spill — however far past a stdio buffer the staged
        records run."""
        path = tmp_path / "log"
        log = RecordLog(path)
        log.append(b"acked")
        log.sync()
        synced_size = path.stat().st_size
        for i in range(100):  # never synced
            log.append(bytes([i]) * size)
        assert path.stat().st_size == synced_size
        assert replay(path) == [b"acked"]
        log.close()
        assert replay(path) == [b"acked"]

    @pytest.mark.parametrize("records", [1, 3])
    def test_truncation_at_every_offset_of_the_last_sync(self, tmp_path, records):
        """A sync torn at any byte replays exactly the records it wrote
        whole, and nothing of the record it tore."""
        path = tmp_path / "log"
        with RecordLog(path) as log:
            log.append(b"first" * 2)
            log.sync()
        intact = path.stat().st_size
        batch = [b"last" * 12, b"", b"tail"][:records]
        with RecordLog(path) as log:
            for payload in batch:
                log.append(payload)
            log.sync()
        blob = path.read_bytes()
        ends = []
        for payload in batch:
            ends.append((ends[-1] if ends else intact) + _HEADER + len(payload))
        assert ends[-1] == len(blob)
        for cut in range(intact, len(blob) + 1):
            path.write_bytes(blob[:cut])
            whole = [payload for payload, end in zip(batch, ends) if end <= cut]
            assert replay(path) == [b"first" * 2] + whole, cut

    def test_one_write_per_sync(self, tmp_path, monkeypatch):
        """A commit hands the OS one buffer, however many records it holds."""
        path = tmp_path / "log"
        log = RecordLog(path)
        writes = []
        real_write = log._fh.write
        monkeypatch.setattr(
            log._fh, "write", lambda data: writes.append(len(data)) or real_write(data)
        )
        for i in range(500):
            log.append(f"k{i}".encode(), b"v" * 100)
        assert writes == []
        log.sync()
        assert len(writes) == 1
        log.sync()  # nothing staged: no write
        assert len(writes) == 1
        log.close()
        assert len(replay(path)) == 500

    @pytest.mark.parametrize("after_truncate", [False, True])
    def test_a_write_failing_partway_leaves_no_torn_record(
        self, tmp_path, monkeypatch, after_truncate
    ):
        """ENOSPC mid-write: the file is cut back and the records stay
        staged, so the retried sync — and every later one — replays."""
        path = tmp_path / "log"
        log = RecordLog(path)
        if after_truncate:
            log.append(b"dropped")
            log.sync()
            log.truncate(0)  # the next write must land at the cut
        log.append(b"a")
        log.sync()
        synced = path.stat().st_size
        real_write = log._fh.write

        def torn_write(data):
            real_write(bytes(data[: len(data) // 2]))
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(log._fh, "write", torn_write)
        log.append(b"b" * 100)
        with pytest.raises(OSError):
            log.sync()
        assert path.stat().st_size == synced
        monkeypatch.setattr(log._fh, "write", real_write)
        log.sync()
        log.append(b"c")
        log.sync()
        log.close()
        assert replay(path) == [b"a", b"b" * 100, b"c"]

    def test_truncate_cuts_the_file_and_drops_staged_records(self, tmp_path):
        path = tmp_path / "log"
        with RecordLog(path) as log:
            log.append(b"a")
            log.sync()
            keep = path.stat().st_size
            log.append(b"b")
            log.sync()
            log.append(b"staged")
            log.truncate(keep)
            log.sync()
            assert replay(path) == [b"a"]
            log.append(b"c")
            log.sync()
        assert replay(path) == [b"a", b"c"]

    def test_a_closed_log_raises(self, tmp_path):
        log = RecordLog(tmp_path / "log")
        log.close()
        with pytest.raises(StorageError):
            log.append(b"x")
        with pytest.raises(StorageError):
            log.sync()


class TestJournalGoldenLog:
    """``tests/data/journal_golden.log`` was written by the container
    journal's own writer before it moved onto :class:`RecordLog`: six
    appends into two containers (alice's shares, bob's recipes), then a
    seventh record cut 7 bytes short (a torn tail)."""

    APPENDS = [
        ("alice", KIND_SHARE, b"s\x01first", b"share-zero"),
        ("bob", KIND_RECIPE, b"recipe\x00key", bytes(range(256)) * 3),
        ("alice", KIND_SHARE, b"", b"empty-key"),
        ("alice", KIND_SHARE, b"s\x02big", bytes(range(251)) * 40),
        ("bob", KIND_RECIPE, b"r\x02", b""),
        ("alice", KIND_SHARE, b"s\x03last", b"\x00" * 32),
    ]
    INTACT_BYTES = 11185

    def entries(self, user: str) -> list[tuple[bytes, bytes]]:
        return [(key, payload) for owner, _, key, payload in self.APPENDS if owner == user]

    def test_replay_republishes_the_journaled_entries(self, tmp_path):
        path = tmp_path / "container-journal.log"
        shutil.copy(JOURNAL_GOLDEN, path)
        sealed = []
        with RecordLog(path) as journal:
            manager = ContainerManager(
                MemoryBackend(),
                journal=journal,
                on_seal=lambda user, cid, _: sealed.append((user, cid)),
            )
            shares, recipes = "container-0000000000", "container-0000000001"
            assert manager.recovered_containers == [shares, recipes]
            assert sealed == [("alice", shares), ("bob", recipes)]
            for cid, user, kind in ((shares, "alice", KIND_SHARE), (recipes, "bob", KIND_RECIPE)):
                want = self.entries(user)
                refs = [ContainerRef(cid, index) for index in range(len(want))]
                assert manager.read_entries(refs) == want
                assert manager.read_container(cid).kind == kind
        assert path.stat().st_size == 0  # recovery leaves no journal behind

    def test_the_manager_journals_the_same_bytes(self, tmp_path):
        path = tmp_path / "container-journal.log"
        with RecordLog(path) as journal:
            manager = ContainerManager(MemoryBackend(), journal=journal)
            for user, kind, key, payload in self.APPENDS:
                manager.append(user, kind, key, payload)
            manager.commit()
        assert path.read_bytes() == JOURNAL_GOLDEN.read_bytes()[: self.INTACT_BYTES]


class TestPublish:
    def test_the_new_file_appears_whole_on_exit(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"old")
        with publish(path) as fh:
            fh.write(b"new")
            assert path.read_bytes() == b"old"
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["f"]

    def test_a_failed_publish_keeps_the_old_file_and_no_temporary(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with publish(path) as fh:
                fh.write(b"half")
                raise RuntimeError("died mid-write")
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["f"]

    @pytest.mark.parametrize("name", [TENANTS_FILE_NAME, CONFIG_FILE_NAME])
    def test_a_failed_rewrite_leaves_the_previous_file_loadable(
        self, tmp_path, file_size_limit, name
    ):
        """The rewrite dies on a real EFBIG halfway through its bytes (as
        on a full disk); the file it was replacing still loads as it was."""
        if name == TENANTS_FILE_NAME:
            cls = TenantRegistry
            old, new = TenantRegistry(), TenantRegistry()
            old.add(TenantRecord("alice", b"alice-secret"))
            for i in range(40):
                new.add(TenantRecord(f"tenant-{i:03d}", f"secret-{i}".encode()))
        else:
            cls = ReproConfig
            old, new = ReproConfig(salt="old"), ReproConfig(salt="new" * 1000)
        path = tmp_path / name
        old.to_file(path)
        before = path.read_bytes()
        new.to_file(tmp_path / "probe")
        half = (tmp_path / "probe").stat().st_size // 2
        with file_size_limit(half):
            with pytest.raises(OSError):
                new.to_file(path)
        assert path.read_bytes() == before
        cls.from_file(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([name, "probe"])
