"""Write-ahead log: replay, torn-tail recovery, sync() as the durability point."""

import shutil

from repro.lsm.db import LSMStore
from repro.lsm.wal import OP_DELETE, OP_PUT, WriteAheadLog


class TestWal:
    def test_replay_round_trip(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append_put(b"k1", b"v1")
            wal.append_delete(b"k2")
            wal.append_put(b"k3", b"v3" * 100)
        records = list(WriteAheadLog(path).replay())
        assert records == [
            (OP_PUT, b"k1", b"v1"),
            (OP_DELETE, b"k2", b""),
            (OP_PUT, b"k3", b"v3" * 100),
        ]

    def test_missing_file_replays_nothing(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "new.log")
        wal.close()
        (tmp_path / "new.log").unlink()
        assert list(wal.replay()) == []

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append_put(b"good", b"1")
            wal.append_put(b"torn", b"2")
        # Truncate mid-record: crash during the second write.
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        records = list(WriteAheadLog(path).replay())
        assert records == [(OP_PUT, b"good", b"1")]

    def test_corrupt_crc_stops_replay(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append_put(b"a", b"1")
            wal.append_put(b"b", b"2")
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # corrupt last record's payload
        path.write_bytes(bytes(blob))
        records = list(WriteAheadLog(path).replay())
        assert records == [(OP_PUT, b"a", b"1")]

    def test_reset_truncates(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append_put(b"x", b"y")
        wal.reset()
        wal.append_put(b"z", b"w")
        wal.close()
        assert list(WriteAheadLog(path).replay()) == [(OP_PUT, b"z", b"w")]

    def test_append_after_close_raises(self, tmp_path):
        from repro.errors import StorageError
        import pytest

        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.close()
        with pytest.raises(StorageError):
            wal.append_put(b"k", b"v")


class TestSyncIsTheDurabilityPoint:
    """Everything ``sync()``ed is on disk, nothing torn is ever replayed —
    the ``ContainerJournal`` record/commit contract."""

    def test_synced_records_visible_to_a_second_reader(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        expected = []
        for batch in range(3):
            for i in range(40):
                key, value = f"k{batch}-{i}".encode(), bytes([i]) * (i * 7)
                wal.append_put(key, value)
                expected.append((OP_PUT, key, value))
            wal.append_delete(b"gone")
            expected.append((OP_DELETE, b"gone", b""))
            wal.sync()
            # Writer still open: a crash now must find the whole batch.
            assert list(WriteAheadLog(path).replay()) == expected
        wal.close()

    def test_unsynced_appends_replay_as_a_record_prefix(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        expected = []
        for i in range(2000):  # never synced
            wal.append_put(f"key-{i}".encode(), b"v" * 20)
            expected.append((OP_PUT, f"key-{i}".encode(), b"v" * 20))
        seen = list(WriteAheadLog(path).replay())
        assert seen == expected[: len(seen)]
        wal.close()

    def test_truncation_at_every_offset_of_last_record(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append_put(b"first", b"1" * 10)
            wal.append_delete(b"second")
        intact = path.stat().st_size
        with WriteAheadLog(path) as wal:
            wal.append_put(b"last", b"3" * 50)
        blob = path.read_bytes()
        prefix = [(OP_PUT, b"first", b"1" * 10), (OP_DELETE, b"second", b"")]
        for cut in range(intact, len(blob)):
            path.write_bytes(blob[:cut])
            assert list(WriteAheadLog(path).replay()) == prefix, cut
        path.write_bytes(blob)
        assert list(WriteAheadLog(path).replay()) == prefix + [
            (OP_PUT, b"last", b"3" * 50)
        ]

    def test_store_copied_after_sync_has_every_key(self, tmp_path):
        """kill -9 stand-in: copy the directory while the store is open."""
        db = LSMStore(tmp_path / "live")
        for i in range(500):
            db.put(f"key-{i:04d}".encode(), f"value-{i}".encode())
        db.delete(b"key-0007")
        db.sync()
        shutil.copytree(tmp_path / "live", tmp_path / "crashed")
        db.put(b"after-sync", b"unacked")  # may or may not survive; not asserted
        with LSMStore(tmp_path / "crashed") as recovered:
            for i in range(500):
                want = None if i == 7 else f"value-{i}".encode()
                assert recovered.get(f"key-{i:04d}".encode()) == want
        db.close()

    def test_appends_after_a_torn_tail_are_recovered(self, tmp_path):
        """Recovery cuts the torn record off, so what is synced afterwards
        is not hidden behind it at the next crash."""
        db = LSMStore(tmp_path / "live")
        db.put(b"acked", b"1")
        db.put(b"torn", b"2" * 100)
        db.sync()
        shutil.copytree(tmp_path / "live", tmp_path / "crash1")
        db.close()
        wal_path = tmp_path / "crash1" / "wal.log"
        wal_path.write_bytes(wal_path.read_bytes()[:-30])
        second = LSMStore(tmp_path / "crash1")
        assert second.get(b"acked") == b"1"
        assert second.get(b"torn") is None
        second.put(b"later", b"3")
        second.sync()
        shutil.copytree(tmp_path / "crash1", tmp_path / "crash2")
        second.close()
        with LSMStore(tmp_path / "crash2") as third:
            assert third.get(b"acked") == b"1"
            assert third.get(b"later") == b"3"

