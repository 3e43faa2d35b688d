"""Write-ahead log: one batch record per sync(), all-or-nothing replay,
torn-tail recovery, and the pre-batch log format."""

import shutil
from pathlib import Path

from repro.lsm.db import LSMStore
from repro.lsm.wal import OP_BATCH, OP_DELETE, OP_PUT, WriteAheadLog

GOLDEN = Path(__file__).parent / "data" / "wal_golden.log"


class TestWal:
    def test_replay_round_trip(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append_put(b"k1", b"v1")
            wal.append_delete(b"k2")
            wal.append_put(b"k3", b"v3" * 100)
            wal.sync()
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
            wal.sync()
            wal.append_put(b"torn", b"2")
            wal.sync()
        # Truncate mid-record: crash during the second commit's write.
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        records = list(WriteAheadLog(path).replay())
        assert records == [(OP_PUT, b"good", b"1")]

    def test_corrupt_crc_stops_replay(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append_put(b"a", b"1")
            wal.sync()
            wal.append_put(b"b", b"2")
            wal.sync()
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # corrupt last record's payload
        path.write_bytes(bytes(blob))
        records = list(WriteAheadLog(path).replay())
        assert records == [(OP_PUT, b"a", b"1")]

    def test_reset_truncates(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append_put(b"x", b"y")
        wal.sync()
        wal.append_put(b"unsynced", b"dropped-by-reset")
        wal.reset()
        wal.append_put(b"z", b"w")
        wal.sync()
        wal.close()
        assert list(WriteAheadLog(path).replay()) == [(OP_PUT, b"z", b"w")]

    def test_append_after_close_raises(self, tmp_path):
        from repro.errors import StorageError
        import pytest

        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.close()
        with pytest.raises(StorageError):
            wal.append_put(b"k", b"v")

    def test_malformed_batch_stops_replay(self, tmp_path):
        """A record whose CRC holds but whose batch does not parse is
        treated like a torn tail: nothing from it, nothing after it."""
        import struct
        import zlib

        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append_put(b"a", b"1")
            wal.sync()
        # Batch header claims two mutations, body holds one.
        body = struct.pack(">BI", OP_BATCH, 2) + struct.pack(">BI", OP_PUT, 1) + b"b"
        body += struct.pack(">I", 1) + b"2"
        with open(path, "ab") as fh:
            fh.write(struct.pack(">II", zlib.crc32(body), len(body)) + body)
        with WriteAheadLog(path) as wal:
            wal.append_put(b"c", b"3")
            wal.sync()
        assert list(WriteAheadLog(path).replay()) == [(OP_PUT, b"a", b"1")]


class TestGoldenLog:
    """``tests/data/wal_golden.log`` was written by the per-record WAL that
    predates batching: seven op-1/op-2 records and an eighth cut 11 bytes
    short (a torn tail).  Logs like it must replay exactly as they did."""

    EXPECTED = [
        (OP_PUT, b"s\x01share", b"entry-one"),
        (OP_PUT, b"u\x02intra", b"\x00" * 32),
        (OP_DELETE, b"f\x03gone", b""),
        (OP_PUT, b"", b"empty-key"),
        (OP_PUT, b"q\x04tenant", b""),
        (OP_PUT, b"s\x05big", bytes(range(256)) * 3),
        (OP_DELETE, b"s\x01share", b""),
    ]
    INTACT_BYTES = 949

    def test_replay_matches_the_per_record_writer(self, tmp_path):
        path = tmp_path / "wal.log"
        shutil.copy(GOLDEN, path)
        assert list(WriteAheadLog(path).replay()) == self.EXPECTED

    def test_recover_truncates_the_torn_tail_then_batches_append(self, tmp_path):
        path = tmp_path / "wal.log"
        shutil.copy(GOLDEN, path)
        wal = WriteAheadLog(path)
        assert list(wal.recover()) == self.EXPECTED
        assert path.stat().st_size == self.INTACT_BYTES
        wal.append_put(b"after", b"upgrade")
        wal.append_delete(b"s\x05big")
        wal.sync()
        wal.close()
        assert list(WriteAheadLog(path).replay()) == self.EXPECTED + [
            (OP_PUT, b"after", b"upgrade"),
            (OP_DELETE, b"s\x05big", b""),
        ]

    def test_store_opens_a_pre_batch_log(self, tmp_path):
        shutil.copy(GOLDEN, tmp_path / "wal.log")
        with LSMStore(tmp_path) as db:
            assert db.get(b"s\x01share") is None
            assert db.get(b"u\x02intra") == b"\x00" * 32
            assert db.get(b"") == b"empty-key"
            assert db.get(b"q\x04tenant") == b""
            assert db.get(b"s\x05big") == bytes(range(256)) * 3
            assert db.get(b"torn") is None


class TestSyncIsTheDurabilityPoint:
    """Everything ``sync()``ed is on disk, nothing torn is ever replayed.
    The log-level cases of this contract (torn writes, one write per
    sync, nothing visible before it) are ``tests/test_durable.py``'s:
    the WAL and the container journal share that log."""

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
        db.sync()
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

