"""LSM store: dict-equivalence, flush/compaction, recovery, snapshots."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.lsm.db import LSMStore
from repro.lsm.memtable import TOMBSTONE, MemTable


class TestMemTable:
    def test_put_get_delete(self):
        mem = MemTable()
        mem.put(b"a", b"1")
        assert mem.get(b"a") == b"1"
        mem.delete(b"a")
        assert mem.get(b"a") is TOMBSTONE
        assert mem.get(b"other") is None

    def test_byte_accounting(self):
        mem = MemTable()
        mem.put(b"key", b"value")
        assert mem.approximate_bytes == 8
        mem.put(b"key", b"v")
        assert mem.approximate_bytes == 4
        mem.delete(b"key")
        assert mem.approximate_bytes == 3

    def test_sorted_items(self):
        mem = MemTable()
        for key in (b"c", b"a", b"b"):
            mem.put(key, key)
        assert [k for k, _ in mem.sorted_items()] == [b"a", b"b", b"c"]


class TestLSMStore:
    def test_basic_crud(self, tmp_path):
        with LSMStore(tmp_path) as db:
            db.put(b"k", b"v")
            assert db.get(b"k") == b"v"
            assert b"k" in db
            db.delete(b"k")
            assert db.get(b"k") is None
            assert b"k" not in db

    @settings(max_examples=15, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([b"put", b"del"]),
                st.binary(min_size=1, max_size=8),
                st.binary(max_size=16),
            ),
            max_size=60,
        )
    )
    # Three SSTables (and a memtable) deep: deletes and overwrites land in
    # newer tables than the puts they mask.
    @example(
        [(b"put", b"key%05d" % i, b"v" * 16) for i in range(24)]
        + [(b"del", b"key%05d" % i, b"") for i in range(0, 24, 3)]
        + [(b"put", b"key%05d" % i, b"w" * 16) for i in range(1, 24, 4)]
    )
    def test_dict_equivalence(self, tmp_path, ops):
        """Random op sequences must match a plain dict, across flushes —
        including gets of deleted and never-written keys."""
        import shutil, uuid

        directory = tmp_path / uuid.uuid4().hex
        reference: dict[bytes, bytes] = {}
        with LSMStore(directory, memtable_bytes=200) as db:
            for op, key, value in ops:
                if op == b"put":
                    db.put(key, value)
                    reference[key] = value
                else:
                    db.delete(key)
                    reference.pop(key, None)
            for key, value in reference.items():
                assert db.get(key) == value
            written = {key for _, key, _ in ops}
            for key in written - reference.keys():
                assert db.get(key) is None
            for probe in {b"\xff" * 9} | {key + b"\x00" for key in written}:
                if probe not in written:
                    assert db.get(probe) is None
            assert dict(db.items()) == reference
        shutil.rmtree(directory)

    def test_flush_creates_sstables(self, tmp_path):
        with LSMStore(tmp_path, memtable_bytes=1 << 20) as db:
            for i in range(100):
                db.put(f"k{i}".encode(), b"v" * 10)
            assert db.table_count == 0
            db.flush()
            assert db.table_count == 1
            assert db.get(b"k42") == b"v" * 10

    def test_automatic_flush_on_threshold(self, tmp_path):
        """The memtable flushes at the sync() boundary, never inside put()."""
        with LSMStore(tmp_path, memtable_bytes=500) as db:
            for i in range(100):
                db.put(f"key{i:04d}".encode(), b"x" * 20)
            assert db.table_count == 0
            db.sync()
            assert db.table_count == 1
            assert db.get(b"key0042") == b"x" * 20

    def test_newest_table_wins(self, tmp_path):
        with LSMStore(tmp_path) as db:
            db.put(b"k", b"old")
            db.flush()
            db.put(b"k", b"new")
            db.flush()
            assert db.get(b"k") == b"new"

    def test_tombstone_masks_older_sstable(self, tmp_path):
        with LSMStore(tmp_path) as db:
            db.put(b"k", b"v")
            db.flush()
            db.delete(b"k")
            db.flush()
            assert db.get(b"k") is None
            assert b"k" not in dict(db.items())

    def test_compaction_drops_tombstones(self, tmp_path):
        with LSMStore(tmp_path) as db:
            for i in range(20):
                db.put(f"k{i}".encode(), b"v")
            db.flush()
            for i in range(0, 20, 2):
                db.delete(f"k{i}".encode())
            db.flush()
            db.compact()
            assert db.table_count == 1
            expected = {f"k{i}".encode(): b"v" for i in range(1, 20, 2)}
            assert dict(db.items()) == expected

    def test_auto_compaction_at_threshold(self, tmp_path):
        with LSMStore(tmp_path, memtable_bytes=100, compact_at=3) as db:
            for i in range(200):
                db.put(f"key{i:05d}".encode(), b"x" * 10)
            assert db.table_count < 8

    def test_reopen_recovers_everything(self, tmp_path):
        with LSMStore(tmp_path, memtable_bytes=300) as db:
            for i in range(50):
                db.put(f"k{i}".encode(), f"v{i}".encode())
        with LSMStore(tmp_path) as db2:
            for i in range(50):
                assert db2.get(f"k{i}".encode()) == f"v{i}".encode()

    def test_crash_recovery_via_wal(self, tmp_path):
        db = LSMStore(tmp_path)
        db.put(b"durable", b"yes")
        db.sync()
        db.put(b"unacked", b"lost")
        db._wal.close()  # crash before flush
        recovered = LSMStore(tmp_path)
        assert recovered.get(b"durable") == b"yes"
        assert recovered.get(b"unacked") is None
        recovered.close()

    def test_torn_table_temp_is_reaped_and_wal_still_serves(self, tmp_path):
        """A flush that dies before its rename leaves ``sst-*.db.tmp``:
        boot removes it, never loads it, and the WAL has every key."""
        db = LSMStore(tmp_path)
        for i in range(50):
            db.put(f"k{i}".encode(), f"v{i}".encode())
        db.sync()
        db._wal.close()  # crash
        torn = tmp_path / "sst-00000000.db.tmp"
        torn.write_bytes(b"half a block, no footer")

        recovered = LSMStore(tmp_path)
        assert not torn.exists()
        assert recovered.table_count == 0
        for i in range(50):
            assert recovered.get(f"k{i}".encode()) == f"v{i}".encode()
        recovered.flush()  # the reaped id is free to publish under
        assert [p.name for p in tmp_path.glob("sst-*")] == ["sst-00000000.db"]
        recovered.close()

    def test_flush_that_fails_to_publish_keeps_the_wal(self, tmp_path, monkeypatch):
        db = LSMStore(tmp_path)
        db.put(b"durable", b"yes")
        db.sync()

        def no_rename(src, dst):
            raise OSError("injected crash at the rename")

        monkeypatch.setattr("repro.storage.durable.os.replace", no_rename)
        with pytest.raises(OSError, match="injected"):
            db.flush()
        monkeypatch.undo()
        db._wal.close()  # crash
        assert not list(tmp_path.glob("sst-*.db"))  # nothing half-published

        recovered = LSMStore(tmp_path)
        assert recovered.get(b"durable") == b"yes"
        assert not list(tmp_path.glob("*.tmp"))
        recovered.close()

    def test_snapshot(self, tmp_path):
        with LSMStore(tmp_path / "db") as db:
            db.put(b"a", b"1")
            db.snapshot(tmp_path / "snap")
            db.put(b"b", b"2")
        files = list((tmp_path / "snap").glob("sst-*.db"))
        assert files, "snapshot must contain SSTables"

    def test_operations_after_close_raise(self, tmp_path):
        db = LSMStore(tmp_path)
        db.close()
        with pytest.raises(StorageError):
            db.put(b"k", b"v")
        with pytest.raises(StorageError):
            db.get(b"k")

    def test_len(self, tmp_path):
        with LSMStore(tmp_path) as db:
            db.put(b"a", b"1")
            db.put(b"b", b"2")
            db.delete(b"a")
            assert len(db) == 1

    def test_small_block_cache_never_holds_more_than_its_bytes(self, tmp_path):
        """The cache holds decoded blocks charged at their footprint —
        more than their raw bytes — and stays within ``block_cache_bytes``."""
        cap = 64 << 10
        value = lambda i: bytes([i % 256]) * 40  # noqa: E731
        with LSMStore(tmp_path, memtable_bytes=1 << 30, block_cache_bytes=cap) as db:
            for i in range(3000):
                db.put(f"key{i:05d}".encode(), value(i))
            db.flush()
            table = db._tables[0]
            cache = db.block_cache
            for i in [*range(0, 3000, 7), *range(2999, 0, -11)]:
                assert db.get(f"key{i:05d}".encode()) == value(i)
                blocks = list(cache._data.values())
                assert cache.size == sum(block.charge for block in blocks) <= cap
            assert 1 < len(cache) < len(table._index)
            assert all(block.charge > 4096 for block in blocks)  # raw ≈ 4 KiB


class TestRangeScan:
    """Bounded items() scans: prefix bounds pushed into the LSM iterator."""

    def test_prefix_upper_bound(self):
        from repro.lsm.db import prefix_upper_bound

        assert prefix_upper_bound(b"abc") == b"abd"
        assert prefix_upper_bound(b"a\xff") == b"b"
        assert prefix_upper_bound(b"\xff\xff") is None
        assert prefix_upper_bound(b"") is None

    def test_bounded_scan_merges_memtable_and_sstables(self, tmp_path):
        with LSMStore(tmp_path) as db:
            for i in range(50):
                db.put(f"a{i:03d}".encode(), b"old")
            db.flush()
            for i in range(0, 50, 2):
                db.put(f"a{i:03d}".encode(), b"new")  # overwrite in memtable
            db.delete(b"a001")
            db.put(b"b000", b"other-prefix")
            got = dict(db.items(lower=b"a", upper=b"b"))
            assert b"b000" not in got
            assert b"a001" not in got
            assert got[b"a000"] == b"new"
            assert got[b"a003"] == b"old"
            assert len(got) == 49
            # Unbounded scan still sees everything.
            assert len(dict(db.items())) == 50

    def test_bounded_scan_matches_filtered_full_scan(self, tmp_path):
        with LSMStore(tmp_path, memtable_bytes=1 << 10) as db:
            for i in range(300):
                db.put(f"k{i:04d}".encode(), bytes([i % 256]) * 8)
            lower, upper = b"k0100", b"k0200"
            expect = [
                (k, v) for k, v in db.items() if lower <= k < upper
            ]
            assert list(db.items(lower=lower, upper=upper)) == expect
            assert len(expect) == 100

    def test_bounded_scan_skips_blocks(self, tmp_path, monkeypatch):
        from repro.lsm.sstable import SSTable

        with LSMStore(tmp_path, memtable_bytes=1 << 30) as db:
            for i in range(2000):
                db.put(f"k{i:05d}".encode(), b"v" * 40)
            db.flush()
            reads = []
            original = SSTable.scan_block

            def counting(self, block, blob):
                reads.append(block)
                return original(self, block, blob)

            monkeypatch.setattr(SSTable, "scan_block", counting)
            list(db.items())
            full_reads = len(reads)
            reads.clear()
            narrow = list(db.items(lower=b"k00100", upper=b"k00200"))
            assert len(narrow) == 100
            assert len(reads) < full_reads / 4

    def test_lsm_index_prefix_scan(self, tmp_path):
        from repro.server.index import LSMIndex

        index = LSMIndex(tmp_path / "idx")
        index.put(b"f:one", b"1")
        index.put(b"f:two", b"2")
        index.put(b"s:xyz", b"3")
        index.put(b"u:abc", b"4")
        assert dict(index.items(b"f:")) == {b"f:one": b"1", b"f:two": b"2"}
        assert dict(index.items(b"s:")) == {b"s:xyz": b"3"}
        assert len(dict(index.items())) == 4
        index.close()
