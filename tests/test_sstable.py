"""SSTable files: write/read, tombstones, bloom and block index."""

import struct
from pathlib import Path

import pytest

from repro.errors import StorageError
from repro.lsm.cache import LRUCache
from repro.lsm.memtable import TOMBSTONE
from repro.lsm.sstable import SSTable


def write_table(tmp_path, items, **kwargs):
    return SSTable.write(tmp_path / "t.db", iter(items), **kwargs)


class TestSSTable:
    def test_point_lookups(self, tmp_path):
        items = [(f"key{i:03d}".encode(), f"val{i}".encode()) for i in range(200)]
        table = write_table(tmp_path, items)
        for key, value in items:
            assert table.get(key) == value

    def test_missing_key_returns_none(self, tmp_path):
        table = write_table(tmp_path, [(b"a", b"1")])
        assert table.get(b"zzz") is None
        assert table.get(b"0") is None  # below first key

    def test_tombstones_survive(self, tmp_path):
        table = write_table(tmp_path, [(b"alive", b"1"), (b"dead", TOMBSTONE)])
        assert table.get(b"alive") == b"1"
        assert table.get(b"dead") is TOMBSTONE

    def test_items_in_order(self, tmp_path):
        items = [(f"{i:04d}".encode(), b"v") for i in range(50)]
        table = write_table(tmp_path, items)
        assert [k for k, _ in table.items()] == [k for k, _ in items]

    def test_multiple_blocks(self, tmp_path):
        items = [(f"key{i:05d}".encode(), b"x" * 100) for i in range(100)]
        table = write_table(tmp_path, items, block_size=512)
        assert len(table._index) > 1
        for key, value in items:
            assert table.get(key) == value

    def test_block_cache_used(self, tmp_path):
        items = [(f"key{i:03d}".encode(), b"v") for i in range(100)]
        table = write_table(tmp_path, items, block_size=256)
        cache = LRUCache(1 << 20, size_of=len)
        table.get(b"key000", block_cache=cache)
        table.get(b"key000", block_cache=cache)
        assert cache.hits >= 1

    def test_bloom_short_circuits(self, tmp_path):
        table = write_table(tmp_path, [(b"present", b"1")])
        # A key not in the bloom must return None without block reads.
        assert table.get(b"definitely-absent-key") is None

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "junk.db"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(StorageError):
            SSTable(path)

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "tiny.db"
        path.write_bytes(b"ab")
        with pytest.raises(StorageError):
            SSTable(path)

    def test_empty_table(self, tmp_path):
        table = write_table(tmp_path, [])
        assert table.get(b"anything") is None
        assert list(table.items()) == []

    def test_reopen_from_disk(self, tmp_path):
        items = [(b"k1", b"v1"), (b"k2", b"v2")]
        write_table(tmp_path, items)
        reopened = SSTable(tmp_path / "t.db")
        assert reopened.get(b"k1") == b"v1"
        assert reopened.get(b"k2") == b"v2"


GOLDEN = Path(__file__).parent / "data" / "sstable_golden.db"


def golden_items():
    """The records of ``tests/data/sstable_golden.db``, written at block
    size 512 (16 blocks) by the reader before decoded-block caching:
    tombstones, empty values and values of 2..40 bytes."""
    items = []
    for i in range(240):
        if i % 11 == 5:
            value = TOMBSTONE
        elif i % 13 == 0:
            value = b""
        else:
            value = bytes((i * 31 + j) % 256 for j in range(i % 40 + 1))
        items.append((b"key-%05d" % (i * 7), value))
    return items


class TestGoldenTable:
    """A table written before this reader existed reads the same, and the
    writer still produces it byte for byte — bloom bits included."""

    def test_reads_match_the_writer_that_made_it(self):
        table = SSTable(GOLDEN)
        items = golden_items()
        assert len(table._index) == 16
        assert list(table.items()) == items
        cache = LRUCache(1 << 20, size_of=len)
        for key, value in items:
            assert table.get(key) == value
            assert table.get(key, block_cache=cache) == value
            for absent in (key + b"\x00", key[:-1], b"key-%05d" % (int(key[4:]) + 1)):
                assert table.get(absent, block_cache=cache) is None
        assert table.get(b"") is None and table.get(b"\xff") is None

    def test_rewrite_is_byte_identical(self, tmp_path):
        write_table(tmp_path, golden_items(), block_size=512)
        assert (tmp_path / "t.db").read_bytes() == GOLDEN.read_bytes()


def corrupt(path, offset, patch):
    blob = bytearray(path.read_bytes())
    blob[offset : offset + len(patch)] = patch
    path.write_bytes(bytes(blob))


def footer(path):
    return struct.unpack(">QQQQ8s", path.read_bytes()[-40:])


class TestCorruptTable:
    """Format v1 has no block checksum; what the layout pins down is
    checked, and a violation is a StorageError naming the file — never a
    silent wrong answer, never a ParameterError out of a server boot."""

    ITEMS = [(f"key{i:04d}".encode(), f"value-{i}".encode()) for i in range(300)]

    def _table(self, tmp_path):
        write_table(tmp_path, self.ITEMS)
        return tmp_path / "t.db"

    def _every_get_is_right_or_refused(self, table):
        refused = 0
        for key, value in self.ITEMS:
            try:
                assert table.get(key) == value
            except StorageError as exc:
                assert "t.db" in str(exc)
                refused += 1
        return refused

    @pytest.mark.parametrize("keylen", [0, 6, 8, 200, 0xFFFFFFFF])
    def test_first_record_key_length(self, tmp_path, keylen):
        path = self._table(tmp_path)
        corrupt(path, 0, struct.pack(">I", keylen))
        table = SSTable(path)
        with pytest.raises(StorageError):
            table.get(b"key0000")
        assert self._every_get_is_right_or_refused(table) > 0
        with pytest.raises(StorageError):
            list(table.items())

    def test_keys_out_of_order_in_a_block(self, tmp_path):
        path = self._table(tmp_path)
        rec = 8 + 7 + 7  # key0000 / value-0
        corrupt(path, rec + 8, b"key0000")  # second record repeats the first key
        table = SSTable(path)
        assert self._every_get_is_right_or_refused(table) > 0
        with pytest.raises(StorageError, match="ascend"):
            table.get(b"key0001")

    def test_block_reaching_into_the_next(self, tmp_path):
        path = self._table(tmp_path)
        table = SSTable(path)
        assert len(table._index) == 2
        _, off, length = table._index[0]
        last = path.read_bytes()[off : off + length].rindex(b"key")
        corrupt(path, off + last, b"key9")  # still ascends inside block 0
        with pytest.raises(StorageError, match="next block"):
            SSTable(path).get(b"key0001")

    def test_bloom_header(self, tmp_path):
        path = self._table(tmp_path)
        _, _, bloom_off, _, _ = footer(path)
        corrupt(path, bloom_off, struct.pack(">Q", 0))  # capacity 0
        with pytest.raises(StorageError, match="t.db"):
            SSTable(path)

    def test_sparse_index_span(self, tmp_path):
        path = self._table(tmp_path)
        idx_off, _, _, _, _ = footer(path)
        entry = struct.unpack(">IQQ", path.read_bytes()[idx_off : idx_off + 20])
        corrupt(path, idx_off + 12, struct.pack(">Q", entry[2] + 1))  # block 0 length
        with pytest.raises(StorageError, match="sparse index"):
            SSTable(path)

    def test_footer_index_length(self, tmp_path):
        path = self._table(tmp_path)
        idx_off, idx_len, bloom_off, bloom_len, magic = footer(path)
        size = path.stat().st_size
        corrupt(path, size - 40, struct.pack(">QQQQ", idx_off, idx_len - 3, bloom_off, bloom_len))
        with pytest.raises(StorageError):
            SSTable(path)
        corrupt(path, size - 40, struct.pack(">QQQQ", idx_off, idx_len - 3, bloom_off - 3, bloom_len + 3))
        with pytest.raises(StorageError):
            SSTable(path)


class TestBlockReads:
    def test_a_block_is_read_and_decoded_once(self, tmp_path):
        from repro.obs.registry import REGISTRY

        def block_reads():
            return sum(REGISTRY.snapshot()["counters"].get("lsm_block_reads_total", {}).values())

        items = [(f"key{i:03d}".encode(), b"v" * 20) for i in range(200)]
        table = write_table(tmp_path, items, block_size=256)
        cache = LRUCache(1 << 20, size_of=len)
        before = block_reads()
        for key, value in items * 2:
            assert table.get(key, block_cache=cache) == value
        assert block_reads() - before == len(table._index) == len(cache)
        assert cache.hits == 2 * len(items) - len(table._index)

    def test_a_range_scan_opens_the_file_once(self, tmp_path, monkeypatch):
        import builtins

        items = [(f"key{i:03d}".encode(), b"v" * 20) for i in range(200)]
        table = write_table(tmp_path, items, block_size=256)
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return builtins.open(*args, **kwargs)

        monkeypatch.setattr("repro.lsm.sstable.open", counting_open, raising=False)
        assert list(table.items()) == items
        assert list(table.items_range(b"key050", b"key150")) == items[50:150]
        assert len(opened) == 2 and len(table._index) > 10


class TestCacheFirstGet:
    """A point read asks the block cache before the bloom filter."""

    @staticmethod
    def bloom_first_get(table, key):
        """The read order before the cache went first: bloom, bisect, block."""
        from bisect import bisect_right

        if key not in table.bloom:
            return None
        block = bisect_right(table._first_keys, key) - 1
        return None if block < 0 else table._decode(block).get(key)

    @staticmethod
    def block_reads():
        from repro.obs.registry import REGISTRY

        return sum(REGISTRY.snapshot()["counters"].get("lsm_block_reads_total", {}).values())

    def tables(self, tmp_path):
        """Three overlapping tables: values, tombstones, keys only some hold."""
        specs = [
            [(b"k%05d" % i, b"old%d" % i) for i in range(0, 600, 2)],
            [(b"k%05d" % i, TOMBSTONE if i % 3 == 0 else b"mid%d" % i) for i in range(1, 600, 5)],
            [(b"k%05d" % i, b"new%d" % i) for i in range(300, 900, 7)],
        ]
        return [
            SSTable.write(tmp_path / f"t{n}.db", iter(items), block_size=256)
            for n, items in enumerate(specs)
        ]

    def test_returns_what_bloom_first_returned(self, tmp_path):
        tables = self.tables(tmp_path)
        probes = [b"k%05d" % i for i in range(-5, 905)] + [b"", b"k", b"k00001\x00", b"\xff"]
        cache = LRUCache(1 << 20, size_of=lambda block: block.charge)
        seen = []
        for table in tables:
            expected = [self.bloom_first_get(table, key) for key in probes]
            cold = [table.get(key) for key in probes]
            warm = [table.get(key, block_cache=cache) for key in probes]
            warmer = [table.get(key, block_cache=cache) for key in probes]
            assert cold == warm == warmer == expected
            seen += expected
        assert TOMBSTONE in seen and None in seen

    def test_an_absent_key_in_an_uncached_block_reads_nothing(self, tmp_path):
        tables = self.tables(tmp_path)
        cache = LRUCache(1 << 20, size_of=lambda block: block.charge)
        absent = [
            (table, key)
            for table in tables
            for key in (b"k%05d" % i for i in range(900))
            if key not in table.bloom
        ]
        assert len(absent) > 500
        before = self.block_reads()
        for table, key in absent:
            assert table.get(key, block_cache=cache) is None
        assert self.block_reads() == before
        assert len(cache) == 0

    def test_a_cached_block_answers_without_the_bloom_filter(self, tmp_path):
        table = self.tables(tmp_path)[0]
        cache = LRUCache(1 << 20, size_of=lambda block: block.charge)
        keys = [b"k%05d" % i for i in range(600)]
        expected = [table.get(key, block_cache=cache) for key in keys]

        class Unreachable:
            def __contains__(self, key):
                raise AssertionError("bloom probed for a cached block")

        table.bloom = Unreachable()
        before = self.block_reads()
        assert [table.get(key, block_cache=cache) for key in keys] == expected
        assert self.block_reads() == before
