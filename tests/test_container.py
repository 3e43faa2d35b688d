"""Container format and the ContainerManager (§4.5)."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NotFoundError, ParameterError, StorageError
from repro.storage.backend import MemoryBackend
from repro.storage.container import (
    CONTAINER_CAP,
    Container,
    ContainerManager,
    ContainerRef,
)
from repro.storage.container import KIND_RECIPE, KIND_SHARE


class TestContainerFormat:
    def test_serialise_roundtrip(self):
        container = Container(KIND_SHARE)
        container.add(b"fp1", b"payload-one")
        container.add(b"fp2", b"payload-two" * 100)
        restored = Container.deserialize(container.serialize())
        assert restored.kind == KIND_SHARE
        assert restored.entries == container.entries

    def test_empty_container(self):
        container = Container(KIND_RECIPE)
        restored = Container.deserialize(container.serialize())
        assert restored.entries == []

    def test_bad_kind_raises(self):
        with pytest.raises(ParameterError):
            Container(99)

    def test_truncated_blob_raises(self):
        container = Container(KIND_SHARE)
        container.add(b"k", b"v" * 50)
        blob = container.serialize()
        with pytest.raises(StorageError):
            Container.deserialize(blob[:-10])
        with pytest.raises(StorageError):
            Container.deserialize(b"xx")

    def test_bad_magic_raises(self):
        with pytest.raises(StorageError):
            Container.deserialize(b"\x00" * 64)

    def test_full_flag(self):
        container = Container(KIND_SHARE)
        container.add(b"k", b"x" * CONTAINER_CAP)
        assert container.full


class TestContainerRef:
    def test_pack_roundtrip(self):
        ref = ContainerRef(container_id="container-0000000042", entry_index=7)
        assert ContainerRef.unpack(ref.pack()) == ref


class TestContainerManager:
    @pytest.fixture
    def manager(self):
        return ContainerManager(MemoryBackend())

    def test_append_and_read(self, manager):
        ref = manager.append("alice", KIND_SHARE, b"fp", b"share-bytes")
        manager.flush()
        key, payload = manager.read_entry(ref)
        assert key == b"fp"
        assert payload == b"share-bytes"

    def test_unflushed_entries_readable(self, manager):
        """Entries still in write buffers must be readable (restore can
        race a backup session)."""
        ref = manager.append("alice", KIND_SHARE, b"fp", b"pending")
        _, payload = manager.read_entry(ref)
        assert payload == b"pending"

    def test_container_seals_at_cap(self, manager):
        chunk = b"x" * (1 << 20)
        refs = [manager.append("u", KIND_SHARE, f"fp{i}".encode(), chunk) for i in range(5)]
        # 5 MB of payload must have sealed at least one 4 MB container.
        assert manager.backend.list_keys("container-")
        manager.flush()
        for ref in refs:
            _, payload = manager.read_entry(ref)
            assert payload == chunk

    def test_per_user_isolation(self, manager):
        """Containers contain data of a single user (§4.5 locality)."""
        ra = manager.append("alice", KIND_SHARE, b"a", b"1")
        rb = manager.append("bob", KIND_SHARE, b"b", b"2")
        assert ra.container_id != rb.container_id

    def test_share_and_recipe_buffers_separate(self, manager):
        rs = manager.append("u", KIND_SHARE, b"s", b"1")
        rr = manager.append("u", KIND_RECIPE, b"r", b"2")
        assert rs.container_id != rr.container_id

    def test_oversized_recipe_gets_own_container(self, manager):
        big = b"r" * (CONTAINER_CAP + 100)
        ref = manager.append("u", KIND_RECIPE, b"big", big)
        assert ref.entry_index == 0
        _, payload = manager.read_entry(ref)
        assert payload == big

    def test_bad_kind_raises(self, manager):
        with pytest.raises(ParameterError):
            manager.append("u", 42, b"k", b"v")

    def test_missing_container_raises(self, manager):
        with pytest.raises(NotFoundError):
            manager.read_entry(ContainerRef("container-9999999999", 0))

    def test_missing_entry_raises(self, manager):
        ref = manager.append("u", KIND_SHARE, b"k", b"v")
        manager.flush()
        with pytest.raises(NotFoundError):
            manager.read_entry(ContainerRef(ref.container_id, 99))

    def test_cache_hits_on_reread(self, manager):
        ref = manager.append("u", KIND_SHARE, b"k", b"v")
        manager.flush()
        manager.read_entry(ref)
        hits_before, _ = manager.cache_stats
        manager.read_entry(ref)
        hits_after, _ = manager.cache_stats
        assert hits_after > hits_before

    def test_ids_restored_after_reopen(self):
        backend = MemoryBackend()
        m1 = ContainerManager(backend)
        m1.append("u", KIND_SHARE, b"k", b"v")
        m1.flush()
        m2 = ContainerManager(backend)
        ref2 = m2.append("u", KIND_SHARE, b"k2", b"v2")
        m2.flush()
        ids = backend.list_keys("container-")
        assert len(ids) == len(set(ids)) == 2
        assert ref2.container_id in ids


class TestRangedReads:
    """The offset footer and the ranged entry-read path."""

    def _sealed(self, entries):
        backend = MemoryBackend()
        manager = ContainerManager(backend)
        refs = [manager.append("u", KIND_SHARE, k, v) for k, v in entries]
        manager.flush()
        return backend, refs

    def test_ranged_read_matches_whole_read_cold(self):
        entries = [(f"k{i}".encode(), bytes([i]) * (50 + i)) for i in range(12)]
        backend, refs = self._sealed(entries)
        cold = ContainerManager(backend)  # empty cache: ranged backend reads
        for ref, (key, payload) in zip(refs, entries):
            assert cold.read_entries([ref]) == [(key, payload)]
            assert cold.read_entries([ref]) == [cold.read_entry(ref)]

    def test_ranged_read_never_fetches_whole_object_cold(self):
        entries = [(f"k{i}".encode(), b"x" * 5000) for i in range(8)]
        backend, refs = self._sealed(entries)
        cold = ContainerManager(backend)
        before = backend.bytes_read
        cold.read_entries([refs[3]])
        # Trailer + offset table + one entry — far below the full blob.
        assert backend.bytes_read - before < 6000
        assert backend.object_size(refs[3].container_id) > 40_000

    def test_legacy_footerless_container_still_readable(self):
        """Containers written before the footer existed fall back to the
        whole-container path instead of failing the restore."""
        legacy = Container(KIND_SHARE)
        legacy.add(b"old-key", b"old-payload" * 10)
        blob = legacy.serialize()
        stripped = blob[: 9 + 8 + len(b"old-key") + len(b"old-payload" * 10)]
        assert Container.deserialize(stripped).entries == legacy.entries
        backend = MemoryBackend()
        backend.put_object("container-0000000000", stripped)
        manager = ContainerManager(backend)
        ref = ContainerRef("container-0000000000", 0)
        assert manager.read_entries([ref]) == [(b"old-key", b"old-payload" * 10)]
        # Warm path (blob now cached) agrees.
        assert manager.read_entries([ref]) == [(b"old-key", b"old-payload" * 10)]

    def test_corrupt_footer_raises_not_misreads(self):
        entries = [(b"kk", b"v" * 100)]
        backend, refs = self._sealed(entries)
        cid = refs[0].container_id
        blob = bytearray(backend.get_object(cid))
        blob[-6] ^= 0xFF  # flip inside the trailer's count field
        backend.put_object(cid, bytes(blob))
        cold = ContainerManager(backend)
        with pytest.raises(StorageError):
            cold.read_entries([refs[0]])

    def test_truncated_footer_rejected_by_deserialize(self):
        container = Container(KIND_SHARE)
        container.add(b"k", b"v" * 50)
        blob = container.serialize()
        with pytest.raises(StorageError):
            Container.deserialize(blob[:-3])


def _strip_footer(blob: bytes) -> bytes:
    """The same container as written before the offset footer existed."""
    (entries_end,) = struct.unpack_from(">I", blob, len(blob) - 12)
    return blob[:entries_end]


def _mixed_manager():
    """One manager over every kind of container ``read_entries`` serves.

    Two sealed containers read cold, one sealed and sitting in the
    whole-container cache, one legacy footer-less object and one unflushed
    write buffer.  Returns ``(manager, backend, refs, cold_ids)`` with the
    cold containers' offset tables already cached, so a read of them costs
    exactly its runs.
    """
    backend = MemoryBackend()
    writer = ContainerManager(backend)
    refs: list[ContainerRef] = []
    for tag, count in (("a", 8), ("b", 6), ("c", 5)):
        refs += [
            writer.append("u", KIND_SHARE, f"{tag}{i}".encode(), bytes([i + 1]) * (20 + 7 * i))
            for i in range(count)
        ]
        writer.flush()
    cold_ids = sorted({ref.container_id for ref in refs})[:2]
    cached_id = refs[-1].container_id
    legacy = Container(KIND_SHARE)
    for i in range(3):
        legacy.add(f"l{i}".encode(), bytes([0x40 + i]) * (30 + i))
    backend.put_object("container-0000000050", _strip_footer(legacy.serialize()))
    refs += [ContainerRef("container-0000000050", i) for i in range(3)]
    manager = ContainerManager(backend)
    manager.read_container(cached_id)  # into the whole-container cache
    refs += [
        manager.append("u", KIND_SHARE, f"d{i}".encode(), bytes([0x80 + i]) * (10 + i))
        for i in range(4)
    ]
    for cid in cold_ids:
        manager.read_entries([ContainerRef(cid, 0)])  # caches the offset table
    return manager, backend, refs, cold_ids


def _contiguous_runs(refs, container_ids) -> int:
    """Maximal runs of adjacent entry indices, per listed container."""
    runs = 0
    for cid in container_ids:
        wanted = sorted({r.entry_index for r in refs if r.container_id == cid})
        runs += sum(1 for i, idx in enumerate(wanted) if i == 0 or idx != wanted[i - 1] + 1)
    return runs


class TestReadEntries:
    """The multi-entry ranged read: one backend read per contiguous run."""

    @settings(max_examples=60)
    @given(picks=st.lists(st.integers(min_value=0, max_value=25), max_size=40))
    def test_equals_entry_by_entry_reads_at_one_backend_read_per_run(self, picks):
        manager, backend, refs, cold_ids = _mixed_manager()
        assert len(refs) == 26
        wanted = [refs[i] for i in picks]
        legacy_touched = any(r.container_id == "container-0000000050" for r in wanted)
        ops, ranged = backend.get_ops, manager.range_reads
        got = manager.read_entries(wanted)
        runs = _contiguous_runs(wanted, cold_ids)
        assert manager.range_reads - ranged == runs
        # Beyond the runs only a first touch of the legacy object costs
        # anything: its trailer probe and one whole read; the cached blob
        # and the open buffer cost nothing.
        assert backend.get_ops - ops == runs + (2 if legacy_touched else 0)
        assert got == [manager.read_entry(ref) for ref in wanted]

    def test_a_gap_splits_a_run_and_no_unrequested_byte_is_read(self):
        manager, backend, refs, cold_ids = _mixed_manager()
        first = [r for r in refs if r.container_id == cold_ids[0]]
        before_ops, before_bytes = backend.get_ops, backend.bytes_read
        got = manager.read_entries([first[5], first[0], first[1], first[6], first[3]])
        assert backend.get_ops - before_ops == 3  # {0,1} {3} {5,6}
        assert backend.bytes_read - before_bytes == sum(
            8 + len(key) + len(payload) for key, payload in got
        )
        assert [key for key, _ in got] == [b"a5", b"a0", b"a1", b"a6", b"a3"]

    def test_index_past_the_count_is_not_found(self):
        manager, _, refs, cold_ids = _mixed_manager()
        for cid in (cold_ids[0], refs[-1].container_id, "container-0000000050",
                    refs[18].container_id):
            with pytest.raises(NotFoundError):
                manager.read_entries([ContainerRef(cid, 0), ContainerRef(cid, 99)])
        with pytest.raises(NotFoundError):
            manager.read_entries([ContainerRef("container-0000009999", 0)])

    def test_footer_offset_disagreeing_with_an_entry_header(self):
        """A footer that is well-formed (monotonic, right end) but points
        one byte off: slicing there must fail, not return shifted bytes —
        for the poisoned entry and for any request that includes it."""
        backend = MemoryBackend()
        writer = ContainerManager(backend)
        refs = [writer.append("u", KIND_SHARE, f"k{i}".encode(), b"v" * 40) for i in range(4)]
        writer.flush()
        cid = refs[0].container_id
        blob = bytearray(backend.get_object(cid))
        slot = len(blob) - 12 - 4 * 4 + 4 * 2  # offset of entry 2
        (offset,) = struct.unpack_from(">I", blob, slot)
        struct.pack_into(">I", blob, slot, offset + 1)
        backend.put_object(cid, bytes(blob))
        cached = ContainerManager(backend)
        cached.read_container(cid)  # same checks when served from the cache
        for manager in (ContainerManager(backend), cached):
            with pytest.raises(StorageError):
                manager.read_entries([refs[0], refs[1]])  # entry 1 now runs long
            with pytest.raises(StorageError):
                manager.read_entries([refs[3], refs[2]])
            assert manager.read_entries([refs[0]]) == [(b"k0", b"v" * 40)]
            assert manager.read_entries([refs[3]]) == [(b"k3", b"v" * 40)]

    def test_truncated_object_fails_typed_cold_and_with_a_cached_table(self):
        backend = MemoryBackend()
        writer = ContainerManager(backend)
        refs = [writer.append("u", KIND_SHARE, f"k{i}".encode(), b"v" * 400) for i in range(6)]
        writer.flush()
        cid = refs[0].container_id
        blob = backend.get_object(cid)
        warm = ContainerManager(backend)
        warm.read_entries([refs[0]])  # offset table cached before the damage
        backend.put_object(cid, blob[: len(blob) // 2])
        with pytest.raises(StorageError):
            warm.read_entries(refs)  # short ranged read
        with pytest.raises(StorageError):
            ContainerManager(backend).read_entries(refs)  # no footer, torn entries
        # What still lies inside the surviving half reads back intact.
        assert warm.read_entries([refs[0], refs[1]]) == [
            (b"k0", b"v" * 400), (b"k1", b"v" * 400)
        ]
