"""Protocol message and index-entry codecs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.server.index import FileEntry, ShareEntry
from repro.server.messages import FileManifest, RecipeEntry, ShareMeta, ShareUpload
from repro.storage.container import ContainerRef

FP = bytes(range(32))


class TestShareMeta:
    def test_pack_roundtrip(self):
        meta = ShareMeta(fingerprint=FP, share_size=2731, secret_seq=42, secret_size=8192)
        assert ShareMeta.unpack(meta.pack()) == meta

    def test_packed_size(self):
        meta = ShareMeta(FP, 1, 2, 3)
        assert len(meta.pack()) == ShareMeta.packed_size()

    def test_bad_fingerprint_size(self):
        with pytest.raises(ProtocolError):
            ShareMeta(b"short", 1, 2, 3).pack()

    def test_bad_blob_size(self):
        with pytest.raises(ProtocolError):
            ShareMeta.unpack(b"x" * 3)


class TestShareUpload:
    def test_wire_size(self):
        upload = ShareUpload(meta=ShareMeta(FP, 4, 0, 4), data=b"abcd")
        assert upload.wire_size == ShareMeta.packed_size() + 4


class TestRecipeEntry:
    def test_pack_roundtrip(self):
        entry = RecipeEntry(fingerprint=FP, secret_size=12345)
        assert RecipeEntry.unpack(entry.pack()) == entry

    def test_bad_size(self):
        with pytest.raises(ProtocolError):
            RecipeEntry.unpack(b"short")


class TestFileManifest:
    def test_pack_roundtrip(self):
        manifest = FileManifest(
            lookup_key=b"k" * 32, path_share=b"encoded-path", file_size=10**9, secret_count=12
        )
        restored = FileManifest.unpack(manifest.pack())
        assert restored == manifest

    def test_empty_path_share(self):
        manifest = FileManifest(b"key", b"", 0, 0)
        assert FileManifest.unpack(manifest.pack()) == manifest

    def test_garbage_raises(self):
        with pytest.raises(ProtocolError):
            FileManifest.unpack(b"\x00")

    def test_unpack_is_exact_length(self):
        good = FileManifest(b"key", b"path-share", 7, 1).pack()
        with pytest.raises(ProtocolError, match="2 trailing bytes"):
            FileManifest.unpack(good + b"XX")
        for cut in range(len(good)):
            with pytest.raises(ProtocolError):
                FileManifest.unpack(good[:cut])


class TestShareEntry:
    def test_pack_roundtrip_with_owners(self):
        entry = ShareEntry(
            ref=ContainerRef("container-0000000001", 5),
            share_size=2731,
            owners={"alice": 3, "bob": 1},
        )
        restored = ShareEntry.unpack(entry.pack())
        assert restored.ref == entry.ref
        assert restored.share_size == 2731
        assert restored.owners == {"alice": 3, "bob": 1}

    def test_owner_refcounting(self):
        entry = ShareEntry(ContainerRef("c", 0), 100)
        entry.add_owner("alice")
        entry.add_owner("alice")
        entry.add_owner("bob")
        assert entry.owners == {"alice": 2, "bob": 1}
        entry.drop_owner("alice")
        assert entry.owners == {"alice": 1, "bob": 1}
        entry.drop_owner("alice")
        entry.drop_owner("bob")
        assert entry.orphaned

    def test_drop_unknown_owner_is_noop(self):
        entry = ShareEntry(ContainerRef("c", 0), 100)
        entry.drop_owner("ghost")
        assert entry.orphaned

    def test_every_truncation_raises_protocol_error(self):
        blob = ShareEntry(
            ContainerRef("container-0000000001", 5), 2731, {"alice": 3, "bob": 1}
        ).pack()
        for cut in range(len(blob)):
            with pytest.raises(ProtocolError):
                ShareEntry.unpack(blob[:cut])

    def test_bad_utf8_owner_name_raises_protocol_error(self):
        blob = ShareEntry(ContainerRef("c", 0), 100, {"al": 1}).pack()
        assert blob.endswith(b"al")
        with pytest.raises(ProtocolError, match="bad ShareEntry"):
            ShareEntry.unpack(blob[:-2] + b"\xff\xfe")

    def test_malformed_container_ref_raises_protocol_error(self):
        blob = bytearray(ShareEntry(ContainerRef("cid", 7), 100, {"a": 1}).pack())
        bad_ref_len = bytes(blob)
        bad_ref_len = bad_ref_len[:4] + (5).to_bytes(2, "big") + bad_ref_len[6:]
        blob[12] = 0xC3  # a non-ASCII container id byte
        for bad in (bytes(blob), bad_ref_len):
            with pytest.raises(ProtocolError):
                ShareEntry.unpack(bad)

    def test_bad_blob_raises(self):
        with pytest.raises(ProtocolError):
            ShareEntry.unpack(b"xx")


class TestFileEntry:
    def test_pack_roundtrip(self):
        entry = FileEntry(
            recipe_ref=ContainerRef("container-0000000009", 2),
            path_share=b"\x01\x02\x03",
            file_size=5555,
            secret_count=17,
        )
        restored = FileEntry.unpack(entry.pack())
        assert restored.recipe_ref == entry.recipe_ref
        assert restored.path_share == entry.path_share
        assert restored.file_size == 5555
        assert restored.secret_count == 17

    def test_bad_blob_raises(self):
        with pytest.raises(ProtocolError):
            FileEntry.unpack(b"")

    def test_unpack_is_exact_length(self):
        entry = FileEntry(ContainerRef("container-0000000009", 2), b"\x01\x02", 5, 1)
        good = entry.pack()
        assert FileEntry.unpack(good) == entry
        with pytest.raises(ProtocolError, match="4 trailing bytes"):
            FileEntry.unpack(good + b"JUNK")
        for cut in range(len(good)):
            with pytest.raises(ProtocolError):
                FileEntry.unpack(good[:cut])


def _unpack_view(blob: bytes, user_id: str) -> tuple[int, int]:
    entry = ShareEntry.unpack(blob)
    return entry.share_size, entry.owners.get(user_id, 0)


def _same_outcome(blob: bytes, user_id: str) -> None:
    """probe() answers what unpack() answers, or both raise ProtocolError."""
    try:
        expected = _unpack_view(blob, user_id)
    except ProtocolError:
        with pytest.raises(ProtocolError):
            ShareEntry.probe(blob, user_id)
        return
    assert ShareEntry.probe(blob, user_id) == expected


_OWNER_NAMES = st.sampled_from(["alice", "bob", "é", "u0", ""])


class TestShareEntryProbe:
    """finalize_file reads an unmoved share through probe(), not unpack()."""

    @given(
        cid=st.text(min_size=0, max_size=24),
        index=st.integers(0, 2**32 - 1),
        size=st.integers(0, 2**32 - 1),
        owners=st.dictionaries(_OWNER_NAMES, st.integers(1, 2**32 - 1), max_size=4),
        user=_OWNER_NAMES,
    )
    def test_packed_entries(self, cid, index, size, owners, user):
        cid = cid.encode("ascii", "replace").decode("ascii")
        blob = ShareEntry(ContainerRef(cid, index), size, owners).pack()
        assert ShareEntry.probe(blob, user) == (size, owners.get(user, 0))
        _same_outcome(blob, user)

    @given(blob=st.binary(max_size=80), user=_OWNER_NAMES)
    def test_random_blobs(self, blob, user):
        _same_outcome(blob, user)

    @given(
        owners=st.dictionaries(_OWNER_NAMES, st.integers(1, 9), min_size=1, max_size=3),
        cut=st.integers(0, 200),
        flips=st.lists(st.tuples(st.integers(0, 200), st.integers(1, 255)), max_size=3),
        user=_OWNER_NAMES,
    )
    def test_truncated_and_garbled_blobs(self, owners, cut, flips, user):
        blob = bytearray(
            ShareEntry(ContainerRef("container-0000000001", 5), 2731, owners).pack()
        )
        for at, mask in flips:
            if at < len(blob):
                blob[at] ^= mask
        _same_outcome(bytes(blob[:cut]), user)

