"""Wire-protocol codec: round-trip properties and rejection behaviour.

Every frame type round-trips through its encode/decode pair under
hypothesis-generated payloads, and the decoders reject truncation,
trailing garbage, oversized frames and bad magic with
:class:`~repro.errors.ProtocolError` — the frame layer must never let a
malformed peer drive an allocation or a silent misparse.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dedup.stats import DedupStats
from repro.errors import (
    CloudUnavailableError,
    IntegrityError,
    NotFoundError,
    ProtocolError,
    ReproError,
    StorageError,
)
from repro.net import wire
from repro.server.index import FileEntry
from repro.server.messages import FileManifest, RecipeEntry, ShareMeta, ShareUpload
from repro.storage.container import ContainerRef

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

fingerprints = st.binary(min_size=32, max_size=32)
user_ids = st.text(min_size=0, max_size=40)
small_bytes = st.binary(max_size=256)


@st.composite
def share_metas(draw):
    return ShareMeta(
        fingerprint=draw(fingerprints),
        share_size=draw(st.integers(0, 2**32 - 1)),
        secret_seq=draw(st.integers(0, 2**40)),
        secret_size=draw(st.integers(0, 2**32 - 1)),
    )


@st.composite
def share_uploads(draw):
    data = draw(small_bytes)
    meta = draw(share_metas())
    return ShareUpload(meta=meta, data=data)


@st.composite
def recipe_entries(draw):
    return RecipeEntry(
        fingerprint=draw(fingerprints),
        secret_size=draw(st.integers(0, 2**32 - 1)),
    )


@st.composite
def file_manifests(draw):
    return FileManifest(
        lookup_key=draw(small_bytes),
        path_share=draw(small_bytes),
        file_size=draw(st.integers(0, 2**50)),
        secret_count=draw(st.integers(0, 2**40)),
    )


@st.composite
def file_entries(draw):
    return FileEntry(
        recipe_ref=ContainerRef(
            container_id=f"container-{draw(st.integers(0, 10**9)):010d}",
            entry_index=draw(st.integers(0, 2**31)),
        ),
        path_share=draw(small_bytes),
        file_size=draw(st.integers(0, 2**50)),
        secret_count=draw(st.integers(0, 2**40)),
    )


def entries_equal(a: FileEntry, b: FileEntry) -> bool:
    return (
        a.recipe_ref == b.recipe_ref
        and a.path_share == b.path_share
        and a.file_size == b.file_size
        and a.secret_count == b.secret_count
    )


# ---------------------------------------------------------------------------
# request round-trips
# ---------------------------------------------------------------------------


class TestRequestRoundTrips:
    @given(user=user_ids, fps=st.lists(fingerprints, max_size=8))
    def test_query_duplicates(self, user, fps):
        blob = wire.encode_query_duplicates(user, fps)
        assert wire.decode_query_duplicates(blob) == (user, fps)

    @given(user=user_ids, uploads=st.lists(share_uploads(), max_size=5))
    def test_upload_shares(self, user, uploads):
        blob = wire.encode_upload_shares(user, uploads)
        got_user, got = wire.decode_upload_shares(blob)
        assert got_user == user
        assert got == uploads

    @given(user=user_ids, manifest=file_manifests(),
           metas=st.lists(share_metas(), max_size=5))
    def test_finalize_file(self, user, manifest, metas):
        blob = wire.encode_finalize_file(user, manifest, metas)
        got_user, got_manifest, got_metas = wire.decode_finalize_file(blob)
        assert got_user == user
        assert got_manifest == manifest
        assert got_metas == metas

    @given(user=user_ids, key=small_bytes)
    def test_user_key(self, user, key):
        assert wire.decode_user_key(wire.encode_user_key(user, key)) == (user, key)

    @given(user=user_ids, key=small_bytes, bypass=st.booleans())
    def test_get_recipe(self, user, key, bypass):
        blob = wire.encode_get_recipe(user, key, bypass)
        assert wire.decode_get_recipe(blob) == (user, key, bypass)

    @given(user=user_ids)
    def test_user(self, user):
        assert wire.decode_user(wire.encode_user(user)) == user

    @given(fps=st.lists(fingerprints, max_size=8))
    def test_fetch_shares(self, fps):
        assert wire.decode_fetch_shares(wire.encode_fetch_shares(fps)) == fps

    @given(fp=fingerprints, data=small_bytes)
    def test_replace_share(self, fp, data):
        blob = wire.encode_replace_share(fp, data)
        assert wire.decode_replace_share(blob) == (fp, data)

    @given(user=user_ids, key=small_bytes,
           entries=st.lists(recipe_entries(), max_size=5))
    def test_rebuild_recipe(self, user, key, entries):
        blob = wire.encode_rebuild_recipe(user, key, entries)
        assert wire.decode_rebuild_recipe(blob) == (user, key, entries)

    def test_ping_pong(self):
        assert wire.decode_ping(wire.encode_ping()) == (wire.WIRE_VERSION, 0)
        assert wire.decode_pong(wire.encode_pong(3)) == (wire.WIRE_VERSION, 3, 0)

    def test_ping_pong_trace_flags(self):
        # The flags byte only appears when nonzero — a zero-flag PING is
        # byte-identical to the pre-extension encoding.
        assert len(wire.encode_ping(2, 0)) == len(wire.encode_ping(2)) == 2
        assert len(wire.encode_ping(2, wire.FLAG_TRACE)) == 3
        version, flags = wire.decode_ping(wire.encode_ping(2, wire.FLAG_TRACE))
        assert (version, flags) == (2, wire.FLAG_TRACE)
        version, sid, flags = wire.decode_pong(
            wire.encode_pong(7, 2, wire.FLAG_TRACE)
        )
        assert (version, sid, flags) == (2, 7, wire.FLAG_TRACE)


# ---------------------------------------------------------------------------
# response round-trips
# ---------------------------------------------------------------------------


class TestResponseRoundTrips:
    @given(values=st.lists(st.booleans(), max_size=20))
    def test_bools(self, values):
        assert wire.decode_bools(wire.encode_bools(values)) == values

    @given(entry=file_entries())
    def test_file_entry(self, entry):
        got = wire.decode_file_entry(wire.encode_file_entry(entry))
        assert entries_equal(got, entry)

    @given(entries=st.lists(recipe_entries(), max_size=8))
    def test_recipe(self, entries):
        assert wire.decode_recipe(wire.encode_recipe(entries)) == entries

    @given(listing=st.lists(st.tuples(small_bytes, file_entries()), max_size=5))
    def test_file_list(self, listing):
        got = wire.decode_file_list(wire.encode_file_list(listing))
        assert len(got) == len(listing)
        for (got_key, got_entry), (key, entry) in zip(got, listing):
            assert got_key == key
            assert entries_equal(got_entry, entry)

    @given(batch=st.lists(st.tuples(fingerprints, small_bytes), max_size=8))
    def test_share_batch(self, batch):
        assert wire.decode_share_batch(wire.encode_share_batch(batch)) == batch

    @given(total=st.integers(0, 2**32 - 1))
    def test_shares_end(self, total):
        assert wire.decode_shares_end(wire.encode_shares_end(total)) == total

    @given(value=st.integers(-(2**62), 2**62))
    def test_int(self, value):
        assert wire.decode_int(wire.encode_int(value)) == value

    @given(fps=st.lists(fingerprints, max_size=8))
    def test_fp_list(self, fps):
        assert wire.decode_fp_list(wire.encode_fp_list(fps)) == fps

    @given(values=st.lists(st.integers(0, 2**40), min_size=8, max_size=8))
    def test_stats(self, values):
        stats = DedupStats(
            logical_data=values[0], logical_shares=values[1],
            transferred_shares=values[2], physical_shares=values[3],
            secrets_total=values[4], shares_total=values[5],
            shares_transferred=values[6], shares_stored=values[7],
        )
        got = wire.decode_stats(wire.encode_stats(stats))
        assert got.snapshot().__dict__ == stats.snapshot().__dict__

    @given(backups=st.lists(st.tuples(user_ids, small_bytes), max_size=5))
    def test_backup_list(self, backups):
        assert wire.decode_backup_list(wire.encode_backup_list(backups)) == backups


# ---------------------------------------------------------------------------
# typed error frames
# ---------------------------------------------------------------------------


class TestErrorFrames:
    @pytest.mark.parametrize("exc_type", [
        CloudUnavailableError, NotFoundError, StorageError, ProtocolError,
        IntegrityError, ReproError,
    ])
    def test_exception_class_round_trips(self, exc_type):
        rebuilt = wire.decode_error(wire.encode_error(exc_type("boom 42")))
        assert type(rebuilt) is exc_type
        assert "boom 42" in str(rebuilt)

    def test_subclass_maps_to_itself_not_base(self):
        rebuilt = wire.decode_error(wire.encode_error(CloudUnavailableError("x")))
        assert type(rebuilt) is CloudUnavailableError

    def test_unknown_code_degrades_to_protocol_error(self):
        blob = bytes([200]) + (0).to_bytes(4, "big")
        assert isinstance(wire.decode_error(blob), ProtocolError)


# ---------------------------------------------------------------------------
# framing + rejection
# ---------------------------------------------------------------------------


def exact_reader(blob: bytes):
    """A ``recv_exact``-shaped reader over an in-memory byte string."""
    pos = 0

    def recv_exact(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise ConnectionError("EOF mid-frame")
        out = blob[pos:pos + n]
        pos += n
        return out

    return recv_exact


def read_stream(blob: bytes, count: int) -> list[tuple[int, int, bytes]]:
    """The first ``count`` frames of a back-to-back frame stream."""
    recv = exact_reader(blob)
    return [wire.read_frame_mux(recv) for _ in range(count)]


#: One well-formed frame; the stream tests put the damage *behind* it.
GOOD = wire.encode_mux_frame(wire.R_OK, 5, b"ok")


class TestFraming:
    @given(frame_type=st.integers(0, 255), payload=st.binary(max_size=512))
    def test_frame_round_trip(self, frame_type, payload):
        blob = wire.encode_mux_frame(frame_type, 0, payload)
        assert read_stream(blob, 1) == [(frame_type, 0, payload)]

    @given(frames=st.lists(
        st.tuples(st.integers(0, 255), st.integers(0, wire.REQUEST_ID_MAX),
                  st.binary(max_size=64)),
        max_size=5))
    def test_frame_stream_round_trip(self, frames):
        blob = b"".join(wire.encode_mux_frame(t, rid, p) for t, rid, p in frames)
        assert read_stream(blob, len(frames)) == frames

    def test_truncated_stream_rejected(self):
        blob = GOOD + wire.encode_mux_frame(wire.T_PING, 1, wire.encode_ping())
        with pytest.raises(ConnectionError):
            read_stream(blob[:-1], 2)

    def test_bad_magic_rejected(self):
        blob = wire.encode_mux_frame(wire.T_PING, 1, b"")
        with pytest.raises(ProtocolError, match="magic"):
            read_stream(GOOD + b"\x00\x00" + blob[2:], 2)

    def test_oversized_incoming_frame_rejected_before_allocation(self):
        header = wire.MUX_FRAME_HEADER.pack(0xCD5E, wire.T_PING, 1, 2**31)
        with pytest.raises(ProtocolError, match="cap"):
            read_stream(GOOD + header + b"x" * 16, 2)

    def test_oversized_outgoing_frame_rejected(self):
        with pytest.raises(ProtocolError, match="cap"):
            wire.encode_mux_frame(wire.R_OK, 1, b"x" * 32, max_frame=16)

    @given(garbage=st.binary(min_size=1, max_size=64))
    @settings(max_examples=50)
    def test_garbage_payloads_never_misparse(self, garbage):
        """Every decoder either raises ProtocolError or returns a value —
        it must never raise anything else (no struct.error leaks, no
        unbounded allocation from a hostile count field)."""
        decoders = [
            wire.decode_query_duplicates, wire.decode_upload_shares,
            wire.decode_finalize_file, wire.decode_user_key,
            wire.decode_get_recipe, wire.decode_user,
            wire.decode_fetch_shares, wire.decode_replace_share,
            wire.decode_rebuild_recipe, wire.decode_bools,
            wire.decode_recipe, wire.decode_file_list,
            wire.decode_share_batch, wire.decode_shares_end,
            wire.decode_int, wire.decode_fp_list, wire.decode_stats,
            wire.decode_backup_list, wire.decode_error,
        ]
        for decode in decoders:
            try:
                decode(garbage)
            except ProtocolError:
                pass

    def test_trailing_garbage_rejected(self):
        blob = wire.encode_query_duplicates("alice", []) + b"\x00"
        with pytest.raises(ProtocolError, match="trailing"):
            wire.decode_query_duplicates(blob)

    @given(count=st.integers(2**20, 2**32 - 1))
    @settings(max_examples=20)
    def test_hostile_count_fields_cannot_allocate(self, count):
        """A count field promising millions of entries hits the bounds
        check on the first missing byte instead of looping."""
        blob = count.to_bytes(4, "big")
        with pytest.raises(ProtocolError):
            wire.decode_fetch_shares(blob)


# ---------------------------------------------------------------------------
# request ids + the handshake payloads
# ---------------------------------------------------------------------------


class TestMuxFraming:
    def test_header_sizes(self):
        # magic:u16 type:u8 request_id:u32 length:u32 — the one header.
        assert wire.MUX_FRAME_HEADER.size == 11
        assert wire.MUX_FRAME_HEADER.format == ">HBII"

    @given(
        frame_type=st.integers(0, 255),
        request_id=st.integers(0, wire.REQUEST_ID_MAX),
        payload=st.binary(max_size=512),
    )
    def test_mux_frame_round_trip(self, frame_type, request_id, payload):
        blob = wire.encode_mux_frame(frame_type, request_id, payload)
        assert wire.read_frame_mux(exact_reader(blob)) == (
            frame_type, request_id, payload,
        )

    @pytest.mark.parametrize("request_id", [-1, wire.REQUEST_ID_MAX + 1])
    def test_request_id_outside_u32_rejected(self, request_id):
        with pytest.raises(ProtocolError, match="request id"):
            wire.encode_mux_frame(wire.T_PING, request_id)

    def test_mux_bad_magic_rejected(self):
        blob = wire.encode_mux_frame(wire.T_PING, 1, b"")
        with pytest.raises(ProtocolError, match="magic"):
            wire.read_frame_mux(exact_reader(b"\x00\x00" + blob[2:]))

    def test_mux_oversized_length_rejected_before_allocation(self):
        header = wire.MUX_FRAME_HEADER.pack(0xCD5E, wire.T_PING, 1, 2**31)
        with pytest.raises(ProtocolError, match="cap"):
            wire.read_frame_mux(exact_reader(header + b"x" * 16))

    def test_mux_truncated_frame_rejected(self):
        blob = wire.encode_mux_frame(wire.T_PING, 1, b"abc")
        with pytest.raises(ConnectionError):
            wire.read_frame_mux(exact_reader(blob[:-1]))

    def test_ping_pong_carry_versions(self):
        assert wire.decode_ping(wire.encode_ping()) == (wire.WIRE_VERSION, 0)
        version, server_id, flags = wire.decode_pong(wire.encode_pong(9))
        assert (version, server_id, flags) == (wire.WIRE_VERSION, 9, 0)
