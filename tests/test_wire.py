"""Wire protocol: every row of the frame table, driven from the table.

Nothing here lists frames.  The round-trip, rejection and golden-byte
checks walk :data:`repro.net.wire.FRAMES` and build their inputs from each
row's layout, with one hypothesis strategy and one pair of fixed examples
per field kind — so a new row is covered the moment it is declared.  The
rejection checks hold every decode to "a value or
:class:`~repro.errors.ProtocolError`, nothing else": the frame layer must
never let a malformed peer drive an allocation or a silent misparse.
"""

from __future__ import annotations

import inspect
import json
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.network import Link
from repro.cloud.provider import CloudProvider
from repro.dedup.stats import DedupStats
from repro.errors import (
    AuthError,
    CloudUnavailableError,
    IntegrityError,
    NotFoundError,
    ProtocolError,
    ReproError,
    StorageError,
)
from repro.net import CDStoreTCPServer, RemoteServerProxy, wire
from repro.net.dispatch import ConnState, FrameDispatcher
from repro.obs.registry import REGISTRY
from repro.server.index import FileEntry
from repro.server.messages import FileManifest, RecipeEntry, ShareMeta
from repro.server.protocol import CDStoreServerAPI
from repro.server.server import CDStoreServer
from repro.storage.container import ContainerRef
from repro.tenants import Credentials, TenantRecord, TenantRegistry

REPO = Path(__file__).parent.parent

#: One example payload per frame, captured as hex from the hand-written
#: ``encode_*`` functions of the commit before the frame table existed.
GOLDEN = json.loads((Path(__file__).parent / "data" / "wire_golden.json").read_text())

ROWS = sorted(wire.FRAMES.values())
REQUESTS = [row for row in ROWS if row.reply is not None]
REPLIES = [row for row in ROWS if row.reply is None]

# ---------------------------------------------------------------------------
# field kinds: one strategy and two fixed examples each, by spec token
# ---------------------------------------------------------------------------

fingerprints = st.binary(min_size=32, max_size=32)
small_bytes = st.binary(max_size=256)
share_metas = st.builds(
    ShareMeta,
    fingerprints,
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**40),
    st.integers(0, 2**32 - 1),
)
recipe_entries = st.builds(RecipeEntry, fingerprints, st.integers(0, 2**32 - 1))
file_manifests = st.builds(
    FileManifest, small_bytes, small_bytes, st.integers(0, 2**50), st.integers(0, 2**40)
)
file_entries = st.builds(
    FileEntry,
    st.builds(
        ContainerRef,
        st.integers(0, 10**9).map(lambda i: f"container-{i:010d}"),
        st.integers(0, 2**31),
    ),
    small_bytes,
    st.integers(0, 2**50),
    st.integers(0, 2**40),
)
snapshots = st.fixed_dictionaries(
    {"version": st.integers(0, 9)},
    optional={"counters": st.dictionaries(st.text(max_size=8), st.integers(-5, 5), max_size=3)},
)

FP, FP2 = bytes(range(32)), bytes(range(32, 64))
ENTRY = FileEntry(ContainerRef("container-0000000001", 2), b"path-share", 6, 7)
ENTRY2 = FileEntry(ContainerRef("container-0000000002", 3), b"", 8, 9)

#: spec token -> (strategy, example, second example for list elements).
KINDS = {
    "u8": (st.integers(0, 2**8 - 1), 4, 5),
    "u16": (st.integers(0, 2**16 - 1), 2, 3),
    "u32": (st.integers(0, 2**32 - 1), 7, 8),
    "u64": (st.integers(0, 2**64 - 1), 6, 7),
    "i64": (st.integers(-(2**63), 2**63 - 1), -9, 9),
    "bool": (st.booleans(), True, False),
    "[u8]": (st.integers(0, 2**8 - 1), 1, 0),
    "string": (st.text(max_size=40), "alice", "böb"),
    "sized": (small_bytes, b"sized bytes", b""),
    "fingerprint": (fingerprints, FP, FP2),
    "raw(16)": (st.binary(min_size=16, max_size=16), FP[:16], FP2[:16]),
    "raw(32)": (st.binary(min_size=32, max_size=32), FP, FP2),
    "ShareMeta": (share_metas, ShareMeta(FP, 3, 4, 5), ShareMeta(FP2, 6, 7, 8)),
    "RecipeEntry": (recipe_entries, RecipeEntry(FP, 5), RecipeEntry(FP2, 6)),
    "sized(FileManifest)": (
        file_manifests,
        FileManifest(b"lookup-key", b"path-share", 6, 7),
        FileManifest(b"", b"", 8, 9),
    ),
    "FileEntry": (file_entries, ENTRY, ENTRY2),
    "sized(FileEntry)": (file_entries, ENTRY, ENTRY2),
    wire.dedup_stats.doc: (
        st.builds(DedupStats, *[st.integers(0, 2**40)] * 8),
        DedupStats(1, 2, 3, 4, 5, 6, 7, 8),
        DedupStats(),
    ),
    "json": (snapshots, {"version": 1, "counters": {}}, {"version": 2}),
}


def strategy(kind: wire.Field):
    if not isinstance(kind, wire.ListOf):
        return KINDS[kind.doc][0]
    items = [strategy(item) for _, item in kind.items]
    if kind.bare:
        return st.lists(items[0], max_size=6)
    if kind.into is not None:
        return st.lists(st.builds(kind.into, *items), max_size=6)
    return st.lists(st.tuples(*items), max_size=6)


def example(kind: wire.Field, second: bool = False):
    """The fixed example of a kind; a list holds both examples of its items."""
    if not isinstance(kind, wire.ListOf):
        return KINDS[kind.doc][2 if second else 1]
    elements = [[example(item, which) for _, item in kind.items] for which in (False, True)]
    if kind.bare:
        return [element[0] for element in elements]
    return [(kind.into or (lambda *items: items))(*element) for element in elements]


def example_fields(row: wire.Frame) -> tuple:
    return tuple(example(kind) for _, kind in row.fields)


def example_payload(row: wire.Frame) -> bytes:
    return row.encode(*example_fields(row))


@contextmanager
def naming(row: wire.Frame):
    """Name the row in whatever failure escapes a whole-table loop."""
    try:
        yield
    except BaseException as exc:
        exc.add_note(f"frame table row: {row.name}")
        raise


def decodes_or_rejects(row: wire.Frame, payload: bytes):
    """A decode must end in a value or ProtocolError — nothing else."""
    try:
        return row.decode(payload)
    except ProtocolError:
        return None


def per_frame(rows):
    """Stamp a class's ``check(row)`` out as one ``test_<frame>`` per row.

    Plain methods rather than ``parametrize`` ids, so the per-frame
    round-trip tests keep the ids they had when each was written by hand
    (``TestRequestRoundTrips::test_query_duplicates``).
    """

    def stamp(cls):
        for row in rows:
            def test(self, row=row):
                self.check(row)

            setattr(cls, f"test_{wire.frame_name(row).lower()}", test)
        return cls

    return stamp


def round_trips(self, row: wire.Frame) -> None:
    @given(st.tuples(*(strategy(kind) for _, kind in row.fields)))
    def run(fields):
        assert row.decode(row.encode(*fields)) == fields

    run()


# ---------------------------------------------------------------------------
# round-trips and golden bytes
# ---------------------------------------------------------------------------


@per_frame(REQUESTS)
class TestRequestRoundTrips:
    check = round_trips

    def test_user(self):
        """The pinned-user kind is a plain ``string`` on the wire; leading
        a request it marks the field the dispatcher holds to the tenant."""
        as_user, as_string = [], []
        wire.user.pack("böb", as_user)
        wire.string.pack("böb", as_string)
        assert as_user == as_string
        assert wire.T_LIST_FILES.pins_user and wire.T_GW_WINDOW.pins_user
        assert not wire.T_AUTH.pins_user  # a tenant *claim*, checked by the proof
        assert not any(row.pins_user for row in REQUESTS if not row.fields)

    def test_user_key(self):
        """get_file_entry, delete_file and gw_resolve share one request shape."""
        rows = (wire.T_GET_FILE_ENTRY, wire.T_DELETE_FILE, wire.T_GW_RESOLVE)
        assert len({row.encode("alice", b"key") for row in rows}) == 1
        assert all(row.decode(rows[0].encode("alice", b"key")) == ("alice", b"key") for row in rows)

    def test_ping_pong(self):
        ping = wire.T_PING.encode(wire.WIRE_VERSION, 0)
        assert wire.T_PING.decode(ping) == (wire.WIRE_VERSION, 0)
        pong = wire.R_PONG.encode(wire.WIRE_VERSION, 3, 0)
        assert wire.R_PONG.decode(pong) == (wire.WIRE_VERSION, 3, 0)

    def test_ping_pong_trace_flags(self):
        # The flags byte only appears when nonzero — a zero-flag PING is
        # byte-identical to the pre-extension encoding.
        assert len(wire.T_PING.encode(2, 0)) == 2
        assert len(wire.T_PING.encode(2, wire.FLAG_TRACE)) == 3
        assert len(wire.R_PONG.encode(2, 7, 0)) == 6
        assert len(wire.R_PONG.encode(2, 7, wire.FLAG_TRACE)) == 7
        # ...and an explicit zero byte still reads as "no flags".
        assert wire.T_PING.decode(b"\x00\x02\x00") == (2, 0)


@per_frame(REPLIES)
class TestResponseRoundTrips:
    check = round_trips


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_golden_bytes(row):
    """A round-trip alone does not pin a layout: each row must produce,
    and read back, the exact bytes the parent commit's codec produced."""
    assert example_payload(row).hex() == GOLDEN[row.name]
    assert row.decode(bytes.fromhex(GOLDEN[row.name])) == example_fields(row)


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
PING = wire.T_PING.encode(wire.WIRE_VERSION, 0)


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
        blob = GOOD + wire.encode_mux_frame(wire.T_PING, 1, PING)
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
        """No struct.error leaks, no unbounded allocation from a hostile
        count field: random bytes fed to every row's decode."""
        for row in ROWS:
            with naming(row):
                decodes_or_rejects(row, garbage)

    def test_every_truncation_rejected(self):
        """Every proper prefix of a valid payload is a ProtocolError —
        unless the prefix is itself a payload (a PING without its
        optional flags byte), which must then re-encode to itself."""
        for row in ROWS:
            payload = example_payload(row)
            for cut in range(len(payload)):
                with naming(row):
                    fields = decodes_or_rejects(row, payload[:cut])
                    assert fields is None or row.encode(*fields) == payload[:cut], cut

    def test_trailing_garbage_rejected(self):
        for row in ROWS:
            with naming(row), pytest.raises(ProtocolError):
                row.decode(example_payload(row) + b"\x00")

    def test_hostile_count_fields_cannot_allocate(self):
        """A count or length word promising millions of entries hits the
        bounds check on the first missing byte instead of looping or
        allocating — wherever in the payload the hostile word lands."""
        for row in ROWS:
            payload = example_payload(row)
            for word in (b"\xff\xff\xff\xff", (2**20).to_bytes(4, "big")):
                for at in range(len(payload) - 3):
                    with naming(row):
                        decodes_or_rejects(row, payload[:at] + word + payload[at + 4:])
            lead: list[bytes] = []
            for (_, kind), value in zip(row.fields, example_fields(row)):
                if isinstance(kind, wire.ListOf):
                    # the list's count word, with nothing behind it
                    with naming(row), pytest.raises(ProtocolError):
                        row.decode(b"".join(lead) + b"\xff\xff\xff\xff")
                    break
                kind.pack(value, lead)


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
        assert PING == wire.WIRE_VERSION.to_bytes(2, "big")
        pong = wire.R_PONG.encode(wire.WIRE_VERSION, 9, 0)
        assert pong == wire.WIRE_VERSION.to_bytes(2, "big") + (9).to_bytes(4, "big")


# ---------------------------------------------------------------------------
# the frame table itself
# ---------------------------------------------------------------------------


def api_names() -> set[str]:
    return {name for name in vars(CDStoreServerAPI) if not name.startswith("_")}


class EchoServer:
    """A server surface that has grown one method the wire never carried."""

    server_id = 0

    def echo(self, user_id: str, count: int) -> int:
        return count + len(user_id)


class TestFrameTable:
    def test_a_byte_cannot_be_declared_twice(self):
        table = wire.FrameTable(wire.FRAMES)
        with pytest.raises(ValueError, match="0x01 is both T_PING and T_SHADOW"):
            table.register("T_SHADOW", wire.Frame(0x01, reply=wire.R_OK, tier="control"))
        assert table == wire.FRAMES

    def test_every_request_is_answered_by_rows_of_the_table(self):
        for row in REQUESTS:
            assert wire.FRAMES[row.reply] is row.reply, row.name
            assert row.mid is None or wire.FRAMES[row.mid] is row.mid, row.name
        orphan = wire.Frame(0x7E, reply=wire.Frame(0x7F), tier="control")
        with pytest.raises(ValueError, match="unregistered"):
            wire.FrameTable(wire.FRAMES).register("T_ORPHAN", orphan)

    def test_method_rows_are_exactly_the_server_api(self):
        """What the WIRE-005 checker used to hold textually: every public
        name of the Protocol is carried by a row or declared local-only,
        and no row carries a method the Protocol does not declare."""
        assert set(wire.METHOD_FRAMES) == api_names() - wire.LOCAL_ONLY_METHODS
        assert {row.tier for row in REQUESTS} == {"api", "control", "gateway", "obs"}

    def test_field_names_are_the_method_parameter_names(self):
        # The dispatcher calls the method a row names by keyword.
        for row in REQUESTS:
            if row.tier != "api" or row in FrameDispatcher._HANDLERS:
                continue
            (method,) = row.methods
            names = [name for name, _ in row.fields]
            for surface in (CDStoreServerAPI, CDStoreServer):
                target = getattr(surface, method, None)
                if inspect.isfunction(target):
                    params = list(inspect.signature(target).parameters)
                    assert params[1:] == names, (row.name, surface)
                else:  # stats / stored_bytes: a property or plain attribute
                    assert names == [], row.name

    def test_frame_names_are_the_labels_the_parent_used(self):
        assert {row.name for row in ROWS} == set(GOLDEN)  # the parent's T_*/R_* names
        assert wire.frame_name(wire.T_GW_WINDOW) == "GW_WINDOW"
        assert wire.frame_name(0x7E) == "0x7e"
        server = CDStoreServer(0, CloudProvider("c", Link(100.0), Link(100.0)))
        dispatcher = FrameDispatcher(server)
        list(dispatcher.dispatch(ConnState(), wire.T_PING, PING))
        assert "frame=PING" in REGISTRY.snapshot()["histograms"]["net_dispatch_seconds"]

    def test_views_are_what_the_rows_say(self):
        from repro.net.client import _MIDSTREAM_FRAMES
        from repro.net.dispatch import ADMIN_FRAMES

        assert wire.CONTROL_FRAMES == {wire.T_PING, wire.T_AUTH, wire.T_AUTH_PROOF}
        assert wire.GATEWAY_FRAMES == {wire.T_GW_RESOLVE, wire.T_GW_WINDOW}
        assert wire.OBS_FRAMES == {wire.T_OBS_STATS}
        assert _MIDSTREAM_FRAMES == {wire.R_SHARE_BATCH, wire.R_GW_SHARD}
        assert ADMIN_FRAMES == {
            wire.T_SCRUB, wire.T_COLLECT_GARBAGE, wire.T_REPLACE_SHARE,
            wire.T_REBUILD_RECIPE, wire.T_LIST_BACKUPS, wire.T_STATS,
            wire.T_STORED_BYTES, wire.T_OBS_STATS,
        }
        assert wire.METHOD_FRAMES["iter_share_batches"] is wire.T_FETCH_SHARES

    def test_protocol_md_tables_are_the_rendered_table(self):
        """What WIRE-003/006 used to hold textually: §4-§6 of the spec are
        exactly what the table renders (`python -m repro.net.wire`)."""
        doc = (REPO / "docs" / "PROTOCOL.md").read_text()
        for marker, block in wire.render_spec().items():
            opening, closing = f"<!-- generated:{marker} -->\n", f"\n<!-- /generated:{marker} -->"
            assert doc.count(opening) == doc.count(closing) == 1, marker
            assert doc.split(opening)[1].split(closing)[0] == block, marker

    def test_a_new_method_frame_is_one_row_plus_its_proxy_method(self, monkeypatch):
        """Register a throwaway row on a copy of the table: the dispatcher
        decodes, pins the user, calls ``server.echo`` and encodes the
        reply, and the proxy's one-line method body reaches it — with no
        other edit anywhere."""
        table = wire.FrameTable(wire.FRAMES)
        t_echo = wire.Frame(
            0x7E, ("user_id", wire.user), ("count", wire.u32), reply=wire.R_INT, method="echo"
        )
        table.register("T_ECHO", t_echo)
        monkeypatch.setattr(wire, "FRAMES", table)
        assert wire.frame_name(0x7E) == "ECHO"

        tenants = TenantRegistry([TenantRecord("alice", b"alice-secret")])
        creds = Credentials("alice", b"alice-secret")
        tcp = CDStoreTCPServer(EchoServer(), tenants=tenants).start()
        try:
            with RemoteServerProxy(tcp.address, credentials=creds) as proxy:
                assert proxy._call(t_echo, "alice", 37) == 42
                with pytest.raises(AuthError, match="does not match"):
                    proxy._call(t_echo, "mallory", 37)
        finally:
            tcp.shutdown()
