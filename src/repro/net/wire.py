"""Binary wire protocol for the networked serving layer.

Everything crossing a socket between a :class:`~repro.net.client.
RemoteServerProxy` and a :class:`~repro.net.server.CDStoreTCPServer` (or
:class:`~repro.net.async_server.AsyncCDStoreTCPServer`) is a **frame**,
in one framing from the connection's first byte:

    u16 magic | u8 type | u32 request_id | u32 length | length bytes of payload

The magic word catches stream desynchronisation immediately (a frame read
mid-payload fails loudly instead of interpreting share bytes as headers),
the type selects one row of the frame table below, and the length is
bounded by ``max_frame`` on both ends — a malicious or corrupted peer
cannot make the receiver allocate an arbitrary buffer.

The ``request_id`` is a correlation id: the server echoes a request's
id on every frame it emits for that request, so one socket carries many
concurrent in-flight requests and the client routes replies by id
instead of by arrival order.  Id 0 is the server's for connection-level
errors that answer no particular request.  The first exchange is
:data:`T_PING` / :data:`R_PONG`; both carry :data:`WIRE_VERSION`, and a
peer advertising any other version is answered with a typed
:class:`~repro.errors.ProtocolError`.

**The frame table below is the one declaration of the wire surface.**
Each ``T_*``/``R_*`` name is a :class:`Frame` — the frame-type byte
itself, carrying its payload layout and, for a request, its reply, the
server method it carries (or its tier) and its admin mark.  The codecs
are built from the layout, the dispatcher routes, authorizes and replies
from the row, the proxy calls through it, and §4–§6 of
``docs/PROTOCOL.md`` are rendered from it (``python -m repro.net.wire``).
The packed records reuse the ``pack``/``unpack`` structs of
:mod:`repro.server.messages` and :mod:`repro.server.index`, so the bytes
a share travels in are identical whether the transport is a method call
or a socket.  Every decode consumes its payload exactly: truncation
*and* trailing garbage raise :class:`~repro.errors.ProtocolError`.

Errors are first-class frames: a server-side :class:`~repro.errors.
ReproError` is encoded as :data:`R_ERROR` with a stable numeric code and
re-raised client-side as the *same exception class* — the comm engine's
failover logic (`FETCH_ERRORS`) behaves identically across transports.
The codes live on the exception classes themselves
(:data:`repro.errors.WIRE_ERROR_CODES`), so adding a wire-visible error
is a one-place change and the numbers never shift.
"""

from __future__ import annotations

import json
import socket
import struct
from itertools import chain
from operator import attrgetter
from typing import Callable

from repro.dedup.stats import DedupStats
from repro.errors import (
    WIRE_ERROR_CODES,
    ProtocolError,
    ReproError,
    wire_code_for,
)
from repro.server.index import FileEntry
from repro.server.messages import FileManifest, RecipeEntry, ShareMeta, ShareUpload

__all__ = [
    "AUTH_NONCE_SIZE",
    "AUTH_PROOF_SIZE",
    "CONTROL_FRAMES",
    "FLAG_TRACE",
    "FRAMES",
    "Frame",
    "FrameTable",
    "GATEWAY_FRAMES",
    "GATEWAY_SERVER_ID",
    "LOCAL_ONLY_METHODS",
    "MAX_FRAME_BYTES",
    "METHOD_FRAMES",
    "MUX_FRAME_HEADER",
    "OBS_FRAMES",
    "REQUEST_ID_MAX",
    "SHARE_WIRE_OVERHEAD",
    "TRACE_CONTEXT_SIZE",
    "WIRE_VERSION",
    "decode_error",
    "decode_header",
    "encode_error",
    "encode_error_frame",
    "encode_mux_frame",
    "encode_trace_context",
    "frame_name",
    "read_frame_mux",
    "recv_exact",
    "render_spec",
    "split_trace_context",
]

#: The one protocol revision this build speaks (version 1, a serial
#: framing without the ``u32 request_id`` word, is retired).  Both
#: handshake frames carry it and each side checks the other's.
WIRE_VERSION = 2

_FRAME_MAGIC = 0xCD5E
#: Frame header: magic | frame type | request id | payload length.
MUX_FRAME_HEADER = struct.Struct(">HBII")

#: Request ids are u32; the client allocator wraps at this bound.
REQUEST_ID_MAX = 0xFFFFFFFF

#: Default hard cap on one frame's payload.  Upload batches and share
#: windows are 4 MB (§4.1); 16 MB leaves headroom for metadata-heavy
#: frames while still bounding a peer-driven allocation.
MAX_FRAME_BYTES = 16 << 20

_FP_SIZE = 32

#: Wire bytes one share adds to a :data:`R_SHARE_BATCH` beyond its payload
#: (fingerprint + length prefix).  The TCP server prices shares with this
#: so whole reply frames respect its frame budget.
SHARE_WIRE_OVERHEAD = _FP_SIZE + 4

#: PING/PONG capability flag: the sender supports the per-request trace
#: extension (:data:`TRACE_CONTEXT_SIZE`-byte trailer on request frames).
#: Carried in the optional trailing flags byte of both handshake frames;
#: a peer that omits the byte advertises nothing, so negotiation degrades
#: to "no trace" with no special case.
FLAG_TRACE = 0x01

#: Client/server nonces in the auth exchange are exactly this long.
AUTH_NONCE_SIZE = 16
#: HMAC-SHA256 digest length of the T_AUTH_PROOF payload.
AUTH_PROOF_SIZE = 32

#: ``server_id`` a gateway front-end reports in :data:`R_PONG` — a
#: gateway is not a cloud, so it answers with a value no cloud index can
#: take (the u32 maximum) instead of claiming slot 0.
GATEWAY_SERVER_ID = 0xFFFFFFFF

#: Protocol methods that never cross the wire (local lifecycle/recovery).
LOCAL_ONLY_METHODS: frozenset[str] = frozenset({"close", "recover"})

# ---------------------------------------------------------------------------
# field vocabulary
# ---------------------------------------------------------------------------

_U32 = struct.Struct(">I")


def _truncated() -> ProtocolError:
    return ProtocolError("frame payload truncated")


def _spell(fields) -> str:
    """A ``(name, kind)`` sequence as the spec prints it."""
    return " ".join(f"{name}:{kind.doc}" if name else kind.doc for name, kind in fields)


class Field:
    """One kind of payload field.

    ``doc`` is the token the spec prints for the kind.
    ``columns(values)`` is the wire form of a run of values as parallel
    iterables of byte strings (a ``sized`` is two: lengths and bodies),
    so a list packs column by column rather than value by value;
    ``unpack(blob, pos)`` reads one value and returns it with the
    position behind it, raising :class:`ProtocolError` when the bytes run
    out.  ``dump``/``load`` convert between the value callers see and the
    raw form the kind carries (a ``str`` and its UTF-8 bytes, a record
    and its packing).
    """

    def __init__(self, doc: str, dump=None, load=None) -> None:
        self.doc, self.dump, self.load = doc, dump, load

    def pack(self, value, out: list[bytes]) -> None:
        """Append the wire bytes of one value to ``out``."""
        for column in self.columns((value,)):
            out.extend(column)


class Fixed(Field):
    """A fixed-width kind: one ``struct`` item of format ``fmt``.

    The ``dump`` of a byte-string item (``"32s"``) must return exactly
    the item's bytes, so packing it is no more than that call.
    """

    def __init__(self, doc: str, fmt: str, dump=None, load=None) -> None:
        super().__init__(doc, dump, load)
        self.struct = struct.Struct(">" + fmt)
        if fmt.endswith("s"):
            self.tobytes = dump
        elif dump is None:
            self.tobytes = self.struct.pack
        else:
            self.tobytes = lambda value: self.struct.pack(dump(value))

    def columns(self, values):
        return [map(self.tobytes, values)]

    def unpack(self, blob, pos):
        try:
            (value,) = self.struct.unpack_from(blob, pos)
        except struct.error:
            raise _truncated() from None
        return (self.load(value) if self.load else value), pos + self.struct.size


class Sized(Field):
    """A ``u32`` length, then that many bytes."""

    def columns(self, values):
        if self.dump:
            values = list(map(self.dump, values))
        return [map(_U32.pack, map(len, values)), values]

    def unpack(self, blob, pos):
        try:
            (length,) = _U32.unpack_from(blob, pos)
        except struct.error:
            raise _truncated() from None
        pos += 4
        end = pos + length
        if end > len(blob):
            raise _truncated()
        return (self.load(blob[pos:end]) if self.load else blob[pos:end]), end


class Rest(Field):
    """Every remaining payload byte — only legal as a row's last field."""

    def columns(self, values):
        return [map(self.dump, values)]

    def unpack(self, blob, pos):
        return self.load(blob[pos:]), len(blob)


class ListOf(Field):
    """A ``u32`` count, then that many elements.

    One bare item kind makes the elements bare values; several
    ``(name, kind)`` items make them tuples, or ``into(*items)`` objects
    whose attributes carry the item names.
    """

    def __init__(self, *items, into=None) -> None:
        self.bare = isinstance(items[0], Field)
        self.items = (("", items[0]),) if self.bare else items
        self.into = into
        super().__init__(f"list({_spell(self.items)})")

    def pack(self, values, out):
        out.append(_U32.pack(len(values)))
        if not values:
            return
        if self.bare:
            columns = self.items[0][1].columns(values)
        else:
            if self.into is not None:
                values = map(attrgetter(*(name for name, _ in self.items)), values)
            columns = [
                column
                for (_, kind), run in zip(self.items, zip(*values, strict=True), strict=True)
                for column in kind.columns(run)
            ]
        out.extend(columns[0] if len(columns) == 1 else chain.from_iterable(zip(*columns)))

    def unpack(self, blob, pos):
        count, pos = u32.unpack(blob, pos)
        kinds = [kind for _, kind in self.items]
        if self.bare and isinstance(kinds[0], Fixed):
            # Fixed-width elements: bound the whole list once, unpack in bulk.
            (kind,) = kinds
            end = pos + count * kind.struct.size
            if end > len(blob):
                raise _truncated()
            raws = kind.struct.iter_unpack(memoryview(blob)[pos:end])
            if kind.load is None:
                return [raw for (raw,) in raws], end
            return [kind.load(raw) for (raw,) in raws], end
        elements = []
        for _ in range(count):
            element = []
            for kind in kinds:
                value, pos = kind.unpack(blob, pos)
                element.append(value)
            if self.bare:
                elements.append(element[0])
            elif self.into is not None:
                elements.append(self.into(*element))
            else:
                elements.append(tuple(element))
        return elements, pos


def _utf8(blob: bytes) -> str:
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"bad UTF-8 in frame: {exc}") from exc


def _load_bool(byte: int) -> bool:
    if byte > 1:
        raise ProtocolError(f"bool field holds {byte}, not 0 or 1")
    return byte == 1


def _load_flags(blob: bytes) -> int:
    if len(blob) > 1:
        raise ProtocolError(f"{len(blob) - 1} trailing bytes after frame payload")
    return blob[0] if blob else 0


def raw(size: int, doc: str | None = None) -> Fixed:
    """Exactly ``size`` raw bytes (``doc`` names a kind the spec defines)."""
    doc = doc or f"raw({size})"

    def exactly(blob: bytes) -> bytes:
        if len(blob) != size:
            raise ProtocolError(f"{doc} must be {size} bytes, got {len(blob)}")
        return blob

    return Fixed(doc, f"{size}s", dump=exactly)


def packed(record, prefixed: bool = False) -> Field:
    """A record that packs itself (``pack()`` / ``unpack(blob)``).

    One with a ``packed_size()`` is fixed-width; a variable one travels
    length-``prefixed`` or, bare, as the rest of the payload.
    """
    if hasattr(record, "packed_size"):
        return Fixed(record.__name__, f"{record.packed_size()}s", record.pack, record.unpack)
    if prefixed:
        return Sized(f"sized({record.__name__})", record.pack, record.unpack)
    return Rest(record.__name__, record.pack, record.unpack)


u8 = Fixed("u8", "B")
u16 = Fixed("u16", "H")
u32 = Fixed("u32", "I")
u64 = Fixed("u64", "Q")
i64 = Fixed("i64", "q")
boolean = Fixed("bool", "B", dump=bool, load=_load_bool)
fingerprint = raw(_FP_SIZE, "fingerprint")
sized = Sized("sized")
string = Sized("string", dump=str.encode, load=_utf8)
#: A ``string`` that, leading a request, is the user id the dispatcher
#: pins to the authenticated tenant.
user = Sized("string", dump=str.encode, load=_utf8)
#: One optional trailing byte, appended only when nonzero (PING/PONG).
flags = Rest("[u8]", lambda value: bytes([value]) if value else b"", _load_flags)
listof = ListOf

_STATS_FIELDS = (
    "logical_data",
    "logical_shares",
    "transferred_shares",
    "physical_shares",
    "secrets_total",
    "shares_total",
    "shares_transferred",
    "shares_stored",
)
_STATS_STRUCT = struct.Struct(f">{len(_STATS_FIELDS)}q")

#: The server's dedup counters as one struct of :data:`_STATS_FIELDS`.
dedup_stats = Fixed(
    f"{len(_STATS_FIELDS)}×i64 ({', '.join(_STATS_FIELDS)})",
    f"{_STATS_STRUCT.size}s",
    dump=lambda stats: _STATS_STRUCT.pack(*(getattr(stats, name) for name in _STATS_FIELDS)),
    load=lambda blob: DedupStats(**dict(zip(_STATS_FIELDS, _STATS_STRUCT.unpack(blob)))),
)


def _dump_snapshot(snapshot: dict) -> bytes:
    if "version" not in snapshot:
        raise ProtocolError("obs snapshot must carry a 'version' key")
    return json.dumps(snapshot, sort_keys=True).encode("utf-8")


def _load_snapshot(blob: bytes) -> dict:
    try:
        snapshot = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad obs stats payload: {exc}") from exc
    if not isinstance(snapshot, dict) or "version" not in snapshot:
        raise ProtocolError("obs stats payload is not a versioned snapshot")
    return snapshot


#: The observability snapshot is a JSON document, not packed structs: its
#: schema evolves with the metric catalogue (every release adds
#: metrics), and the frame is an admin/ops surface where flexibility
#: beats the few KB a binary encoding would save.  The embedded
#: ``version`` key (repro.obs.registry.SNAPSHOT_VERSION) is the
#: compatibility contract.
obs_snapshot = Rest("json", _dump_snapshot, _load_snapshot)

# ---------------------------------------------------------------------------
# the frame table
# ---------------------------------------------------------------------------


class Frame(int):
    """One row of the frame table: a frame-type byte that knows its frame.

    It *is* the byte — ``wire.T_PING == 0x01``, usable wherever an int is
    — so whatever names a frame holds its row.  ``fields`` is the payload
    layout, ``(name, kind)`` pairs in wire order; a row whose first kind
    is :data:`user` has that field pinned to the authenticated tenant.  A
    request also names its ``reply`` frame (or the ``(mid, end)`` pair of
    a streamed reply), the :class:`~repro.server.protocol.
    CDStoreServerAPI` ``method`` (or methods) it carries — its field
    names are then the method's parameter names, because the dispatcher
    calls by keyword — or else its ``tier`` (``"control"``: connection
    machinery, legal before authentication; ``"gateway"``; ``"obs"``),
    and whether it is reserved to the ``admin`` role when a tenant
    registry is active.  ``note`` is free text for the spec table.
    """

    def __new__(
        cls, byte: int, *fields: tuple[str, Field], reply=None,
        method: str | tuple[str, ...] = (), tier: str | None = None,
        admin: bool = False, note: str = "",
    ):
        self = super().__new__(cls, byte)
        self.name = f"0x{byte:02X}"  # FrameTable.register gives the real one
        self.fields = fields
        self.mid, self.reply = reply if isinstance(reply, tuple) else (None, reply)
        self.methods = (method,) if isinstance(method, str) else method
        self.tier = "api" if self.methods else tier
        self.admin = admin
        self.pins_user = bool(fields) and fields[0][1] is user
        self.note = note
        if (self.reply is None) != (self.tier is None):
            raise ValueError("a request names its reply and a method or tier")
        return self

    def encode(self, *values) -> bytes:
        """The payload carrying ``values``, one per field."""
        out: list[bytes] = []
        try:
            for (_, kind), value in zip(self.fields, values, strict=True):
                kind.pack(value, out)
        except struct.error as exc:
            raise ProtocolError(f"{self.name} cannot carry these fields: {exc}") from exc
        return b"".join(out)

    def decode(self, payload: bytes) -> tuple:
        """The field values of ``payload``, which must hold nothing else."""
        pos = 0
        values = []
        for _, kind in self.fields:
            value, pos = kind.unpack(payload, pos)
            values.append(value)
        if pos != len(payload):
            raise ProtocolError(f"{len(payload) - pos} trailing bytes after frame payload")
        return tuple(values)

    def encode_result(self, result) -> bytes:
        """Encode what a server method returned: ``None`` for an empty
        layout, the value itself for one field, a tuple for several."""
        if len(self.fields) == 1:
            return self.encode(result)
        return self.encode(*(result or ()))

    def decode_result(self, payload: bytes):
        """Inverse of :meth:`encode_result`."""
        values = self.decode(payload)
        return values[0] if len(values) == 1 else values or None


class FrameTable(dict):
    """Frame byte -> :class:`Frame`, refusing to map one byte twice."""

    def register(self, name: str, frame: Frame) -> None:
        if frame in self:
            raise ValueError(f"frame byte 0x{frame:02X} is both {self[frame].name} and {name}")
        for answer in (frame.mid, frame.reply):
            if answer is not None and self.get(answer) is not answer:
                raise ValueError(f"{name} is answered by an unregistered frame")
        frame.name = name
        self[int(frame)] = frame


# Responses (server -> client).
R_OK = Frame(0x80)
R_PONG = Frame(0x81, ("version", u16), ("server_id", u32), ("flags", flags))
R_BOOLS = Frame(0x82, ("known", listof(boolean)), note="one per queried fingerprint, in order")
R_FILE_ENTRY = Frame(0x83, ("entry", packed(FileEntry)))
R_RECIPE = Frame(0x84, ("entries", listof(packed(RecipeEntry))))
R_FILE_LIST = Frame(
    0x85, ("files", listof(("lookup_key", sized), ("entry", packed(FileEntry, prefixed=True))))
)
R_SHARE_BATCH = Frame(
    0x86,
    ("shares", listof(("fingerprint", fingerprint), ("data", sized))),
    note="one bounded batch of a fetch stream",
)
R_SHARES_END = Frame(
    0x87,
    ("total", u32),
    note="terminal frame of a fetch stream; total shares streamed (client cross-checks)",
)
R_INT = Frame(0x88, ("value", i64))
R_FP_LIST = Frame(0x89, ("fingerprints", listof(fingerprint)))
R_STATS = Frame(0x8A, ("stats", dedup_stats))
R_BACKUP_LIST = Frame(0x8B, ("backups", listof(("user_id", string), ("lookup_key", sized))))
R_AUTH_CHALLENGE = Frame(0x8C, ("server_nonce", raw(AUTH_NONCE_SIZE)), note="fresh per attempt")
R_AUTH_OK = Frame(0x8D, ("role", string), note='`"user"` or `"admin"`')
R_GW_BACKUP = Frame(
    0x8E,
    ("file_size", u64),
    ("secret_sizes", listof(u32)),
    ("windows", listof(("start", u32), ("end", u32))),
    note="the gateway's resolved restore plan (§8)",
)
R_GW_SHARD = Frame(
    0x8F,
    ("server_id", u32),
    ("shares", listof(sized)),
    note="one replica's shares for the requested window, in sequence order",
)
R_GW_WINDOW_END = Frame(
    0x90,
    ("shard_count", u32),
    note="terminal frame of a shard stream; shards streamed (client cross-checks)",
)
R_OBS_STATS = Frame(
    0x91,
    ("snapshot", obs_snapshot),
    note='observability snapshot with a mandatory top-level `"version"` key (§9)',
)
R_ERROR = Frame(0xFF, ("code", u8), ("message", sized), note="§6; the message is UTF-8 text")

_USER = ("user_id", user)
_USER_KEY = (_USER, ("lookup_key", sized))

# Requests (client -> server).
T_PING = Frame(0x01, ("version", u16), ("flags", flags), reply=R_PONG, tier="control")
T_QUERY_DUPLICATES = Frame(
    0x02, _USER, ("fingerprints", listof(fingerprint)), reply=R_BOOLS, method="query_duplicates"
)
T_UPLOAD_SHARES = Frame(
    0x03,
    _USER,
    ("uploads", listof(("meta", packed(ShareMeta)), ("data", sized), into=ShareUpload)),
    reply=R_OK,
    method="upload_shares",
)
T_FINALIZE_FILE = Frame(
    0x04,
    _USER,
    ("manifest", packed(FileManifest, prefixed=True)),
    ("share_metas", listof(packed(ShareMeta))),
    reply=R_OK,
    method="finalize_file",
)
T_GET_FILE_ENTRY = Frame(0x05, *_USER_KEY, reply=R_FILE_ENTRY, method="get_file_entry")
T_GET_RECIPE = Frame(
    0x06, *_USER_KEY, ("bypass_cache", boolean), reply=R_RECIPE, method="get_recipe"
)
T_LIST_FILES = Frame(0x07, _USER, reply=R_FILE_LIST, method="list_files")
T_FETCH_SHARES = Frame(
    0x08,
    ("fingerprints", listof(fingerprint)),
    reply=(R_SHARE_BATCH, R_SHARES_END),
    method=("fetch_shares", "iter_share_batches"),
)
T_DELETE_FILE = Frame(0x09, *_USER_KEY, reply=R_INT, method="delete_file")
T_COLLECT_GARBAGE = Frame(0x0A, reply=R_INT, method="collect_garbage", admin=True)
T_SCRUB = Frame(0x0B, reply=R_FP_LIST, method="scrub", admin=True)
# Any authenticated tenant may flush: it only makes their own (and
# everyone's) buffered writes durable, revealing nothing.
T_FLUSH = Frame(0x0C, reply=R_OK, method="flush")
T_STATS = Frame(0x0D, reply=R_STATS, method="stats", admin=True)
T_STORED_BYTES = Frame(0x0E, reply=R_INT, method="stored_bytes", admin=True)
T_REPLACE_SHARE = Frame(
    0x0F,
    ("server_fp", fingerprint),
    ("data", sized),
    reply=R_OK,
    method="replace_share",
    admin=True,
)
T_REBUILD_RECIPE = Frame(
    0x10,
    *_USER_KEY,
    ("entries", listof(packed(RecipeEntry))),
    reply=R_OK,
    method="rebuild_recipe",
    admin=True,
)
T_LIST_BACKUPS = Frame(0x11, reply=R_BACKUP_LIST, method="list_backups", admin=True)
T_AUTH = Frame(
    0x12,
    ("tenant_id", string),
    ("client_nonce", raw(AUTH_NONCE_SIZE)),
    reply=R_AUTH_CHALLENGE,
    tier="control",
)
T_AUTH_PROOF = Frame(0x13, ("proof", raw(AUTH_PROOF_SIZE)), reply=R_AUTH_OK, tier="control")
# Gateway requests (client -> repro gateway; see repro.gateway).
T_GW_RESOLVE = Frame(0x14, *_USER_KEY, reply=R_GW_BACKUP, tier="gateway")
T_GW_WINDOW = Frame(
    0x15,
    *_USER_KEY,
    ("window_index", u32),
    reply=(R_GW_SHARD, R_GW_WINDOW_END),
    tier="gateway",
)
# Observability: the versioned metrics/span snapshot of any front-end.
T_OBS_STATS = Frame(0x16, reply=R_OBS_STATS, tier="obs", admin=True)


def _collect_frames(namespace: dict) -> FrameTable:
    table = FrameTable()
    for name, value in namespace.items():
        if isinstance(value, Frame):
            table.register(name, value)
    return table


#: The frame table: every ``T_*``/``R_*`` row above, by frame byte.  A
#: byte declared twice fails the import.
FRAMES = _collect_frames(globals())

_REQUESTS = [row for row in FRAMES.values() if row.reply is not None]

#: Server-surface method -> request frame that carries it.  With
#: :data:`LOCAL_ONLY_METHODS` this is exactly the public surface of
#: :class:`repro.server.protocol.CDStoreServerAPI` (held by test).
METHOD_FRAMES: dict[str, int] = {method: row for row in _REQUESTS for method in row.methods}

#: Request frames that are connection machinery, not server-API methods:
#: the version handshake and the tenant authentication exchange.
CONTROL_FRAMES: frozenset[int] = frozenset(row for row in _REQUESTS if row.tier == "control")

#: Request frames carried by the read-gateway surface
#: (:class:`repro.gateway.service.GatewayService`), not the
#: :class:`~repro.server.protocol.CDStoreServerAPI`.  A front-end
#: without a gateway answers them with ``ProtocolError``.
GATEWAY_FRAMES: frozenset[int] = frozenset(row for row in _REQUESTS if row.tier == "gateway")

#: Observability request frames: served by *every* front-end (server or
#: gateway) from its own dispatcher, not from the
#: :class:`~repro.server.protocol.CDStoreServerAPI` surface.
OBS_FRAMES: frozenset[int] = frozenset(row for row in _REQUESTS if row.tier == "obs")


def frame_name(frame_type: int) -> str:
    """Human label for a frame byte (``"PING"``, ``"GW_WINDOW"``, …).

    Used as the ``frame`` label on dispatch latency histograms and in
    span names, so exposition stays readable without a byte/name lookup
    table at the consumer.  Unknown bytes render as hex.
    """
    row = FRAMES.get(frame_type)
    return row.name[2:] if row is not None else f"0x{frame_type:02x}"


# ---------------------------------------------------------------------------
# typed error frames
# ---------------------------------------------------------------------------


def encode_error(exc: ReproError) -> bytes:
    """Encode a server-side error as an :data:`R_ERROR` payload.

    The code is the exception class's stable ``wire_code`` (an unlisted
    subclass inherits its nearest registered ancestor's), so the peer
    re-raises the same class — or the closest family an older peer knows.
    """
    # NotFoundError inherits KeyError, whose str() quotes the message.
    message = exc.args[0] if exc.args else str(exc)
    return R_ERROR.encode(wire_code_for(exc), str(message).encode("utf-8"))


def decode_error(payload: bytes) -> ReproError:
    """Rebuild the typed exception an :data:`R_ERROR` payload carries."""
    code, blob = R_ERROR.decode(payload)
    message = blob.decode("utf-8", errors="replace")
    cls = WIRE_ERROR_CODES.get(code)
    if cls is None:
        return ProtocolError(f"peer error with unknown code {code}: {message}")
    return cls(message)


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def encode_mux_frame(
    frame_type: int,
    request_id: int,
    payload: bytes = b"",
    max_frame: int = MAX_FRAME_BYTES,
) -> bytes:
    """One complete request-id-tagged frame, ready for the socket."""
    if not 0 <= request_id <= REQUEST_ID_MAX:
        raise ProtocolError(f"request id {request_id} outside u32 range")
    if len(payload) > max_frame:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{max_frame}-byte cap"
        )
    return (
        MUX_FRAME_HEADER.pack(_FRAME_MAGIC, frame_type, request_id, len(payload))
        + payload
    )


def encode_error_frame(request_id: int, exc: ReproError) -> bytes:
    """One complete :data:`R_ERROR` frame answering ``request_id``.

    ``request_id`` 0 marks a connection-level error (connection cap,
    bad magic, oversized length) that answers no particular request.
    """
    return encode_mux_frame(R_ERROR, request_id, encode_error(exc))


def decode_header(raw: bytes, max_frame: int = MAX_FRAME_BYTES) -> tuple[int, int, int]:
    """Parse one frame header; returns ``(type, request_id, length)``.

    Raises :class:`ProtocolError` on a bad magic word or an oversized
    length *before* the payload is read, so a hostile length field never
    drives an allocation.
    """
    magic, frame_type, request_id, length = MUX_FRAME_HEADER.unpack(raw)
    if magic != _FRAME_MAGIC:
        raise ProtocolError(f"bad frame magic 0x{magic:04x} (desynchronised?)")
    if length > max_frame:
        raise ProtocolError(
            f"incoming frame of {length} bytes exceeds the {max_frame}-byte cap"
        )
    return frame_type, request_id, length


def read_frame_mux(
    recv: Callable[[int], bytes], max_frame: int = MAX_FRAME_BYTES
) -> tuple[int, int, bytes]:
    """Read one frame via ``recv(n) -> exactly n bytes``.

    Returns ``(type, request_id, payload)``; ``recv`` raises
    :class:`ConnectionError` on EOF (see :func:`recv_exact`).
    """
    frame_type, request_id, length = decode_header(
        recv(MUX_FRAME_HEADER.size), max_frame
    )
    return frame_type, request_id, recv(length) if length else b""


def recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`ConnectionError` on EOF."""
    parts = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


# ---------------------------------------------------------------------------
# trace extension (negotiated via FLAG_TRACE)
# ---------------------------------------------------------------------------

#: Bytes of the per-request trace trailer: 16-byte trace id + u64 parent
#: span id.  When both sides negotiated :data:`FLAG_TRACE`, **every**
#: non-control request frame carries the trailer (an untraced request
#: carries all zeroes) — fixed presence, so no in-band marker is needed
#: and the strict codecs never see the extra bytes.
TRACE_CONTEXT_SIZE = 16 + 8

_TRACE_SPAN = struct.Struct(">Q")


def encode_trace_context(trace_id: bytes, span_id: int) -> bytes:
    """The request-frame trailer carrying the caller's trace context."""
    if len(trace_id) != TRACE_CONTEXT_SIZE - _TRACE_SPAN.size:
        raise ProtocolError(
            f"trace id must be {TRACE_CONTEXT_SIZE - _TRACE_SPAN.size} bytes, "
            f"got {len(trace_id)}"
        )
    return trace_id + _TRACE_SPAN.pack(span_id)


def split_trace_context(payload: bytes) -> tuple[bytes, int, bytes]:
    """Strip the trailer: ``(trace_id, parent_span_id, inner_payload)``.

    Called by the dispatcher on trace-negotiated connections before any
    payload codec runs, so the codecs' exact-consumption contract
    (:meth:`_Reader.done`) holds unchanged.
    """
    if len(payload) < TRACE_CONTEXT_SIZE:
        raise ProtocolError(
            f"request frame of {len(payload)} bytes cannot carry the "
            f"{TRACE_CONTEXT_SIZE}-byte trace context"
        )
    trailer = payload[-TRACE_CONTEXT_SIZE:]
    trace_id = trailer[: -_TRACE_SPAN.size]
    (span_id,) = _TRACE_SPAN.unpack(trailer[-_TRACE_SPAN.size:])
    return trace_id, span_id, payload[:-TRACE_CONTEXT_SIZE]


# ---------------------------------------------------------------------------
# the spec tables (docs/PROTOCOL.md §4-§6 are generated from the code)
# ---------------------------------------------------------------------------


def render_spec() -> dict[str, str]:
    """The generated blocks of ``docs/PROTOCOL.md``, by marker name.

    ``request-frames`` (§4) and ``reply-frames`` (§5) come from
    :data:`FRAMES`, ``error-codes`` (§6) from
    :data:`~repro.errors.WIRE_ERROR_CODES` and the first docstring line
    of each class.  A test holds the document to this output;
    ``python -m repro.net.wire`` prints it.
    """

    def payload(row: Frame) -> str:
        text = f"`{_spell(row.fields)}`" if row.fields else "empty"
        return f"{text} — {row.note}" if row.note else text

    requests = [
        "| Frame | Byte | Carries | Request payload | Success reply |",
        "|---|---|---|---|---|",
    ]
    replies = ["| Frame | Byte | Payload |", "|---|---|---|"]
    for row in sorted(FRAMES.values()):
        if row.reply is None:
            replies.append(f"| `{row.name}` | `0x{row:02X}` | {payload(row)} |")
            continue
        carries = " / ".join(f"`{m}`" for m in row.methods) or f"— ({row.tier})"
        answer = f"`{row.reply.name}`"
        if row.mid is not None:
            answer = f"`{row.mid.name}`* then {answer}"
        requests.append(
            f"| `{row.name}`{' ⚑' if row.admin else ''} | `0x{row:02X}` "
            f"| {carries} | {payload(row)} | {answer} |"
        )
    errors = ["| Code | Class | Meaning |", "|---|---|---|"]
    for code, cls in sorted(WIRE_ERROR_CODES.items()):
        meaning = (cls.__doc__ or "").strip().splitlines()[0].replace("``", "`")
        errors.append(f"| {code} | `{cls.__name__}` | {meaning} |")
    return {
        "request-frames": "\n".join(requests),
        "reply-frames": "\n".join(replies),
        "error-codes": "\n".join(errors),
    }


if __name__ == "__main__":
    for marker, block in render_spec().items():
        print(f"<!-- generated:{marker} -->\n{block}\n<!-- /generated:{marker} -->\n")
