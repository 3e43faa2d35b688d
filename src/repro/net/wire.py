"""Binary wire protocol for the networked serving layer.

Everything crossing a socket between a :class:`~repro.net.client.
RemoteServerProxy` and a :class:`~repro.net.server.CDStoreTCPServer` (or
:class:`~repro.net.async_server.AsyncCDStoreTCPServer`) is a **frame**,
in one framing from the connection's first byte:

    u16 magic | u8 type | u32 request_id | u32 length | length bytes of payload

The magic word catches stream desynchronisation immediately (a frame read
mid-payload fails loudly instead of interpreting share bytes as headers),
the type selects one codec below, and the length is bounded by
``max_frame`` on both ends — a malicious or corrupted peer cannot make the
receiver allocate an arbitrary buffer.

The ``request_id`` is a correlation id: the server echoes a request's
id on every frame it emits for that request, so one socket carries many
concurrent in-flight requests and the client routes replies by id
instead of by arrival order.  Id 0 is the server's for connection-level
errors that answer no particular request.  The first exchange is
:data:`T_PING` / :data:`R_PONG`; both carry :data:`WIRE_VERSION`, and a
peer advertising any other version is answered with a typed
:class:`~repro.errors.ProtocolError`.

Payload codecs cover the full :class:`~repro.server.server.CDStoreServer`
surface and reuse the ``pack``/``unpack`` structs of
:mod:`repro.server.messages` and :mod:`repro.server.index`, so the bytes a
share travels in are identical whether the transport is a method call or a
socket.  Every decoder consumes its payload exactly: truncation *and*
trailing garbage raise :class:`~repro.errors.ProtocolError`.

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

# ---------------------------------------------------------------------------
# frame types
# ---------------------------------------------------------------------------

# Requests (client -> server).
T_PING = 0x01
T_QUERY_DUPLICATES = 0x02
T_UPLOAD_SHARES = 0x03
T_FINALIZE_FILE = 0x04
T_GET_FILE_ENTRY = 0x05
T_GET_RECIPE = 0x06
T_LIST_FILES = 0x07
T_FETCH_SHARES = 0x08
T_DELETE_FILE = 0x09
T_COLLECT_GARBAGE = 0x0A
T_SCRUB = 0x0B
T_FLUSH = 0x0C
T_STATS = 0x0D
T_STORED_BYTES = 0x0E
T_REPLACE_SHARE = 0x0F
T_REBUILD_RECIPE = 0x10
T_LIST_BACKUPS = 0x11
T_AUTH = 0x12
T_AUTH_PROOF = 0x13
# Gateway requests (client -> repro gateway; see repro.gateway).
T_GW_RESOLVE = 0x14
T_GW_WINDOW = 0x15
# Observability: fetch the versioned metrics/span snapshot (admin-gated).
T_OBS_STATS = 0x16

# Responses (server -> client).
R_OK = 0x80
R_PONG = 0x81
R_BOOLS = 0x82
R_FILE_ENTRY = 0x83
R_RECIPE = 0x84
R_FILE_LIST = 0x85
R_SHARE_BATCH = 0x86
R_SHARES_END = 0x87
R_INT = 0x88
R_FP_LIST = 0x89
R_STATS = 0x8A
R_BACKUP_LIST = 0x8B
R_AUTH_CHALLENGE = 0x8C
R_AUTH_OK = 0x8D
R_GW_BACKUP = 0x8E
R_GW_SHARD = 0x8F
R_GW_WINDOW_END = 0x90
R_OBS_STATS = 0x91
R_ERROR = 0xFF

def frame_name(frame_type: int) -> str:
    """Human label for a frame byte (``"PING"``, ``"GW_WINDOW"``, …).

    Used as the ``frame`` label on dispatch latency histograms and in
    span names, so exposition stays readable without a byte/name lookup
    table at the consumer.  Unknown bytes render as hex.
    """
    name = _FRAME_NAMES.get(frame_type)
    return name if name is not None else f"0x{frame_type:02x}"


def _build_frame_names() -> dict[int, str]:
    names: dict[int, str] = {}
    for name, value in globals().items():
        if isinstance(value, int) and (
            name.startswith("T_") or name.startswith("R_")
        ):
            names.setdefault(value, name[2:])
    return names


#: Server-surface method -> request frame that carries it.  This is the
#: single source of truth the WIRE-005 checker cross-checks against
#: :class:`repro.server.protocol.CDStoreServerAPI`: a method added to the
#: Protocol without a frame here (or vice versa) is a finding, so the
#: wire surface cannot silently drift from the API surface.
METHOD_FRAMES: dict[str, int] = {
    "query_duplicates": T_QUERY_DUPLICATES,
    "upload_shares": T_UPLOAD_SHARES,
    "finalize_file": T_FINALIZE_FILE,
    "get_file_entry": T_GET_FILE_ENTRY,
    "get_recipe": T_GET_RECIPE,
    "list_files": T_LIST_FILES,
    "fetch_shares": T_FETCH_SHARES,
    "iter_share_batches": T_FETCH_SHARES,
    "delete_file": T_DELETE_FILE,
    "collect_garbage": T_COLLECT_GARBAGE,
    "scrub": T_SCRUB,
    "flush": T_FLUSH,
    "stats": T_STATS,
    "stored_bytes": T_STORED_BYTES,
    "replace_share": T_REPLACE_SHARE,
    "rebuild_recipe": T_REBUILD_RECIPE,
    "list_backups": T_LIST_BACKUPS,
}

#: Request frames that are connection machinery, not server-API methods:
#: the version handshake and the tenant authentication exchange.
CONTROL_FRAMES: frozenset[int] = frozenset({T_PING, T_AUTH, T_AUTH_PROOF})

#: Request frames carried by the read-gateway surface
#: (:class:`repro.gateway.service.GatewayService`), not the
#: :class:`~repro.server.protocol.CDStoreServerAPI` — the WIRE-005
#: checker exempts these from METHOD_FRAMES exactly like control frames.
#: A front-end without a gateway answers them with ``ProtocolError``.
GATEWAY_FRAMES: frozenset[int] = frozenset({T_GW_RESOLVE, T_GW_WINDOW})

#: ``server_id`` a gateway front-end reports in :data:`R_PONG` — a
#: gateway is not a cloud, so it answers with a value no cloud index can
#: take (the u32 maximum) instead of claiming slot 0.
GATEWAY_SERVER_ID = 0xFFFFFFFF

#: Observability request frames: served by *every* front-end (server or
#: gateway) from its own dispatcher, not from the
#: :class:`~repro.server.protocol.CDStoreServerAPI` surface — the
#: WIRE-005 checker exempts these from METHOD_FRAMES exactly like
#: control and gateway frames.  Admin-gated when a tenant registry is
#: active (see :data:`repro.net.dispatch.ADMIN_FRAMES`).
OBS_FRAMES: frozenset[int] = frozenset({T_OBS_STATS})

#: Protocol methods that never cross the wire (local lifecycle/recovery).
LOCAL_ONLY_METHODS: frozenset[str] = frozenset({"close", "recover"})

#: Wire bytes one share adds to a :data:`R_SHARE_BATCH` beyond its payload
#: (fingerprint + length prefix).  The TCP server prices shares with this
#: so whole reply frames respect its frame budget.
SHARE_WIRE_OVERHEAD = _FP_SIZE + 4

# ---------------------------------------------------------------------------
# typed error frames
# ---------------------------------------------------------------------------


def encode_error(exc: ReproError) -> bytes:
    """Encode a server-side error as an :data:`R_ERROR` payload.

    The code is the exception class's stable ``wire_code`` (an unlisted
    subclass inherits its nearest registered ancestor's), so the peer
    re-raises the same class — or the closest family an older peer knows.
    """
    code = wire_code_for(exc)
    # NotFoundError inherits KeyError, whose str() quotes the message.
    message = exc.args[0] if exc.args else str(exc)
    blob = str(message).encode("utf-8")
    return struct.pack(">BI", code, len(blob)) + blob


def decode_error(payload: bytes) -> ReproError:
    """Rebuild the typed exception an :data:`R_ERROR` payload carries."""
    reader = _Reader(payload)
    code = reader.u8()
    message = reader.sized_bytes().decode("utf-8", errors="replace")
    reader.done()
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
# payload reader
# ---------------------------------------------------------------------------


class _Reader:
    """Bounds-checked cursor over one frame payload."""

    def __init__(self, blob: bytes) -> None:
        self._blob = blob
        self._pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self._pos + n > len(self._blob):
            raise ProtocolError("frame payload truncated")
        out = self._blob[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def i64(self) -> int:
        return struct.unpack(">q", self.take(8))[0]

    def sized_bytes(self) -> bytes:
        return self.take(self.u32())

    def string(self) -> str:
        try:
            return self.sized_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"bad UTF-8 in frame: {exc}") from exc

    def fingerprint(self) -> bytes:
        return self.take(_FP_SIZE)

    def done(self) -> None:
        if self._pos != len(self._blob):
            raise ProtocolError(
                f"{len(self._blob) - self._pos} trailing bytes after frame payload"
            )


def _sized(blob: bytes) -> bytes:
    return struct.pack(">I", len(blob)) + blob


def _string(text: str) -> bytes:
    return _sized(text.encode("utf-8"))


def _check_fp(fp: bytes) -> bytes:
    if len(fp) != _FP_SIZE:
        raise ProtocolError(f"fingerprint must be {_FP_SIZE} bytes, got {len(fp)}")
    return fp


# ---------------------------------------------------------------------------
# request codecs
# ---------------------------------------------------------------------------


#: PING/PONG capability flag: the sender supports the per-request trace
#: extension (:data:`TRACE_CONTEXT_SIZE`-byte trailer on request frames).
#: Carried in the optional trailing flags byte of both handshake frames;
#: a peer that omits the byte advertises nothing, so negotiation degrades
#: to "no trace" with no special case.
FLAG_TRACE = 0x01


def encode_ping(version: int = WIRE_VERSION, flags: int = 0) -> bytes:
    """T_PING carries the wire version the client speaks.

    ``flags`` (capability bits, :data:`FLAG_TRACE`) ride in an optional
    trailing byte appended only when nonzero.
    """
    blob = struct.pack(">H", version)
    if flags:
        blob += struct.pack(">B", flags)
    return blob


def decode_ping(payload: bytes) -> tuple[int, int]:
    """Returns ``(version, flags)``; a 2-byte PING has flags 0."""
    reader = _Reader(payload)
    version = struct.unpack(">H", reader.take(2))[0]
    flags = reader.u8() if len(payload) > 2 else 0
    reader.done()
    return version, flags


def encode_pong(server_id: int, version: int = WIRE_VERSION, flags: int = 0) -> bytes:
    """R_PONG answers with the server's wire version and cloud index.

    ``flags`` echoes the capabilities the server *accepted* (a subset of
    the PING's), in the same optional-trailing-byte shape.
    """
    blob = struct.pack(">HI", version, server_id)
    if flags:
        blob += struct.pack(">B", flags)
    return blob


def decode_pong(payload: bytes) -> tuple[int, int, int]:
    """Returns ``(version, server_id, flags)``; a 6-byte PONG has flags 0."""
    reader = _Reader(payload)
    version, server_id = struct.unpack(">HI", reader.take(6))
    flags = reader.u8() if len(payload) > 6 else 0
    reader.done()
    return version, server_id, flags


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


#: Client/server nonces in the auth exchange are exactly this long.
AUTH_NONCE_SIZE = 16
#: HMAC-SHA256 digest length of the T_AUTH_PROOF payload.
AUTH_PROOF_SIZE = 32


def _check_nonce(nonce: bytes) -> bytes:
    if len(nonce) != AUTH_NONCE_SIZE:
        raise ProtocolError(
            f"auth nonce must be {AUTH_NONCE_SIZE} bytes, got {len(nonce)}"
        )
    return nonce


def encode_auth(tenant_id: str, client_nonce: bytes) -> bytes:
    """T_AUTH: open the challenge-response exchange for ``tenant_id``."""
    return _string(tenant_id) + _check_nonce(client_nonce)


def decode_auth(payload: bytes) -> tuple[str, bytes]:
    reader = _Reader(payload)
    tenant_id = reader.string()
    client_nonce = reader.take(AUTH_NONCE_SIZE)
    reader.done()
    return tenant_id, client_nonce


def encode_auth_challenge(server_nonce: bytes) -> bytes:
    """R_AUTH_CHALLENGE: fresh per-connection nonce the proof must cover."""
    return _check_nonce(server_nonce)


def decode_auth_challenge(payload: bytes) -> bytes:
    reader = _Reader(payload)
    server_nonce = reader.take(AUTH_NONCE_SIZE)
    reader.done()
    return server_nonce


def encode_auth_proof(proof: bytes) -> bytes:
    """T_AUTH_PROOF: HMAC over both nonces + tenant id (see repro.tenants)."""
    if len(proof) != AUTH_PROOF_SIZE:
        raise ProtocolError(
            f"auth proof must be {AUTH_PROOF_SIZE} bytes, got {len(proof)}"
        )
    return proof


def decode_auth_proof(payload: bytes) -> bytes:
    reader = _Reader(payload)
    proof = reader.take(AUTH_PROOF_SIZE)
    reader.done()
    return proof


def encode_auth_ok(role: str) -> bytes:
    """R_AUTH_OK: handshake accepted; tells the client its granted role."""
    return _string(role)


def decode_auth_ok(payload: bytes) -> str:
    reader = _Reader(payload)
    role = reader.string()
    reader.done()
    return role


def encode_query_duplicates(user_id: str, fingerprints: list[bytes]) -> bytes:
    parts = [_string(user_id), struct.pack(">I", len(fingerprints))]
    parts.extend(_check_fp(fp) for fp in fingerprints)
    return b"".join(parts)


def decode_query_duplicates(payload: bytes) -> tuple[str, list[bytes]]:
    reader = _Reader(payload)
    user_id = reader.string()
    fingerprints = [reader.fingerprint() for _ in range(reader.u32())]
    reader.done()
    return user_id, fingerprints


def encode_upload_shares(user_id: str, uploads: list[ShareUpload]) -> bytes:
    parts = [_string(user_id), struct.pack(">I", len(uploads))]
    for upload in uploads:
        parts.append(upload.meta.pack())
        parts.append(_sized(upload.data))
    return b"".join(parts)


def decode_upload_shares(payload: bytes) -> tuple[str, list[ShareUpload]]:
    reader = _Reader(payload)
    user_id = reader.string()
    uploads = []
    for _ in range(reader.u32()):
        meta = ShareMeta.unpack(reader.take(ShareMeta.packed_size()))
        uploads.append(ShareUpload(meta=meta, data=reader.sized_bytes()))
    reader.done()
    return user_id, uploads


def encode_finalize_file(
    user_id: str, manifest: FileManifest, share_metas: list[ShareMeta]
) -> bytes:
    parts = [
        _string(user_id),
        _sized(manifest.pack()),
        struct.pack(">I", len(share_metas)),
    ]
    parts.extend(meta.pack() for meta in share_metas)
    return b"".join(parts)


def decode_finalize_file(payload: bytes) -> tuple[str, FileManifest, list[ShareMeta]]:
    reader = _Reader(payload)
    user_id = reader.string()
    manifest = FileManifest.unpack(reader.sized_bytes())
    metas = [
        ShareMeta.unpack(reader.take(ShareMeta.packed_size()))
        for _ in range(reader.u32())
    ]
    reader.done()
    return user_id, manifest, metas


def encode_user_key(user_id: str, lookup_key: bytes) -> bytes:
    """Shared request shape: get_file_entry / delete_file."""
    return _string(user_id) + _sized(lookup_key)


def decode_user_key(payload: bytes) -> tuple[str, bytes]:
    reader = _Reader(payload)
    user_id = reader.string()
    lookup_key = reader.sized_bytes()
    reader.done()
    return user_id, lookup_key


def encode_get_recipe(user_id: str, lookup_key: bytes, bypass_cache: bool) -> bytes:
    return _string(user_id) + _sized(lookup_key) + struct.pack(">B", int(bypass_cache))


def decode_get_recipe(payload: bytes) -> tuple[str, bytes, bool]:
    reader = _Reader(payload)
    user_id = reader.string()
    lookup_key = reader.sized_bytes()
    bypass = reader.u8()
    reader.done()
    if bypass not in (0, 1):
        raise ProtocolError(f"bad bypass_cache flag {bypass}")
    return user_id, lookup_key, bool(bypass)


def encode_user(user_id: str) -> bytes:
    return _string(user_id)


def decode_user(payload: bytes) -> str:
    reader = _Reader(payload)
    user_id = reader.string()
    reader.done()
    return user_id


def encode_fp_list(fingerprints: list[bytes]) -> bytes:
    parts = [struct.pack(">I", len(fingerprints))]
    parts.extend(_check_fp(fp) for fp in fingerprints)
    return b"".join(parts)


def decode_fp_list(payload: bytes) -> list[bytes]:
    reader = _Reader(payload)
    fingerprints = [reader.fingerprint() for _ in range(reader.u32())]
    reader.done()
    return fingerprints


#: A fetch request body is exactly a fingerprint list (so is the scrub
#: reply, below) — one codec, two names at the call sites.
encode_fetch_shares = encode_fp_list
decode_fetch_shares = decode_fp_list


def encode_replace_share(server_fp: bytes, data: bytes) -> bytes:
    return _check_fp(server_fp) + _sized(data)


def decode_replace_share(payload: bytes) -> tuple[bytes, bytes]:
    reader = _Reader(payload)
    server_fp = reader.fingerprint()
    data = reader.sized_bytes()
    reader.done()
    return server_fp, data


def encode_rebuild_recipe(
    user_id: str, lookup_key: bytes, entries: list[RecipeEntry]
) -> bytes:
    parts = [_string(user_id), _sized(lookup_key), struct.pack(">I", len(entries))]
    parts.extend(entry.pack() for entry in entries)
    return b"".join(parts)


def decode_rebuild_recipe(payload: bytes) -> tuple[str, bytes, list[RecipeEntry]]:
    reader = _Reader(payload)
    user_id = reader.string()
    lookup_key = reader.sized_bytes()
    entries = [
        RecipeEntry.unpack(reader.take(RecipeEntry.packed_size()))
        for _ in range(reader.u32())
    ]
    reader.done()
    return user_id, lookup_key, entries


# ---------------------------------------------------------------------------
# response codecs
# ---------------------------------------------------------------------------


def encode_bools(values: list[bool]) -> bytes:
    return struct.pack(">I", len(values)) + bytes(int(bool(v)) for v in values)


def decode_bools(payload: bytes) -> list[bool]:
    reader = _Reader(payload)
    count = reader.u32()
    flags = reader.take(count)
    reader.done()
    if any(flag not in (0, 1) for flag in flags):
        raise ProtocolError("bool frame contains non-0/1 byte")
    return [bool(flag) for flag in flags]


def encode_file_entry(entry: FileEntry) -> bytes:
    return entry.pack()


def decode_file_entry(payload: bytes) -> FileEntry:
    return FileEntry.unpack(payload)


def encode_recipe(entries: list[RecipeEntry]) -> bytes:
    return struct.pack(">I", len(entries)) + b"".join(e.pack() for e in entries)


def decode_recipe(payload: bytes) -> list[RecipeEntry]:
    reader = _Reader(payload)
    entries = [
        RecipeEntry.unpack(reader.take(RecipeEntry.packed_size()))
        for _ in range(reader.u32())
    ]
    reader.done()
    return entries


def encode_file_list(listing: list[tuple[bytes, FileEntry]]) -> bytes:
    parts = [struct.pack(">I", len(listing))]
    for lookup_key, entry in listing:
        parts.append(_sized(lookup_key))
        parts.append(_sized(entry.pack()))
    return b"".join(parts)


def decode_file_list(payload: bytes) -> list[tuple[bytes, FileEntry]]:
    reader = _Reader(payload)
    out = []
    for _ in range(reader.u32()):
        lookup_key = reader.sized_bytes()
        out.append((lookup_key, FileEntry.unpack(reader.sized_bytes())))
    reader.done()
    return out


def encode_share_batch(batch: list[tuple[bytes, bytes]]) -> bytes:
    parts = [struct.pack(">I", len(batch))]
    for fp, payload in batch:
        parts.append(_check_fp(fp))
        parts.append(_sized(payload))
    return b"".join(parts)


def decode_share_batch(payload: bytes) -> list[tuple[bytes, bytes]]:
    reader = _Reader(payload)
    out = []
    for _ in range(reader.u32()):
        fp = reader.fingerprint()
        out.append((fp, reader.sized_bytes()))
    reader.done()
    return out


def encode_shares_end(total: int) -> bytes:
    return struct.pack(">I", total)


def decode_shares_end(payload: bytes) -> int:
    reader = _Reader(payload)
    total = reader.u32()
    reader.done()
    return total


def encode_int(value: int) -> bytes:
    return struct.pack(">q", value)


def decode_int(payload: bytes) -> int:
    reader = _Reader(payload)
    value = reader.i64()
    reader.done()
    return value


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


def encode_stats(stats: DedupStats) -> bytes:
    return _STATS_STRUCT.pack(*(getattr(stats, field) for field in _STATS_FIELDS))


def decode_stats(payload: bytes) -> DedupStats:
    reader = _Reader(payload)
    values = _STATS_STRUCT.unpack(reader.take(_STATS_STRUCT.size))
    reader.done()
    return DedupStats(**dict(zip(_STATS_FIELDS, values)))


# T_OBS_STATS carries no request body; its reply is a JSON document, not
# packed structs: the snapshot schema evolves with the metric catalogue
# (every release adds metrics), and the frame is an admin/ops surface
# where flexibility beats the few KB a binary encoding would save.  The
# embedded ``version`` key (repro.obs.registry.SNAPSHOT_VERSION) is the
# compatibility contract.


def encode_obs_stats(snapshot: dict) -> bytes:
    """R_OBS_STATS: one versioned observability snapshot, JSON-encoded."""
    if "version" not in snapshot:
        raise ProtocolError("obs snapshot must carry a 'version' key")
    return json.dumps(snapshot, sort_keys=True).encode("utf-8")


def decode_obs_stats(payload: bytes) -> dict:
    try:
        snapshot = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad obs stats payload: {exc}") from exc
    if not isinstance(snapshot, dict) or "version" not in snapshot:
        raise ProtocolError("obs stats payload is not a versioned snapshot")
    return snapshot


def encode_backup_list(backups: list[tuple[str, bytes]]) -> bytes:
    parts = [struct.pack(">I", len(backups))]
    for user_id, lookup_key in backups:
        parts.append(_string(user_id))
        parts.append(_sized(lookup_key))
    return b"".join(parts)


def decode_backup_list(payload: bytes) -> list[tuple[str, bytes]]:
    reader = _Reader(payload)
    out = []
    for _ in range(reader.u32()):
        user_id = reader.string()
        out.append((user_id, reader.sized_bytes()))
    reader.done()
    return out


# ---------------------------------------------------------------------------
# Gateway codecs (repro gateway read tier; see repro.gateway)
# ---------------------------------------------------------------------------

#: A resolve request body is exactly the shared user/key shape.
encode_gw_resolve = encode_user_key
decode_gw_resolve = decode_user_key


def encode_gw_backup(
    file_size: int,
    secret_sizes: list[int],
    windows: list[tuple[int, int]],
) -> bytes:
    """R_GW_BACKUP: the gateway's resolved restore plan for one backup."""
    parts = [struct.pack(">QI", file_size, len(secret_sizes))]
    parts.extend(struct.pack(">I", size) for size in secret_sizes)
    parts.append(struct.pack(">I", len(windows)))
    parts.extend(struct.pack(">II", start, end) for start, end in windows)
    return b"".join(parts)


def decode_gw_backup(payload: bytes) -> tuple[int, list[int], list[tuple[int, int]]]:
    reader = _Reader(payload)
    file_size = reader.u64()
    secret_sizes = [reader.u32() for _ in range(reader.u32())]
    windows = [(reader.u32(), reader.u32()) for _ in range(reader.u32())]
    reader.done()
    return file_size, secret_sizes, windows


def encode_gw_window(user_id: str, lookup_key: bytes, window_index: int) -> bytes:
    """T_GW_WINDOW: fetch one resolved window's shards from the gateway."""
    return _string(user_id) + _sized(lookup_key) + struct.pack(">I", window_index)


def decode_gw_window(payload: bytes) -> tuple[str, bytes, int]:
    reader = _Reader(payload)
    user_id = reader.string()
    lookup_key = reader.sized_bytes()
    window_index = reader.u32()
    reader.done()
    return user_id, lookup_key, window_index


def encode_gw_shard(server_id: int, shares: list[bytes]) -> bytes:
    """R_GW_SHARD: one replica's shares for the window, in sequence order."""
    parts = [struct.pack(">II", server_id, len(shares))]
    parts.extend(_sized(share) for share in shares)
    return b"".join(parts)


def decode_gw_shard(payload: bytes) -> tuple[int, list[bytes]]:
    reader = _Reader(payload)
    server_id = reader.u32()
    shares = [reader.sized_bytes() for _ in range(reader.u32())]
    reader.done()
    return server_id, shares


def encode_gw_window_end(shard_count: int) -> bytes:
    """R_GW_WINDOW_END: terminates a shard stream; echoes the shard count."""
    return struct.pack(">I", shard_count)


def decode_gw_window_end(payload: bytes) -> int:
    reader = _Reader(payload)
    count = reader.u32()
    reader.done()
    return count


#: Frame byte -> short name ("PING", "OBS_STATS", …); built once all
#: constants above exist.
_FRAME_NAMES = _build_frame_names()
