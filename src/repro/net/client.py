"""Remote server proxies: the client side of the networked serving layer.

A :class:`RemoteServerProxy` duck-types the :class:`~repro.server.server.
CDStoreServer` surface the comm engine, :class:`~repro.client.client.
CDStoreClient` and :class:`~repro.system.cdstore.CDStoreSystem` already
consume — same methods, same typed exceptions — so every higher layer
(per-cloud workers, streaming windows, window-granular spare failover,
repair walks) runs unchanged whether a "server" is an object or an
address.

Connection discipline:

* **one socket, lazily connected, re-established on the next call after
  any failure** — the proxy never retries a failed request itself.  A
  request that dies mid-flight surfaces as
  :class:`~repro.errors.CloudUnavailableError`, which is exactly the
  ``FETCH_ERRORS`` class the comm engine's per-window failover and the
  client's §3.2 widening already handle; retrying inside the transport
  would re-execute non-idempotent operations (``finalize_file``) behind
  the failover logic's back.
* **typed errors pass through**: an :data:`~repro.net.wire.R_ERROR` frame
  re-raises the server's exception class locally and leaves the
  connection usable (the server answered; nothing is desynchronised).

The proxy is **fully concurrent**: many threads share the one socket,
each request gets a fresh correlation id, a dedicated reader thread
routes reply frames to per-request queues, and streaming fetches
interleave freely with other requests.  Pipelined uploads
(:meth:`RemoteServerProxy.upload_shares_async`) return an ack handle
instead of blocking a round-trip per batch — this is what lets a
comm-engine streaming window keep the socket full.

When the connection drops — transport error, reconnect, or explicit
:meth:`close` — **every in-flight request fails fast** with
:class:`~repro.errors.CloudUnavailableError`; nothing waits out a socket
timeout against a connection that no longer exists, and the next call
re-dials and re-authenticates from scratch.

The :class:`RemoteCloud` companion stands in for the
:class:`~repro.cloud.provider.CloudProvider` attribute: ``available`` /
``check_available`` probe the server with a PING.
"""

from __future__ import annotations

import os
import queue
import socket
import threading

from repro.analysis.annotations import guarded_by, requires_lock
from repro.config import CloudSpec
from repro.dedup.stats import DedupStats
from repro.errors import (
    AuthError,
    CloudUnavailableError,
    ParameterError,
    ProtocolError,
)
from repro.net import wire
from repro.obs.trace import current_context
from repro.server.index import FileEntry
from repro.server.messages import FileManifest, RecipeEntry, ShareMeta, ShareUpload
from repro.tenants import Credentials, auth_proof

__all__ = ["RemoteCloud", "RemoteServerProxy"]

#: Reply frames that are mid-stream (more frames follow for the same
#: request id): share batches from ``fetch_shares`` and per-replica
#: shard frames from a gateway window fetch.  Everything else is the
#: terminal frame of its request.
_MIDSTREAM_FRAMES = frozenset(
    row.mid for row in wire.FRAMES.values() if row.mid is not None
)


class RemoteCloud:
    """Client-side view of a remote cloud: the availability probe."""

    def __init__(self, proxy: "RemoteServerProxy") -> None:
        self._proxy = proxy

    @property
    def name(self) -> str:
        return self._proxy.address_spec

    @property
    def available(self) -> bool:
        """Whether the remote server currently answers a PING."""
        return self._proxy.ping()

    def check_available(self) -> None:
        if not self._proxy.ping():
            raise CloudUnavailableError(
                f"remote cloud {self.name} is unreachable"
            )

    @property
    def stored_bytes(self) -> int:
        return self._proxy.stored_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteCloud({self.name!r})"


class _PendingReply:
    """Reply mailbox for one in-flight request.

    The reader thread pushes ``(frame_type, payload)`` tuples (several,
    for a streamed fetch) or an exception instance when the connection
    dies; the issuing thread blocks on :meth:`next`.
    """

    __slots__ = ("request_id", "_queue")

    def __init__(self, request_id: int) -> None:
        self.request_id = request_id
        self._queue: queue.SimpleQueue = queue.SimpleQueue()

    def push(self, item) -> None:
        self._queue.put(item)

    def fail(self, exc: Exception) -> None:
        self._queue.put(exc)

    def next(self, timeout: float) -> tuple[int, bytes]:
        """The next reply frame; raises the pushed exception on failure."""
        try:
            item = self._queue.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError from None
        if isinstance(item, Exception):
            raise item
        return item


class _MuxAck:
    """Ack handle for one pipelined ``upload_shares_async`` request."""

    __slots__ = ("_proxy", "_handle", "_outcome")

    def __init__(self, proxy: "RemoteServerProxy", handle: _PendingReply) -> None:
        self._proxy = proxy
        self._handle = handle
        self._outcome: Exception | None | bool = False  # False = not waited yet

    def result(self) -> None:
        """Block until the server acked (or raise what it answered)."""
        if self._outcome is not False:
            if isinstance(self._outcome, Exception):
                raise self._outcome
            return None
        try:
            self._proxy._finish_single(self._handle, wire.T_UPLOAD_SHARES.reply)
        except Exception as exc:
            self._outcome = exc
            raise
        self._outcome = None
        return None


class RemoteServerProxy:
    """Drive one remote CDStore server over its binary TCP protocol.

    Parameters
    ----------
    address:
        ``tcp://host:port`` spec or a ``(host, port)`` tuple.
    server_id:
        Expected cloud index.  When given, the PONG handshake must agree
        (catching a mis-wired deployment); when None, the first handshake
        adopts the server's own id.
    timeout:
        Per-socket-operation timeout in seconds; an expiry is treated as
        an outage (the per-window failover path), never a hang.
    credentials:
        Optional :class:`~repro.tenants.Credentials`.  When given, every
        (re)connect runs the challenge-response handshake right after the
        PING — so a dropped-and-redialled connection is re-authenticated
        before the request that triggered the reconnect is sent.
    trace:
        Offer the trace extension in the PING handshake.  When the
        server accepts, every non-control request frame carries a
        fixed-size trace trailer (the calling thread's context, or
        zeroes when untraced) — see ``docs/PROTOCOL.md`` §3.1.
    """

    #: Lock discipline (``repro analyze``, LOCK-001): connection identity
    #: (the socket, the handshake-learned server id, the negotiated trace
    #: extension) and the in-flight request tables are only touched under
    #: ``_lock`` — the comm engine drives one proxy from several threads,
    #: the reader thread routes replies concurrently, and reconnects must
    #: never interleave with either.
    GUARDED_BY = guarded_by(
        _sock="_lock",
        _server_id="_lock",
        _trace="_lock",
        _pending="_lock",
        _discard="_lock",
        _next_id="_lock",
    )

    def __init__(
        self,
        address: str | tuple[str, int],
        server_id: int | None = None,
        timeout: float = 30.0,
        max_frame: int = wire.MAX_FRAME_BYTES,
        credentials: Credentials | None = None,
        trace: bool = True,
    ) -> None:
        if isinstance(address, str):
            self.host, self.port = CloudSpec.parse(address).address
        else:
            self.host, self.port = address
        self._server_id = server_id
        self.timeout = timeout
        self.max_frame = max_frame
        self.credentials = credentials
        #: Whether to *offer* the trace extension in the handshake.
        self.trace_enabled = bool(trace)
        #: Role granted by the last successful auth handshake (None when
        #: unauthenticated / running against an open server).
        self.role: str | None = None
        self._sock: socket.socket | None = None
        self._lock = threading.RLock()
        #: Whether the current connection negotiated the trace extension
        #: (the PONG echoed :data:`~repro.net.wire.FLAG_TRACE`).
        self._trace = False
        #: In-flight requests by correlation id.
        self._pending: dict[int, _PendingReply] = {}
        #: Abandoned stream ids whose late frames must be swallowed.
        self._discard: set[int] = set()
        self._next_id = 1
        #: Serialises sends so concurrent frames never interleave.
        self._send_lock = threading.Lock()
        self._reader: threading.Thread | None = None
        self.cloud = RemoteCloud(self)
        #: Reply-frame observability: total frames seen and the largest
        #: frame (header + payload) this proxy ever received — the
        #: frame-budget tests read these.
        self.frames_received = 0
        self.max_reply_frame_bytes = 0

    # ------------------------------------------------------------------
    # connection state
    # ------------------------------------------------------------------
    @property
    def address_spec(self) -> str:
        return f"tcp://{self.host}:{self.port}"

    @property
    def server_id(self) -> int:
        """The remote server's cloud index (handshakes if never connected)."""
        if self._server_id is None:
            with self._lock:
                self._ensure_connected()
        return self._server_id

    @requires_lock("_lock")
    def _drop(self, reason: object = None) -> None:
        """Sever the connection and fail every in-flight request fast.

        The pending mailboxes get a :class:`~repro.errors.
        CloudUnavailableError` pushed *now* — a reconnect (which re-runs
        the auth handshake on a brand-new socket) can never answer a
        request sent on the old one, so letting callers wait out their
        socket timeout would only stall the failover path.
        """
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        self._trace = False
        self._discard.clear()
        pending, self._pending = self._pending, {}
        if pending:
            detail = f": {reason}" if reason is not None else ""
            failure = CloudUnavailableError(
                f"connection to {self.address_spec} dropped{detail}"
            )
            for handle in pending.values():
                handle.fail(failure)

    @requires_lock("_lock")
    def _ensure_connected(self) -> socket.socket:
        """Connect + handshake if needed; raises CloudUnavailableError."""
        if self._sock is not None:
            return self._sock
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        except OSError as exc:
            raise CloudUnavailableError(
                f"cannot connect to {self.address_spec}: {exc}"
            ) from exc
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:  # pragma: no cover - kernel-dependent
            # The socket is connected but not yet owned by self._sock;
            # close it here or it leaks (checker rule LIFE-001).
            sock.close()
            raise CloudUnavailableError(
                f"cannot configure socket for {self.address_spec}: {exc}"
            ) from exc
        self._sock = sock
        offered = wire.FLAG_TRACE if self.trace_enabled else 0
        try:
            version, server_id, accepted = self._handshake(
                wire.T_PING, wire.WIRE_VERSION, offered
            )
            if version != wire.WIRE_VERSION:
                raise ProtocolError(
                    f"{self.address_spec} speaks unsupported wire version "
                    f"{version} (this client speaks {wire.WIRE_VERSION})"
                )
            if self._server_id is not None and server_id != self._server_id:
                raise ProtocolError(
                    f"{self.address_spec} claims server id {server_id}, "
                    f"expected {self._server_id}"
                )
        except (ConnectionError, socket.timeout, OSError) as exc:
            # A server that accepts then dies before answering the
            # handshake is an outage, not a crash: map it into the same
            # FETCH_ERRORS class every other transport failure uses.
            self._drop()
            raise CloudUnavailableError(
                f"handshake with {self.address_spec} failed: {exc}"
            ) from exc
        except BaseException:
            # Includes a typed R_ERROR answer, e.g. the server shed the
            # connection at its connection cap.
            self._drop()
            raise
        self._server_id = server_id
        # The trace extension switches on at the PONG boundary: the server
        # only echoes FLAG_TRACE when it will strip trailers from here on.
        self._trace = bool(accepted & offered & wire.FLAG_TRACE)
        if self.credentials is not None:
            self._authenticate()
        # Handshake + auth ran with direct serial reads; from here the
        # reader thread owns the receive side of the socket.
        self._reader = threading.Thread(
            target=self._reader_loop,
            args=(self._sock,),
            name=f"cdstore-mux-reader-{self.host}:{self.port}",
            daemon=True,
        )
        self._reader.start()
        return self._sock

    @requires_lock("_lock")
    def _authenticate(self) -> None:
        """Run the T_AUTH / T_AUTH_PROOF handshake on a fresh connection.

        An :class:`~repro.errors.AuthError` from the server propagates
        as-is (bad credentials are not an outage — failover would just
        fail identically elsewhere); transport failures map to
        :class:`~repro.errors.CloudUnavailableError` like any other.
        """
        creds = self.credentials
        assert creds is not None
        client_nonce = os.urandom(wire.AUTH_NONCE_SIZE)
        try:
            (server_nonce,) = self._handshake(wire.T_AUTH, creds.tenant_id, client_nonce)
            proof = auth_proof(
                creds.secret, creds.tenant_id, client_nonce, server_nonce
            )
            (self.role,) = self._handshake(wire.T_AUTH_PROOF, proof)
        except (ConnectionError, socket.timeout, OSError) as exc:
            self._drop()
            raise CloudUnavailableError(
                f"auth handshake with {self.address_spec} failed: {exc}"
            ) from exc
        except BaseException:
            # Includes an AuthError answer: the connection is in sync but
            # useless without credentials the server accepts — drop it so
            # the proxy does not cache a half-authenticated socket.
            self._drop()
            raise

    def close(self) -> None:
        """Drop the connection (the next call reconnects) — idempotent.

        In-flight requests fail fast with
        :class:`~repro.errors.CloudUnavailableError`.
        """
        with self._lock:
            self._drop()

    def __enter__(self) -> "RemoteServerProxy":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "connected" if self._sock is not None else "idle"
        return f"RemoteServerProxy({self.address_spec!r}, {state})"

    # ------------------------------------------------------------------
    # handshake plumbing (before the reader thread owns the socket)
    # ------------------------------------------------------------------
    @requires_lock("_lock")
    def _handshake(self, row: wire.Frame, *fields) -> tuple:
        """Send one handshake request, read and decode its reply (lock held).

        Only legal before the reader thread starts.  Each exchange burns
        a fresh correlation id and checks the echo; id 0 is accepted for
        an :data:`~repro.net.wire.R_ERROR` only — that is how the server
        sheds a connection it never served (``max_connections``).
        """
        sock = self._sock
        assert sock is not None
        request_id = self._alloc_id()
        sock.sendall(
            wire.encode_mux_frame(row, request_id, row.encode(*fields), self.max_frame)
        )
        reply_type, reply_id, reply = wire.read_frame_mux(
            lambda n: wire.recv_exact(sock, n), self.max_frame
        )
        self._count_frame(reply)
        if reply_id != request_id and not (
            reply_id == 0 and reply_type == wire.R_ERROR
        ):
            raise ProtocolError(
                f"{self.address_spec} answered handshake frame with "
                f"correlation id {reply_id}, expected {request_id}"
            )
        if reply_type == wire.R_ERROR:
            raise wire.decode_error(reply)
        if reply_type != row.reply:
            raise ProtocolError(
                f"{self.address_spec} answered {row.name[2:]} with frame "
                f"0x{reply_type:02x}"
            )
        return row.reply.decode(reply)

    def _count_frame(self, payload: bytes) -> None:
        self.frames_received += 1
        self.max_reply_frame_bytes = max(
            self.max_reply_frame_bytes, wire.MUX_FRAME_HEADER.size + len(payload)
        )

    # ------------------------------------------------------------------
    # request plumbing
    # ------------------------------------------------------------------
    @requires_lock("_lock")
    def _wrap_trace(self, frame_type: int, payload: bytes) -> bytes:
        """Append the trace trailer when negotiated (control frames exempt).

        The trailer is fixed-size and carried on *every* non-control
        request frame once the extension is on — an untraced thread
        sends the all-zero context rather than switching formats
        per-request (``wire.split_trace_context`` on the server side
        then needs no out-of-band length signal).
        """
        if not self._trace or frame_type in wire.CONTROL_FRAMES:
            return payload
        trace_id, span_id = current_context()
        return payload + wire.encode_trace_context(trace_id, span_id)

    @requires_lock("_lock")
    def _alloc_id(self) -> int:
        """A correlation id not currently in flight (or being discarded)."""
        rid = self._next_id
        while rid in self._pending or rid in self._discard:
            rid = rid % wire.REQUEST_ID_MAX + 1
        self._next_id = rid % wire.REQUEST_ID_MAX + 1
        return rid

    def _submit(self, frame_type: int, payload: bytes) -> _PendingReply:
        """Register + send one request; replies arrive on the handle.

        The connection lock covers connect/registration only — the send
        happens under the dedicated send lock so a slow ``sendall`` never
        blocks the reader thread's reply routing, and waiting for the
        reply holds no lock at all.
        """
        with self._lock:
            self._ensure_connected()
            payload = self._wrap_trace(frame_type, payload)
            handle = _PendingReply(self._alloc_id())
            self._pending[handle.request_id] = handle
            sock = self._sock
        frame = wire.encode_mux_frame(
            frame_type, handle.request_id, payload, self.max_frame
        )
        try:
            with self._send_lock:
                sock.sendall(frame)
        except (ConnectionError, socket.timeout, OSError) as exc:
            with self._lock:
                if self._sock is sock:
                    self._drop(reason=exc)
            raise CloudUnavailableError(
                f"connection to {self.address_spec} dropped: {exc}"
            ) from exc
        return handle

    def _await_reply(self, handle: _PendingReply) -> tuple[int, bytes]:
        """Block for the next frame routed to ``handle``.

        A timeout is indistinguishable from a wedged server: the reply
        could still arrive and desynchronise nothing (ids disambiguate),
        but the *caller's* window deadline has passed — drop the whole
        connection so every sibling request fails over together.
        """
        try:
            return handle.next(self.timeout)
        except TimeoutError:
            with self._lock:
                self._pending.pop(handle.request_id, None)
                self._drop(reason="request timed out")
            raise CloudUnavailableError(
                f"request to {self.address_spec} timed out "
                f"after {self.timeout}s"
            ) from None

    def _forget(self, handle: _PendingReply) -> None:
        with self._lock:
            self._pending.pop(handle.request_id, None)

    def _finish_single(self, handle: _PendingReply, expect: int) -> bytes:
        """Await a single-frame reply and enforce its type."""
        try:
            reply_type, reply = self._await_reply(handle)
        finally:
            self._forget(handle)
        if reply_type == wire.R_ERROR:
            raise wire.decode_error(reply)
        if reply_type != expect:
            with self._lock:
                self._drop(reason=f"unexpected frame 0x{reply_type:02x}")
            raise ProtocolError(
                f"{self.address_spec} answered with unexpected frame "
                f"0x{reply_type:02x} (wanted 0x{expect:02x})"
            )
        return reply

    def _reader_loop(self, sock: socket.socket) -> None:
        """Route reply frames to their request mailbox (one per connection).

        Exits when the socket dies or the connection is dropped; any
        protocol violation (unsolicited correlation id, desynchronised
        framing) kills the connection, which fails all in-flight requests
        fast.
        """
        try:
            while True:
                frame = self._read_routed_frame(sock)
                if frame is None:
                    return
                reply_type, request_id, payload = frame
                handle: _PendingReply | None
                with self._lock:
                    if self._sock is not sock:
                        return  # connection was replaced under us
                    handle = self._pending.get(request_id)
                    if handle is None:
                        if request_id in self._discard:
                            # Tail of an abandoned stream: swallow until
                            # its terminal frame, then forget the id.
                            if reply_type not in _MIDSTREAM_FRAMES:
                                self._discard.discard(request_id)
                            continue
                        raise ProtocolError(
                            f"{self.address_spec} sent unsolicited frame "
                            f"0x{reply_type:02x} for request id {request_id}"
                        )
                    if reply_type not in _MIDSTREAM_FRAMES:
                        # Every reply except a mid-stream share batch is
                        # terminal: retire the id here so a handle nobody
                        # awaits (an abandoned pipelined ack) cannot leak
                        # its pending-table entry.
                        del self._pending[request_id]
                handle.push((reply_type, payload))
        except BaseException as exc:  # noqa: BLE001 - any exit fails pendings
            with self._lock:
                if self._sock is sock:
                    self._drop(reason=exc)

    def _read_routed_frame(self, sock: socket.socket):
        """One frame, tolerating idle-timeout ticks with nothing pending.

        Returns ``None`` when the connection was dropped while idle; lets
        the timeout propagate when requests are waiting (that is a real
        outage) or when a frame was cut off mid-read (desync).
        """
        started = False

        def recv(n: int) -> bytes:
            nonlocal started
            parts: list[bytes] = []
            remaining = n
            while remaining:
                try:
                    chunk = sock.recv(min(remaining, 1 << 20))
                except socket.timeout:
                    if started or parts:
                        raise  # mid-frame: the stream is desynchronised
                    with self._lock:
                        if self._sock is not sock:
                            raise  # dropped while idle: exit the reader
                        if self._pending:
                            raise  # someone is waiting: a real outage
                    continue  # idle keepalive tick; keep listening
                if not chunk:
                    raise ConnectionError("peer closed the connection mid-frame")
                parts.append(chunk)
                remaining -= len(chunk)
            started = True
            return b"".join(parts)

        frame_type, request_id, payload = wire.read_frame_mux(recv, self.max_frame)
        self._count_frame(payload)
        return frame_type, request_id, payload

    # ------------------------------------------------------------------
    # request execution
    # ------------------------------------------------------------------
    def _call(self, row: wire.Frame, *fields):
        """One request/reply exchange through ``row``: encode the fields,
        expect the row's reply frame, return what it decodes to (with
        typed-error and outage mapping)."""
        reply = self._finish_single(self._submit(row, row.encode(*fields)), row.reply)
        return row.reply.decode_result(reply)

    def ping(self) -> bool:
        """Cheap liveness probe (connects if needed).

        Transport and protocol failures never raise — they read as "not
        available", the same answer a dead server gives.  Rejected
        credentials DO raise :class:`~repro.errors.AuthError`: the server
        is up and answering, and reporting it as unreachable would send
        the operator debugging the network instead of their secret.

        The probe flows through the reader thread like any other request
        (no lock is held while waiting, so concurrent requests keep
        moving).
        """
        try:
            self._call(wire.T_PING, wire.WIRE_VERSION, 0)
            return True
        except AuthError:
            with self._lock:
                self._drop()
            raise
        except Exception:
            with self._lock:
                self._drop()
            return False

    # ------------------------------------------------------------------
    # the CDStoreServer surface
    # ------------------------------------------------------------------
    def query_duplicates(self, user_id: str, fingerprints: list[bytes]) -> list[bool]:
        known = self._call(wire.T_QUERY_DUPLICATES, user_id, fingerprints)
        if len(known) != len(fingerprints):
            raise ProtocolError(
                f"{self.address_spec} answered {len(known)} bools for "
                f"{len(fingerprints)} fingerprints"
            )
        return known

    def upload_shares(self, user_id: str, uploads: list[ShareUpload]) -> None:
        self._call(wire.T_UPLOAD_SHARES, user_id, uploads)

    def upload_shares_async(self, user_id: str, uploads: list[ShareUpload]):
        """Pipelined upload: send now, return an ack handle to wait on.

        The batch goes on the wire immediately and ``handle.result()``
        blocks until the server's :data:`~repro.net.wire.R_OK`
        (re-raising any typed error, mapping transport death to
        :class:`~repro.errors.CloudUnavailableError`).  Keeping a small
        window of unacked batches in flight removes the
        round-trip-per-batch stall from streaming upload windows.
        """
        row = wire.T_UPLOAD_SHARES
        return _MuxAck(self, self._submit(row, row.encode(user_id, uploads)))

    def finalize_file(
        self,
        user_id: str,
        manifest: FileManifest,
        share_metas: list[ShareMeta],
    ) -> None:
        self._call(wire.T_FINALIZE_FILE, user_id, manifest, share_metas)

    def get_file_entry(self, user_id: str, lookup_key: bytes) -> FileEntry:
        return self._call(wire.T_GET_FILE_ENTRY, user_id, lookup_key)

    def get_recipe(
        self, user_id: str, lookup_key: bytes, bypass_cache: bool = False
    ) -> list[RecipeEntry]:
        return self._call(wire.T_GET_RECIPE, user_id, lookup_key, bypass_cache)

    def list_files(self, user_id: str) -> list[tuple[bytes, FileEntry]]:
        return self._call(wire.T_LIST_FILES, user_id)

    def fetch_shares(
        self, fingerprints: list[bytes], owner: str | None = None
    ) -> dict[bytes, bytes]:
        """Reassemble the server's bounded reply-frame stream into a map.

        ``owner`` scoping is enforced *server-side* from the
        authenticated tenant — it never crosses the wire, so passing an
        explicit owner here would silently promise a scope this proxy
        cannot deliver; it is rejected instead.
        """
        self._reject_local_owner(owner)
        out: dict[bytes, bytes] = {}
        for batch in self.iter_share_batches(fingerprints):
            out.update(batch)
        return out

    @staticmethod
    def _reject_local_owner(owner: str | None) -> None:
        if owner is not None:
            raise ParameterError(
                "owner scoping on remote fetches is derived from the "
                "authenticated tenant server-side; do not pass owner= to a "
                "RemoteServerProxy"
            )

    def iter_share_batches(
        self,
        fingerprints: list[bytes],
        budget_bytes: int | None = None,
        cost=None,
        owner: str | None = None,
    ):
        """Stream the server's bounded share batches, one list per frame.

        Protocol parity with
        :meth:`~repro.server.server.CDStoreServer.iter_share_batches`,
        with the batching decided *server-side*: the serving process
        prices shares against its own frame budget, so ``budget_bytes``
        and ``cost`` are rejected here rather than silently ignored.

        The stream interleaves with other requests (its frames are
        routed by correlation id); abandoning the generator early just
        parks the id on a discard list so the tail of the stream is
        swallowed — the connection stays usable.
        """
        if budget_bytes is not None or cost is not None:
            raise ParameterError(
                "remote share-batch sizing is fixed by the server's frame "
                "budget; budget_bytes/cost cannot be set through a proxy"
            )
        self._reject_local_owner(owner)
        row = wire.T_FETCH_SHARES
        return self._stream(row, row.encode(fingerprints), weigh=len)

    def _stream(self, row: wire.Frame, request: bytes, weigh):
        """Yield the decoded mid-stream frames of one streamed request.

        The server answers ``row`` with zero or more ``row.mid`` frames
        and one ``row.reply`` frame whose count must equal the sum of
        ``weigh(item)`` over what was streamed.
        """
        handle = self._submit(row, request)
        streamed = 0
        terminal = False
        try:
            while True:
                reply_type, payload = self._await_reply(handle)
                if reply_type == row.mid:
                    try:
                        item = row.mid.decode_result(payload)
                    except ProtocolError:
                        # Malformed frame: the server-side stream state is
                        # unknowable — kill the connection, not just the
                        # request.
                        terminal = True
                        with self._lock:
                            self._drop(reason="malformed stream frame")
                        raise
                    streamed += weigh(item)
                    yield item
                    continue
                terminal = True
                if reply_type == row.reply:
                    total = row.reply.decode_result(payload)
                    if total != streamed:
                        raise ProtocolError(
                            f"{self.address_spec} streamed {streamed} "
                            f"items but announced {total}"
                        )
                    return
                if reply_type == wire.R_ERROR:
                    raise wire.decode_error(payload)  # in sync: it answered
                with self._lock:
                    self._drop(reason=f"unexpected frame 0x{reply_type:02x}")
                raise ProtocolError(
                    f"{self.address_spec} sent unexpected frame "
                    f"0x{reply_type:02x} inside a reply stream"
                )
        except CloudUnavailableError:
            terminal = True  # the connection is already gone
            raise
        finally:
            with self._lock:
                still_registered = (
                    self._pending.pop(handle.request_id, None) is not None
                )
                if still_registered and not terminal and self._sock is not None:
                    # Abandoned mid-stream: remaining frames for this id
                    # must be swallowed, not treated as unsolicited.
                    self._discard.add(handle.request_id)

    def delete_file(self, user_id: str, lookup_key: bytes) -> int:
        return self._call(wire.T_DELETE_FILE, user_id, lookup_key)

    def collect_garbage(self) -> int:
        return self._call(wire.T_COLLECT_GARBAGE)

    def scrub(self) -> list[bytes]:
        return self._call(wire.T_SCRUB)

    def flush(self) -> None:
        self._call(wire.T_FLUSH)

    def replace_share(self, server_fp: bytes, data: bytes) -> None:
        self._call(wire.T_REPLACE_SHARE, server_fp, data)

    def rebuild_recipe(
        self, user_id: str, lookup_key: bytes, entries: list[RecipeEntry]
    ) -> None:
        self._call(wire.T_REBUILD_RECIPE, user_id, lookup_key, entries)

    def list_backups(self) -> list[tuple[str, bytes]]:
        return self._call(wire.T_LIST_BACKUPS)

    # ------------------------------------------------------------------
    # gateway surface (only answered by a `repro gateway` front-end)
    # ------------------------------------------------------------------
    def resolve_backup(
        self, user_id: str, lookup_key: bytes
    ) -> tuple[int, list[int], list[tuple[int, int]]]:
        """One-round-trip restore resolution against a read gateway.

        Returns ``(file_size, secret_sizes, windows)`` — the gateway's
        cross-checked :class:`~repro.client.read.RestorePlan` material.
        A plain cloud front-end answers with ``ProtocolError``.
        """
        return self._call(wire.T_GW_RESOLVE, user_id, lookup_key)

    def iter_window_shards(
        self, user_id: str, lookup_key: bytes, window_index: int
    ):
        """Stream one resolved window's per-replica shards from a gateway.

        Yields ``(server_id, shares)`` with the shares in sequence order;
        the gateway terminates the stream with a shard count that must
        match what was streamed.  Same interleaving/abandonment rules as
        :meth:`iter_share_batches`.
        """
        row = wire.T_GW_WINDOW
        return self._stream(
            row, row.encode(user_id, lookup_key, window_index), weigh=lambda shard: 1
        )

    @property
    def stats(self) -> DedupStats:
        """The remote server's dedup counters (one RPC per access)."""
        return self._call(wire.T_STATS)

    def obs_stats(self) -> dict:
        """The remote front-end's observability snapshot (admin-gated).

        One :data:`~repro.net.wire.T_OBS_STATS` round trip; the reply is
        the versioned JSON snapshot — metrics registry contents plus the
        front-end's span ring (see ``docs/OBSERVABILITY.md``).  A server
        authenticated with a non-admin tenant answers with
        :class:`~repro.errors.AuthError`.
        """
        return self._call(wire.T_OBS_STATS)

    @property
    def stored_bytes(self) -> int:
        return self._call(wire.T_STORED_BYTES)
