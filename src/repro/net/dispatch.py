"""Transport-agnostic request dispatch for the serving layer.

Both network front-ends — the thread-per-connection
:class:`~repro.net.server.CDStoreTCPServer` and the asyncio
:class:`~repro.net.async_server.AsyncCDStoreTCPServer` — answer the same
frames with the same auth, tenancy, rate-limit and streaming rules.  That
shared core lives here: a :class:`FrameDispatcher` turns one decoded
request frame into reply ``(frame_type, payload)`` tuples, leaving the
frame headers (request-id echo) and the I/O model to the front-end that
owns the socket.

The version check also happens here because it is a protocol rule, not a
transport detail: :data:`~repro.net.wire.T_PING` carries the client's
wire version, and any value other than
:data:`~repro.net.wire.WIRE_VERSION` is answered with a typed
:class:`~repro.errors.ProtocolError`.

``fetch_shares`` replies are **streamed**: the dispatcher walks
:meth:`~repro.server.server.CDStoreServer.iter_share_batches` and emits
one bounded :data:`~repro.net.wire.R_SHARE_BATCH` tuple per batch, with
each share priced at payload + :data:`~repro.net.wire.SHARE_WIRE_OVERHEAD`
against ``frame_budget`` — neither a reply frame nor the server-side
working set ever exceeds the budget, no matter how many containers the
request spans (backpressure on a slow client propagates straight into the
generator, which holds at most one batch).

Multi-tenancy: when constructed with a :class:`~repro.tenants.
TenantRegistry`, every connection must complete the challenge-response
handshake (:data:`~repro.net.wire.T_AUTH` →
:data:`~repro.net.wire.R_AUTH_CHALLENGE` →
:data:`~repro.net.wire.T_AUTH_PROOF` → :data:`~repro.net.wire.R_AUTH_OK`)
before any request other than a ping is answered.  After the handshake
every ``user_id``-bearing frame is pinned to the authenticated tenant,
maintenance frames are reserved to the ``admin`` role, share fetches are
owner-scoped server-side, and a per-tenant token bucket throttles request
rates.  Without a registry the dispatcher runs open.
"""

from __future__ import annotations

import hmac
import os
import time
from threading import Lock

from repro.analysis.annotations import guarded_by
from repro.errors import AuthError, ProtocolError, QuotaExceededError
from repro.net import wire
from repro.obs.registry import REGISTRY
from repro.obs.trace import ZERO_TRACE_ID, SpanRecorder, Tracer
from repro.server.server import CDStoreServer, FETCH_BATCH_BYTES
from repro.tenants import ROLE_ADMIN, TenantRegistry, TokenBucket, auth_proof

__all__ = ["ADMIN_FRAMES", "ConnState", "FrameDispatcher"]

#: Maintenance/observability frames reserved to the ``admin`` role when a
#: tenant registry is active: they either touch other tenants' data
#: (scrub, GC, repair) or aggregate across tenants (stats, backup list,
#: the T_OBS_STATS metrics/span snapshot).  A view of the rows' flag.
ADMIN_FRAMES = frozenset(row for row in wire.FRAMES.values() if row.admin)

#: Wall-clock cost of answering one request frame, by frame short name.
#: Observed around the *full* reply generation — for streamed fetches
#: that includes every batch, so slow-consumer backpressure shows up
#: here, which is exactly what "why was this restore slow?" needs.
_DISPATCH_SECONDS = REGISTRY.histogram(
    "net_dispatch_seconds",
    "Latency of answering one request frame, labeled by frame type",
)

#: Requests rejected by a tenant's token bucket (per-tenant label) — the
#: "rate-limit hits" column of ``repro tenant-stats``.
_RATE_LIMITED = REGISTRY.counter(
    "dispatch_rate_limited_total",
    "Requests rejected by the per-tenant request-rate token bucket",
)


class ConnState:
    """Per-connection protocol state (auth progress + trace extension).

    Owned by whichever execution context serves the connection serially
    for control frames (a handler thread, or the event loop); API-frame
    workers only *read* the auth fields after the handshake settled.
    """

    __slots__ = ("tenant", "role", "pending", "trace")

    def __init__(self) -> None:
        self.tenant: str | None = None
        self.role: str | None = None
        #: In-flight handshake: ``(tenant_id, client_nonce, server_nonce)``.
        self.pending: tuple[str, bytes, bytes] | None = None
        #: Trace extension in force: every non-control request frame
        #: carries a :data:`~repro.net.wire.TRACE_CONTEXT_SIZE`-byte
        #: trailer.  Switched on by the PING that negotiated
        #: :data:`~repro.net.wire.FLAG_TRACE` (so from the PONG onwards)
        #: and never off again — a later flagless PING must not
        #: desynchronise trailers already in flight.
        self.trace: bool = False


class FrameDispatcher:
    """Answer decoded request frames for one backing CDStore server.

    Parameters
    ----------
    server:
        The :class:`~repro.server.server.CDStoreServer` (or any object
        with its surface) answering the requests.
    frame_budget:
        Cap on one ``fetch_shares`` reply frame, covering share payloads
        plus their per-share wire overhead.  Also the bound on the
        server-side working set of a streamed fetch.
    tenants:
        Optional :class:`~repro.tenants.TenantRegistry`; ``None`` serves
        everyone (single-operator mode).
    gateway:
        Optional :class:`~repro.gateway.service.GatewayService`.  When
        set, the gateway frames (:data:`~repro.net.wire.GATEWAY_FRAMES`)
        are answered from it — under exactly the same auth/tenancy gate
        as API frames, so a tenant cannot read another tenant's backups
        through the cache.  A pure gateway front-end passes
        ``server=None`` and answers *only* ping/auth/gateway frames;
        API frames are then a protocol error.
    """

    #: Lock discipline (``repro analyze``, LOCK-001): the per-tenant token
    #: buckets are shared by every connection a tenant holds (one budget
    #: per tenant, not per socket) and live under ``_bucket_lock``.
    GUARDED_BY = guarded_by(_buckets="_bucket_lock")

    def __init__(
        self,
        server: CDStoreServer | None,
        frame_budget: int = FETCH_BATCH_BYTES,
        tenants: TenantRegistry | None = None,
        gateway=None,
        trace: bool = True,
        span_ring: int = 256,
        slow_threshold: float | None = 1.0,
    ) -> None:
        if frame_budget < 1:
            raise ValueError(f"frame_budget must be >= 1, got {frame_budget}")
        if server is None and gateway is None:
            raise ValueError("a dispatcher needs a server, a gateway, or both")
        self.server = server
        self.frame_budget = frame_budget
        self.tenants = tenants
        self.gateway = gateway
        #: Whether this front-end accepts the FLAG_TRACE capability
        #: (``ObsSpec.trace``); the span ring and slow-request threshold
        #: come from the same spec.
        self.trace_enabled = trace
        self.component = "gateway" if server is None else "server"
        self.tracer = Tracer(
            self.component,
            recorder=SpanRecorder(span_ring),
            slow_threshold=slow_threshold,
        )
        self._bucket_lock = Lock()
        self._buckets: dict[str, TokenBucket] = {}

    @property
    def spans(self) -> SpanRecorder:
        """This front-end's ring of finished server-side spans."""
        return self.tracer.recorder

    # ------------------------------------------------------------------
    # authentication & tenant enforcement
    # ------------------------------------------------------------------
    def _handle_auth(self, state: ConnState, row: wire.Frame, payload: bytes):
        """T_AUTH: remember the claim, answer with a fresh challenge.

        The server nonce is minted per attempt, so a recorded proof from
        an earlier connection verifies against nothing — replay defence
        lives here, not in any nonce bookkeeping.
        """
        tenant_id, client_nonce = row.decode(payload)
        server_nonce = os.urandom(wire.AUTH_NONCE_SIZE)
        state.pending = (tenant_id, client_nonce, server_nonce)
        yield row.reply, row.reply.encode(server_nonce)

    def _handle_auth_proof(self, state: ConnState, row: wire.Frame, payload: bytes):
        """T_AUTH_PROOF: verify the HMAC against the pending challenge."""
        (proof,) = row.decode(payload)
        # One challenge, one attempt: clear the pending state before
        # verifying so a failed proof cannot be retried against the same
        # server nonce (the client must restart the handshake).
        pending, state.pending = state.pending, None
        if self.tenants is None or pending is None:
            raise AuthError("authentication failed")
        tenant_id, client_nonce, server_nonce = pending
        record = self.tenants.get(tenant_id)
        # Unknown tenants still cost one HMAC so the error is not a
        # timing oracle for tenant-id existence; the message is the same
        # for every failure mode for the same reason.
        secret = record.secret if record is not None else b"\x00" * 32
        expected = auth_proof(secret, tenant_id, client_nonce, server_nonce)
        if record is None or not hmac.compare_digest(proof, expected):
            raise AuthError("authentication failed")
        state.tenant = tenant_id
        state.role = record.role
        yield row.reply, row.reply.encode(record.role)

    def _authorize(self, state: ConnState, row: wire.Frame, fields: tuple = ()) -> None:
        """Gate one decoded request against the connection's auth state.

        No-op without a registry.  Otherwise: the connection must have
        completed the handshake; the request rate is charged to the
        tenant's shared token bucket; admins may do anything, while
        tenants are barred from admin rows (:data:`ADMIN_FRAMES`) and,
        on a row that pins its user field, from naming any ``user_id``
        other than their own.
        """
        if self.tenants is None:
            return
        if state.tenant is None:
            raise AuthError("authentication required")
        self._check_rate(state.tenant)
        if state.role == ROLE_ADMIN:
            return
        if row.admin:
            raise AuthError("administrator role required")
        if row.pins_user and fields[0] != state.tenant:
            raise AuthError(
                f"user id does not match authenticated tenant {state.tenant!r}"
            )

    def _check_rate(self, tenant_id: str) -> None:
        """Charge one request to the tenant's token bucket."""
        record = self.tenants.get(tenant_id) if self.tenants is not None else None
        rate = record.quota.max_requests_per_sec if record is not None else None
        if rate is None:
            return
        with self._bucket_lock:
            bucket = self._buckets.get(tenant_id)
            if bucket is None:
                bucket = self._buckets[tenant_id] = TokenBucket(rate)
            allowed = bucket.allow(time.monotonic())
        if not allowed:
            _RATE_LIMITED.inc(tenant=tenant_id)
            raise QuotaExceededError(
                f"request rate limit exceeded for tenant {tenant_id!r}"
            )

    def _fetch_owner(self, state: ConnState) -> str | None:
        """Owner scope for share fetches: tenants see only their shares."""
        if self.tenants is None or state.role == ROLE_ADMIN:
            return None
        return state.tenant

    # ------------------------------------------------------------------
    # observability snapshot (T_OBS_STATS)
    # ------------------------------------------------------------------
    def obs_snapshot(self) -> dict:
        """The versioned snapshot an ``R_OBS_STATS`` reply carries.

        The process-wide metrics registry plus this front-end's own span
        ring and identity — two co-located front-ends (a gateway and a
        replica in one test process) share metrics but answer with their
        own spans.
        """
        snapshot = REGISTRY.snapshot()
        snapshot["component"] = self.component
        snapshot["server_id"] = (
            self.server.server_id
            if self.server is not None
            else wire.GATEWAY_SERVER_ID
        )
        snapshot["spans"] = self.tracer.snapshot()
        return snapshot

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def dispatch(self, state: ConnState, frame_type: int, payload: bytes):
        """Yield reply ``(frame_type, payload)`` tuple(s) for one request.

        A generator so the streaming ``fetch_shares`` reply materialises
        one bounded frame at a time; every other request yields exactly
        one tuple.  The caller frames each tuple, echoing the request id.

        Observability wrapper: on trace-negotiated connections the
        :data:`~repro.net.wire.TRACE_CONTEXT_SIZE`-byte trailer is
        stripped *here*, before any payload codec runs, and activated as
        the handler's thread-local context — a gateway handler calling
        replica proxies in the same thread forwards the trace onward
        with no per-call plumbing.  Every frame's wall-clock cost lands
        in the ``net_dispatch_seconds`` histogram.
        """
        trace_id, parent_id = ZERO_TRACE_ID, 0
        if state.trace and frame_type not in wire.CONTROL_FRAMES:
            trace_id, parent_id, payload = wire.split_trace_context(payload)
        name = wire.frame_name(frame_type)
        clock = time.perf_counter()
        try:
            with self.tracer.span(
                f"frame:{name}", trace_id=trace_id, parent_id=parent_id
            ):
                yield from self._dispatch(state, frame_type, payload)
        finally:
            _DISPATCH_SECONDS.observe(time.perf_counter() - clock, frame=name)

    def _dispatch(self, state: ConnState, frame_type: int, payload: bytes):
        row = wire.FRAMES.get(frame_type)
        if row is None or row.reply is None:
            raise ProtocolError(f"unknown request frame type 0x{frame_type:02x}")
        handler = self._HANDLERS.get(row)
        if handler is not None:
            yield from handler(self, state, row, payload)
            return
        # Every other row carries one server method: decode, authorize
        # from the row's flags, call it by name, encode the row's reply.
        server = self._api_server(row)
        fields = row.decode(payload)
        self._authorize(state, row, fields)
        result = getattr(server, row.methods[0])
        if callable(result):  # a method; stats / stored_bytes are plain attributes
            result = result(**{name: value for (name, _), value in zip(row.fields, fields)})
        yield row.reply, row.reply.encode_result(result)

    def _api_server(self, row: wire.Frame) -> CDStoreServer:
        if self.server is None:
            # A pure gateway front-end: API frames have no backing server.
            raise ProtocolError(f"gateway front-end cannot serve frame 0x{row:02x}")
        return self.server

    def _handle_ping(self, state: ConnState, row: wire.Frame, payload: bytes):
        # Liveness stays unauthenticated: failover probes must work
        # before (and without) credentials.
        advertised, ping_flags = row.decode(payload)
        if advertised != wire.WIRE_VERSION:
            raise ProtocolError(
                f"unsupported wire version {advertised} "
                f"(this server speaks {wire.WIRE_VERSION})"
            )
        accepted = 0
        if self.trace_enabled and ping_flags & wire.FLAG_TRACE:
            accepted |= wire.FLAG_TRACE
            # PING is a control frame and never carries the trailer,
            # so the first frame affected is the one after the PONG.
            state.trace = True
        server_id = self.server.server_id if self.server is not None else wire.GATEWAY_SERVER_ID
        yield row.reply, row.reply.encode(wire.WIRE_VERSION, server_id, accepted)

    def _gateway_for(self, state: ConnState, row: wire.Frame, payload: bytes):
        """Decode + authorize a gateway row; the service and its arguments."""
        fields = row.decode(payload)
        self._authorize(state, row, fields)
        if self.gateway is None:
            raise ProtocolError("this front-end serves no read gateway")
        return self.gateway, fields

    def _handle_gw_resolve(self, state: ConnState, row: wire.Frame, payload: bytes):
        gateway, fields = self._gateway_for(state, row, payload)
        yield row.reply, row.reply.encode(*gateway.resolve_backup(*fields))

    def _handle_gw_window(self, state: ConnState, row: wire.Frame, payload: bytes):
        gateway, fields = self._gateway_for(state, row, payload)
        shard_count = 0
        for server_id, shares in gateway.iter_window_shards(*fields):
            shard_count += 1
            yield row.mid, row.mid.encode(server_id, shares)
        yield row.reply, row.reply.encode(shard_count)

    def _handle_obs_stats(self, state: ConnState, row: wire.Frame, payload: bytes):
        # Served by every front-end (server or gateway): the metrics
        # registry is process-wide, the span ring is this front-end's.
        row.decode(payload)
        self._authorize(state, row)
        yield row.reply, row.reply.encode(self.obs_snapshot())

    def _handle_fetch_shares(self, state: ConnState, row: wire.Frame, payload: bytes):
        server = self._api_server(row)
        (fingerprints,) = row.decode(payload)
        self._authorize(state, row)
        total = 0
        # Price each share at its full wire cost and leave room for the
        # frame header + count word, so a maximally-packed batch still
        # serialises to a frame of at most frame_budget bytes.
        batch_budget = max(1, self.frame_budget - wire.MUX_FRAME_HEADER.size - 4)
        for batch in server.iter_share_batches(
            fingerprints,
            budget_bytes=batch_budget,
            cost=lambda fp, share_size: wire.SHARE_WIRE_OVERHEAD + share_size,
            owner=self._fetch_owner(state),
        ):
            total += len(batch)
            yield row.mid, row.mid.encode(batch)
        yield row.reply, row.reply.encode(total)

    #: The rows that are not "call the method the row names": connection
    #: machinery, the two streamed replies, and the frames answered by the
    #: gateway or the dispatcher itself.
    _HANDLERS = {
        wire.T_PING: _handle_ping,
        wire.T_AUTH: _handle_auth,
        wire.T_AUTH_PROOF: _handle_auth_proof,
        wire.T_FETCH_SHARES: _handle_fetch_shares,
        wire.T_GW_RESOLVE: _handle_gw_resolve,
        wire.T_GW_WINDOW: _handle_gw_window,
        wire.T_OBS_STATS: _handle_obs_stats,
    }
