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
#: the T_OBS_STATS metrics/span snapshot).
ADMIN_FRAMES = frozenset(
    {
        wire.T_SCRUB,
        wire.T_COLLECT_GARBAGE,
        wire.T_REPLACE_SHARE,
        wire.T_REBUILD_RECIPE,
        wire.T_LIST_BACKUPS,
        wire.T_STATS,
        wire.T_STORED_BYTES,
        wire.T_OBS_STATS,
    }
)

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
    def _handle_auth(self, state: ConnState, payload: bytes):
        """T_AUTH: remember the claim, answer with a fresh challenge.

        The server nonce is minted per attempt, so a recorded proof from
        an earlier connection verifies against nothing — replay defence
        lives here, not in any nonce bookkeeping.
        """
        tenant_id, client_nonce = wire.decode_auth(payload)
        server_nonce = os.urandom(wire.AUTH_NONCE_SIZE)
        state.pending = (tenant_id, client_nonce, server_nonce)
        yield wire.R_AUTH_CHALLENGE, wire.encode_auth_challenge(server_nonce)

    def _handle_auth_proof(self, state: ConnState, payload: bytes):
        """T_AUTH_PROOF: verify the HMAC against the pending challenge."""
        proof = wire.decode_auth_proof(payload)
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
        yield wire.R_AUTH_OK, wire.encode_auth_ok(record.role)

    def _authorize(
        self, state: ConnState, frame_type: int, user_id: str | None = None
    ) -> None:
        """Gate one request frame against the connection's auth state.

        No-op without a registry.  Otherwise: the connection must have
        completed the handshake; the request rate is charged to the
        tenant's shared token bucket; admins may do anything, while
        tenants are barred from :data:`ADMIN_FRAMES` and from naming any
        ``user_id`` other than their own.
        """
        if self.tenants is None:
            return
        if state.tenant is None:
            raise AuthError("authentication required")
        self._check_rate(state.tenant)
        if state.role == ROLE_ADMIN:
            return
        if frame_type in ADMIN_FRAMES:
            raise AuthError("administrator role required")
        if user_id is not None and user_id != state.tenant:
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
        server = self.server
        if frame_type == wire.T_PING:
            # Liveness stays unauthenticated: failover probes must work
            # before (and without) credentials.
            advertised, ping_flags = wire.decode_ping(payload)
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
            server_id = (
                server.server_id if server is not None else wire.GATEWAY_SERVER_ID
            )
            yield wire.R_PONG, wire.encode_pong(server_id, wire.WIRE_VERSION, accepted)
        elif frame_type == wire.T_AUTH:
            yield from self._handle_auth(state, payload)
        elif frame_type == wire.T_AUTH_PROOF:
            yield from self._handle_auth_proof(state, payload)
        elif frame_type == wire.T_GW_RESOLVE:
            user_id, lookup_key = wire.decode_gw_resolve(payload)
            self._authorize(state, frame_type, user_id)
            if self.gateway is None:
                raise ProtocolError("this front-end serves no read gateway")
            file_size, secret_sizes, windows = self.gateway.resolve_backup(
                user_id, lookup_key
            )
            yield (
                wire.R_GW_BACKUP,
                wire.encode_gw_backup(file_size, secret_sizes, windows),
            )
        elif frame_type == wire.T_GW_WINDOW:
            user_id, lookup_key, window_index = wire.decode_gw_window(payload)
            self._authorize(state, frame_type, user_id)
            if self.gateway is None:
                raise ProtocolError("this front-end serves no read gateway")
            shard_count = 0
            for server_id, shares in self.gateway.iter_window_shards(
                user_id, lookup_key, window_index
            ):
                shard_count += 1
                yield wire.R_GW_SHARD, wire.encode_gw_shard(server_id, shares)
            yield wire.R_GW_WINDOW_END, wire.encode_gw_window_end(shard_count)
        elif frame_type == wire.T_OBS_STATS:
            # Served by every front-end (server or gateway): the metrics
            # registry is process-wide, the span ring is this front-end's.
            _expect_empty(payload)
            self._authorize(state, frame_type)
            yield wire.R_OBS_STATS, wire.encode_obs_stats(self.obs_snapshot())
        elif server is None:
            # A pure gateway front-end: API frames have no backing server.
            raise ProtocolError(
                f"gateway front-end cannot serve frame 0x{frame_type:02x}"
            )
        elif frame_type == wire.T_QUERY_DUPLICATES:
            user_id, fingerprints = wire.decode_query_duplicates(payload)
            self._authorize(state, frame_type, user_id)
            known = server.query_duplicates(user_id, fingerprints)
            yield wire.R_BOOLS, wire.encode_bools(known)
        elif frame_type == wire.T_UPLOAD_SHARES:
            user_id, uploads = wire.decode_upload_shares(payload)
            self._authorize(state, frame_type, user_id)
            server.upload_shares(user_id, uploads)
            yield wire.R_OK, b""
        elif frame_type == wire.T_FINALIZE_FILE:
            user_id, manifest, metas = wire.decode_finalize_file(payload)
            self._authorize(state, frame_type, user_id)
            server.finalize_file(user_id, manifest, metas)
            yield wire.R_OK, b""
        elif frame_type == wire.T_GET_FILE_ENTRY:
            user_id, lookup_key = wire.decode_user_key(payload)
            self._authorize(state, frame_type, user_id)
            entry = server.get_file_entry(user_id, lookup_key)
            yield wire.R_FILE_ENTRY, wire.encode_file_entry(entry)
        elif frame_type == wire.T_GET_RECIPE:
            user_id, lookup_key, bypass = wire.decode_get_recipe(payload)
            self._authorize(state, frame_type, user_id)
            recipe = server.get_recipe(user_id, lookup_key, bypass_cache=bypass)
            yield wire.R_RECIPE, wire.encode_recipe(recipe)
        elif frame_type == wire.T_LIST_FILES:
            user_id = wire.decode_user(payload)
            self._authorize(state, frame_type, user_id)
            listing = server.list_files(user_id)
            yield wire.R_FILE_LIST, wire.encode_file_list(listing)
        elif frame_type == wire.T_FETCH_SHARES:
            fingerprints = wire.decode_fetch_shares(payload)
            self._authorize(state, frame_type)
            total = 0
            # Price each share at its full wire cost and leave room for the
            # frame header + count word, so a maximally-packed batch still
            # serialises to a frame of at most frame_budget bytes.
            batch_budget = max(
                1, self.frame_budget - wire.MUX_FRAME_HEADER.size - 4
            )
            for batch in server.iter_share_batches(
                fingerprints,
                budget_bytes=batch_budget,
                cost=lambda fp, data: wire.SHARE_WIRE_OVERHEAD + len(data),
                owner=self._fetch_owner(state),
            ):
                total += len(batch)
                yield wire.R_SHARE_BATCH, wire.encode_share_batch(batch)
            yield wire.R_SHARES_END, wire.encode_shares_end(total)
        elif frame_type == wire.T_DELETE_FILE:
            user_id, lookup_key = wire.decode_user_key(payload)
            self._authorize(state, frame_type, user_id)
            orphaned = server.delete_file(user_id, lookup_key)
            yield wire.R_INT, wire.encode_int(orphaned)
        elif frame_type == wire.T_COLLECT_GARBAGE:
            _expect_empty(payload)
            self._authorize(state, frame_type)
            freed = server.collect_garbage()
            yield wire.R_INT, wire.encode_int(freed)
        elif frame_type == wire.T_SCRUB:
            _expect_empty(payload)
            self._authorize(state, frame_type)
            corrupt = server.scrub()
            yield wire.R_FP_LIST, wire.encode_fp_list(corrupt)
        elif frame_type == wire.T_FLUSH:
            _expect_empty(payload)
            # Any authenticated tenant may flush: it only makes their own
            # (and everyone's) buffered writes durable, revealing nothing.
            self._authorize(state, frame_type)
            server.flush()
            yield wire.R_OK, b""
        elif frame_type == wire.T_STATS:
            _expect_empty(payload)
            self._authorize(state, frame_type)
            yield wire.R_STATS, wire.encode_stats(server.stats)
        elif frame_type == wire.T_STORED_BYTES:
            _expect_empty(payload)
            self._authorize(state, frame_type)
            yield wire.R_INT, wire.encode_int(server.stored_bytes)
        elif frame_type == wire.T_REPLACE_SHARE:
            server_fp, data = wire.decode_replace_share(payload)
            self._authorize(state, frame_type)
            server.replace_share(server_fp, data)
            yield wire.R_OK, b""
        elif frame_type == wire.T_REBUILD_RECIPE:
            user_id, lookup_key, entries = wire.decode_rebuild_recipe(payload)
            self._authorize(state, frame_type, user_id)
            server.rebuild_recipe(user_id, lookup_key, entries)
            yield wire.R_OK, b""
        elif frame_type == wire.T_LIST_BACKUPS:
            _expect_empty(payload)
            self._authorize(state, frame_type)
            backups = server.list_backups()
            yield wire.R_BACKUP_LIST, wire.encode_backup_list(backups)
        else:
            raise ProtocolError(f"unknown request frame type 0x{frame_type:02x}")


def _expect_empty(payload: bytes) -> None:
    if payload:
        raise ProtocolError(f"{len(payload)} unexpected payload bytes")
