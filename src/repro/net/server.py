"""Concurrent TCP server hosting one :class:`CDStoreServer` (§4 deployment).

One ``CDStoreTCPServer`` runs inside each cloud's co-locating VM and turns
the in-process server object into a network service: many clients (the
multi-client workload of Figure 8) connect concurrently, each served by a
dedicated handler thread.

Threading model — **thread per connection**: handler threads drive the
blocking, lock-disciplined storage stack exactly like in-process callers
do, which keeps the per-server locking discipline intact and is the right
trade at tens of connections.  At thousands of connections the
per-connection thread stops scaling; that regime is served by
:class:`~repro.net.async_server.AsyncCDStoreTCPServer`, which multiplexes
connections on an event loop and funnels requests into a *bounded*
executor.  Both front-ends answer frames through the same
:class:`~repro.net.dispatch.FrameDispatcher`, so protocol behaviour —
auth, tenancy, rate limits, streamed fetches — is identical.

Requests are served strictly in order — one request in flight per
connection — which is a degenerate but valid schedule of the
request-id-tagged framing (see :mod:`repro.net.wire`): every reply simply
echoes the id of the request it answers, so the multiplexing
:class:`~repro.net.client.RemoteServerProxy` works unchanged against this
server.

Error discipline: a :class:`~repro.errors.ReproError` is a *protocol
answer* (typed :data:`~repro.net.wire.R_ERROR` frame, connection stays
usable); any other exception is a server bug and closes the connection
abruptly — clients see a dropped socket and run their failover path
rather than trusting a half-written reply.
"""

from __future__ import annotations

import logging
import socket
import threading

from repro.analysis.annotations import guarded_by
from repro.errors import ReproError
from repro.net import wire
from repro.net.dispatch import ADMIN_FRAMES, ConnState, FrameDispatcher
from repro.obs.registry import REGISTRY
from repro.server.server import CDStoreServer, FETCH_BATCH_BYTES
from repro.tenants import TenantRegistry

__all__ = ["ADMIN_FRAMES", "CDStoreTCPServer"]

logger = logging.getLogger(__name__)

# Per-frame latency and error accounting live in the shared
# FrameDispatcher; the thread-per-connection front-end only tracks its
# connection count (its one piece of state the dispatcher cannot see).
_TCP_CONNECTIONS = REGISTRY.gauge(
    "net_tcp_connections", "Open connections per threaded front-end"
)


class CDStoreTCPServer:
    """Serve one CDStore server over TCP to many concurrent clients.

    Parameters
    ----------
    server:
        The :class:`~repro.server.server.CDStoreServer` (or any object
        with its surface) answering the requests.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`address`).
    frame_budget:
        Cap on one ``fetch_shares`` reply frame, covering share payloads
        plus their per-share wire overhead.  Also the bound on the
        server-side working set of a streamed fetch.
    max_frame:
        Hard cap on *incoming* frame payloads (request flood guard).
    tenants:
        Optional :class:`~repro.tenants.TenantRegistry`.  When given,
        connections must authenticate before issuing requests and all
        tenant-scoping/rate-limit rules apply; when ``None`` the server
        answers everyone (single-operator mode).
    """

    #: Lock discipline (``repro analyze``, LOCK-001): the live-connection
    #: set is shared between the accept loop, per-connection handler exits
    #: and shutdown, and must only be mutated under ``_conn_lock``.  (The
    #: per-tenant token buckets moved to the shared FrameDispatcher.)
    GUARDED_BY = guarded_by(_connections="_conn_lock")

    def __init__(
        self,
        server: CDStoreServer,
        host: str = "127.0.0.1",
        port: int = 0,
        frame_budget: int = FETCH_BATCH_BYTES,
        max_frame: int = wire.MAX_FRAME_BYTES,
        tenants: TenantRegistry | None = None,
        trace: bool = True,
        span_ring: int = 256,
        slow_threshold: float | None = 1.0,
    ) -> None:
        self._dispatcher = FrameDispatcher(
            server,
            frame_budget=frame_budget,
            tenants=tenants,
            trace=trace,
            span_ring=span_ring,
            slow_threshold=slow_threshold,
        )
        self.server = server
        self.max_frame = max_frame
        self._host = host
        self._port = port
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopped = threading.Event()
        self._conn_lock = threading.Lock()
        self._connections: set[socket.socket] = set()

    @property
    def frame_budget(self) -> int:
        return self._dispatcher.frame_budget

    @property
    def spans(self):
        """This front-end's span ring (the dispatcher's recorder)."""
        return self._dispatcher.spans

    @property
    def tenants(self) -> TenantRegistry | None:
        return self._dispatcher.tenants

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` after start)."""
        if self._listener is None:
            return (self._host, self._port)
        return self._listener.getsockname()[:2]

    def start(self) -> "CDStoreTCPServer":
        """Bind, listen and spawn the accept loop (idempotent)."""
        if self._listener is not None:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._port))
            listener.listen(64)
            # Poll rather than block forever in accept(): closing a socket
            # does not reliably wake a thread blocked in accept() on Linux,
            # so a pure-blocking loop would stall shutdown until the join
            # timeout.
            listener.settimeout(0.2)
        except OSError:
            # bind() on a taken port is the common case here; the socket
            # is not yet owned by self._listener, so close it before the
            # error propagates (checker rule LIFE-001).
            listener.close()
            raise
        self._listener = listener
        self._stopped.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"cdstore-tcp-{self.server.server_id}",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`shutdown`."""
        self.start()
        self._stopped.wait()

    def shutdown(self) -> None:
        """Stop accepting, sever every live connection, release the port."""
        self._stopped.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:  # pragma: no cover - platform-dependent
                pass
        with self._conn_lock:
            connections = list(self._connections)
            self._connections.clear()
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None

    def close(self) -> None:
        """Alias for :meth:`shutdown` — the uniform lifecycle verb.

        Idempotent, like every other ``close()`` in the codebase: the
        second call finds no listener and no live connections and
        returns quietly.
        """
        self.shutdown()

    def __enter__(self) -> "CDStoreTCPServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stopped.is_set() and listener is not None:
            try:
                conn, _addr = listener.accept()
            except socket.timeout:
                continue  # re-check the stop flag
            except OSError:
                return  # listener closed by shutdown
            try:
                conn.settimeout(None)  # handlers block on recv until stop
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - client raced us away
                # The peer can reset between accept() and configuration;
                # close rather than leak the half-set-up socket and keep
                # accepting (checker rule LIFE-001).
                conn.close()
                continue
            with self._conn_lock:
                if self._stopped.is_set():
                    conn.close()
                    return
                self._connections.add(conn)
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name=f"cdstore-conn-{self.server.server_id}",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        state = ConnState()
        _TCP_CONNECTIONS.inc(server=self.server.server_id)
        try:
            while not self._stopped.is_set():
                try:
                    frame_type, request_id, payload = wire.read_frame_mux(
                        lambda n: wire.recv_exact(conn, n), self.max_frame
                    )
                except (ConnectionError, OSError):
                    return  # client went away between requests
                except ReproError as exc:
                    # Bad magic / oversized length: the stream cannot be
                    # resynchronised — answer typed (connection-level, so
                    # request id 0), then hang up.
                    conn.sendall(wire.encode_error_frame(0, exc))
                    return
                try:
                    for reply_type, reply in self._dispatcher.dispatch(
                        state, frame_type, payload
                    ):
                        conn.sendall(
                            wire.encode_mux_frame(reply_type, request_id, reply)
                        )
                except ReproError as exc:
                    # A typed, *answerable* failure: report it in-band and
                    # keep serving this connection.
                    conn.sendall(wire.encode_error_frame(request_id, exc))
                except (ConnectionError, OSError):
                    return
        except Exception:  # noqa: BLE001 - server bug: drop the connection
            # Anything non-Repro is a bug, not a protocol answer.  Closing
            # without a reply makes the client treat it like an outage and
            # fail over, instead of trusting a corrupt half-reply — but the
            # bug itself must be attributable, not an unexplained network
            # flake: record the traceback (logging's last-resort handler
            # prints it to the serving process's stderr unconfigured).
            logger.exception(
                "connection handler crashed on server %s; closing connection",
                self.server.server_id,
            )
            return
        finally:
            _TCP_CONNECTIONS.dec(server=self.server.server_id)
            with self._conn_lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
