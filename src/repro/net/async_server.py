"""Asyncio front-end serving one :class:`CDStoreServer` to thousands of clients.

:class:`AsyncCDStoreTCPServer` is the high-fan-in counterpart of the
thread-per-connection :class:`~repro.net.server.CDStoreTCPServer`.  One
event-loop thread is a reactor over raw non-blocking sockets: one
readiness callback per connection reads whatever arrived, answers control
frames (PING/AUTH) inline, and hands API frames to the existing blocking,
lock-disciplined storage stack through a **bounded**
``ThreadPoolExecutor``.  Connection count no longer buys a thread each —
ten thousand idle connections cost ten thousand socket objects, not ten
thousand stacks — while the storage stack keeps being driven by plain
threads exactly like in-process callers, so its locking discipline is
preserved, not re-implemented behind the loop.

Both front-ends answer frames through the same
:class:`~repro.net.dispatch.FrameDispatcher`; protocol behaviour (auth,
tenancy, rate limits, streamed fetches, typed errors) is identical.

Concurrency & fairness
----------------------

A connection may have many requests in flight, correlated by request
id.  Admission control is two-tier:

* **per source** — at most ``source_inflight_cap`` requests in flight per
  authenticated tenant (or per connection in open mode), so one greedy
  client cannot occupy the whole executor;
* **global** — at most ``max_backlog`` requests queued-or-running across
  the server.

A request over either bound is *shed*, not queued: the client gets an
immediate typed :data:`~repro.net.wire.R_ERROR` frame carrying
:class:`~repro.errors.ServerOverloadedError` (which the comm engine
treats as a transient cloud outage — fail over or retry), and the
connection stays healthy.  The loop admits; the worker that ran the
request releases its slot, under one admission lock.

Backpressure & slow readers
---------------------------

The worker that produced a reply writes it straight to the socket under
the connection's write lock, so frames never interleave.  Only bytes the
socket refuses are queued, for a loop writer callback to drain; neither
the loop nor a control reply ever waits on a socket or on a worker.  A
worker that finds more than ``write_queue_cap`` bytes queued waits
(bounding a streamed fetch's server-side working set, exactly like TCP
backpressure does on the threaded server) — but only for
``slow_reader_grace`` seconds.  A client that stops reading past that
grace is **evicted**: its connection is aborted, releasing the worker,
rather than letting one dead peer pin an executor slot forever.

Error discipline matches the threaded server: a :class:`~repro.errors.
ReproError` is a typed in-band answer; any other exception is a server
bug and aborts the connection so the client runs its failover path.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import socket
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from repro.analysis.annotations import guarded_by
from repro.errors import ProtocolError, ReproError, ServerOverloadedError
from repro.net import wire
from repro.net.dispatch import ConnState, FrameDispatcher
from repro.obs.registry import REGISTRY
from repro.server.server import CDStoreServer, FETCH_BATCH_BYTES
from repro.tenants import TenantRegistry

__all__ = ["AsyncCDStoreTCPServer"]

logger = logging.getLogger(__name__)

# Front-end hot-path metrics (docs/OBSERVABILITY.md).  All carry a
# ``server`` label so co-located front-ends (a gateway plus its replicas
# in one process) stay distinguishable in one registry snapshot; the
# snapshot served by T_OBS_STATS is process-wide either way.
_CONNECTIONS = REGISTRY.gauge(
    "net_async_connections", "Open connections per async front-end"
)
_INFLIGHT = REGISTRY.gauge(
    "net_async_inflight", "API requests admitted and not yet finished"
)
_SHEDS = REGISTRY.counter(
    "net_async_sheds_total",
    "Work refused by admission control, by reason "
    "(connection_cap | backlog | source_inflight)",
)
_SLOW_READER_EVICTIONS = REGISTRY.counter(
    "net_async_slow_reader_evictions_total",
    "Connections aborted because the peer stopped draining replies",
)
_WRITE_QUEUE_BYTES = REGISTRY.gauge(
    "net_async_write_queue_bytes",
    "Reply bytes the socket refused, parked in per-connection queues",
)

_HEADER = wire.MUX_FRAME_HEADER.size
#: The loop's read buffer, shared by every connection between frames that
#: fit it, so an idle connection holds no buffer at all.
_READ_BUFFER = 256 << 10


class AsyncCDStoreTCPServer:
    """Serve one CDStore server over TCP via an event loop + bounded executor.

    Parameters
    ----------
    server:
        The :class:`~repro.server.server.CDStoreServer` (or any object
        with its surface) answering the requests.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`address`).
    frame_budget:
        Cap on one ``fetch_shares`` reply frame (see the threaded server).
    max_frame:
        Hard cap on *incoming* frame payloads (request flood guard).
    tenants:
        Optional :class:`~repro.tenants.TenantRegistry` (same semantics
        as the threaded server).
    executor_size:
        Worker threads actually driving the storage stack.  This — not
        the connection count — bounds storage-layer concurrency.
    max_connections:
        Accepted-connection cap; further connects are answered with one
        typed overload frame and closed.
    write_queue_cap:
        Per-connection cap on queued reply bytes the socket has not yet
        taken (slow-reader bound).
    source_inflight_cap:
        Max in-flight requests per tenant (or per connection when open).
    max_backlog:
        Global in-flight request cap; defaults to ``8 * executor_size``.
    slow_reader_grace:
        Seconds a worker may wait on a full outbound queue before the
        connection is evicted.
    trace, span_ring, slow_threshold:
        Observability plumbing forwarded to the
        :class:`~repro.net.dispatch.FrameDispatcher`: whether to offer
        the trace extension in PONG, the span ring capacity, and the
        slow-request log threshold in seconds (``None`` disables).
    """

    #: Lock discipline (``repro analyze``, LOCK-001): the loop admits a
    #: request and the worker that ran it releases the slot, so the
    #: admission counters live under ``_admission_lock``.
    GUARDED_BY = guarded_by(
        _total_inflight="_admission_lock", _source_inflight="_admission_lock"
    )

    def __init__(
        self,
        server: CDStoreServer | None,
        host: str = "127.0.0.1",
        port: int = 0,
        frame_budget: int = FETCH_BATCH_BYTES,
        max_frame: int = wire.MAX_FRAME_BYTES,
        tenants: TenantRegistry | None = None,
        executor_size: int = 8,
        max_connections: int = 1000,
        write_queue_cap: int = 16 << 20,
        source_inflight_cap: int = 64,
        max_backlog: int | None = None,
        slow_reader_grace: float = 20.0,
        gateway=None,
        trace: bool = True,
        span_ring: int = 256,
        slow_threshold: float | None = 1.0,
    ) -> None:
        if executor_size < 1:
            raise ValueError(f"executor_size must be >= 1, got {executor_size}")
        if max_connections < 1:
            raise ValueError(f"max_connections must be >= 1, got {max_connections}")
        if write_queue_cap < 1:
            raise ValueError(f"write_queue_cap must be >= 1, got {write_queue_cap}")
        self._dispatcher = FrameDispatcher(
            server, frame_budget=frame_budget, tenants=tenants, gateway=gateway,
            trace=trace, span_ring=span_ring, slow_threshold=slow_threshold,
        )
        self.server = server
        self.gateway = gateway
        self.max_frame = max_frame
        self.executor_size = executor_size
        self.max_connections = max_connections
        self.write_queue_cap = write_queue_cap
        self.source_inflight_cap = source_inflight_cap
        self.max_backlog = max_backlog if max_backlog is not None else 8 * executor_size
        self.slow_reader_grace = slow_reader_grace
        self._host = host
        self._port = port
        self._address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._listener: socket.socket | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._boot_error: BaseException | None = None
        self._stopped = threading.Event()
        #: Open connections and the shared read buffer: only the loop
        #: thread touches them, so no lock.
        self._connections: set[_AsyncConnection] = set()
        self._rbuf = bytearray(_READ_BUFFER)
        self._admission_lock = threading.Lock()
        self._total_inflight = 0
        self._source_inflight: dict[object, int] = {}

    @property
    def server_id(self) -> int:
        """The backing server's id, or the gateway sentinel when this
        front-end terminates gateway traffic only (``server=None``)."""
        if self.server is not None:
            return self.server.server_id
        return wire.GATEWAY_SERVER_ID

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
        if self._address is not None:
            return self._address
        return (self._host, self._port)

    def start(self) -> "AsyncCDStoreTCPServer":
        """Spawn the event-loop thread, bind and listen (idempotent)."""
        if self._thread is not None:
            return self
        self._stopped.clear()
        self._boot_error = None
        self._loop = asyncio.new_event_loop()
        ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run_loop,
            args=(ready,),
            name=f"cdstore-async-{self.server_id}",
            daemon=True,
        )
        self._thread.start()
        ready.wait()
        if self._boot_error is not None:
            error, self._boot_error = self._boot_error, None
            self._thread.join(timeout=5)
            self._thread = None
            self._loop = None
            raise error
        return self

    def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`shutdown`."""
        self.start()
        self._stopped.wait()

    def shutdown(self) -> None:
        """Abort every connection, stop the loop, release the port."""
        self._stopped.set()
        thread, self._thread = self._thread, None
        if thread is None:
            return
        loop = self._loop
        if loop is not None:
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self._loop = None
        self._address = None

    def close(self) -> None:
        """Alias for :meth:`shutdown` — the uniform lifecycle verb."""
        self.shutdown()

    def __enter__(self) -> "AsyncCDStoreTCPServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def _run_loop(self, ready: threading.Event) -> None:
        loop = self._loop
        asyncio.set_event_loop(loop)
        try:
            family, _, _, _, addr = socket.getaddrinfo(
                self._host or None, self._port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE
            )[0]
            listener = socket.create_server(addr, family=family, backlog=100)
        except OSError as exc:
            self._boot_error = exc
            loop.close()
            ready.set()
            return
        listener.setblocking(False)
        self._listener = listener
        self._address = listener.getsockname()[:2]
        self._executor = ThreadPoolExecutor(
            max_workers=self.executor_size,
            thread_name_prefix=f"cdstore-async-{self.server_id}",
        )
        loop.add_reader(listener, self._on_accept)
        ready.set()
        try:
            loop.run_forever()
        finally:
            loop.remove_reader(listener)
            listener.close()
            self._listener = None
            for conn in list(self._connections):
                conn.abort()
                conn._close()
            loop.close()

    # ------------------------------------------------------------------
    # connection handling (event-loop thread)
    # ------------------------------------------------------------------
    def _on_accept(self) -> None:
        listener, loop = self._listener, self._loop
        for _ in range(64):  # bounded, so a connect flood cannot starve reads
            try:
                sock, _addr = listener.accept()
            except (BlockingIOError, InterruptedError, ConnectionAbortedError):
                return
            except OSError:
                break
            self._take(sock)
        else:
            return
        # Out of descriptors or memory: pause instead of spinning on it.
        loop.remove_reader(listener)
        loop.call_later(1.0, loop.add_reader, listener, self._on_accept)

    def _take(self, sock: socket.socket) -> None:
        """Serve an accepted socket, or shed it over the connection cap."""
        sock.setblocking(False)
        if len(self._connections) >= self.max_connections:
            _SHEDS.inc(reason="connection_cap", server=self.server_id)
            # A typed answer with request id 0: the proxy reads it as the PONG.
            shed = ServerOverloadedError("connection limit reached")
            with sock, contextlib.suppress(OSError):
                sock.send(wire.encode_error_frame(0, shed))
            return
        with contextlib.suppress(OSError):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _AsyncConnection(self, sock)
        self._connections.add(conn)
        _CONNECTIONS.inc(server=self.server_id)
        self._loop.add_reader(sock, conn.on_readable)

    def _admit(self, conn: "_AsyncConnection", state: ConnState) -> object | None:
        """Admission control for one API request; returns the charge key.

        ``None`` means *shed*: either the global backlog or this source's
        in-flight budget is exhausted.  The key is the authenticated
        tenant when there is one, else the connection itself — so in open
        mode fairness is per connection.
        """
        key: object = state.tenant if state.tenant is not None else conn
        with self._admission_lock:
            if self._total_inflight >= self.max_backlog:
                shed = "backlog"
            elif self._source_inflight.get(key, 0) >= self.source_inflight_cap:
                shed = "source_inflight"
            else:
                shed = None
                self._total_inflight += 1
                self._source_inflight[key] = self._source_inflight.get(key, 0) + 1
        if shed is not None:
            _SHEDS.inc(reason=shed, server=self.server_id)
            return None
        _INFLIGHT.inc(server=self.server_id)
        return key

    def _release(self, key: object) -> None:
        with self._admission_lock:
            self._total_inflight -= 1
            left = self._source_inflight.get(key, 0) - 1
            if left <= 0:
                self._source_inflight.pop(key, None)
            else:
                self._source_inflight[key] = left
        _INFLIGHT.dec(server=self.server_id)

    # ------------------------------------------------------------------
    # request execution (executor worker threads)
    # ------------------------------------------------------------------
    def _run_job(self, conn: "_AsyncConnection", state: ConnState, frame_type: int,
                 request_id: int, payload: bytes, key: object) -> None:
        """Answer one API frame on a worker, writing the replies itself.

        A streamed reply's middle frames go out as they are produced; the
        final frame (or the typed error) waits for the dispatch to end, so
        the slot and the id are free before the client can reuse the id.
        """
        row = wire.FRAMES.get(frame_type)
        mid = row.mid if row is not None else None
        last: bytes | None = None
        try:
            for reply_type, reply in self._dispatcher.dispatch(state, frame_type, payload):
                frame = wire.encode_mux_frame(reply_type, request_id, reply)
                if reply_type == mid:
                    conn.send(frame)
                else:
                    last = frame
        except ReproError as exc:
            last = wire.encode_error_frame(request_id, exc)
        except OSError:
            conn.abort()  # the peer went away or was evicted, or the stack failed
        except Exception:  # noqa: BLE001 - server bug: drop the connection
            logger.exception("request handler crashed on server %s; aborting connection",
                             self.server_id)
            conn.abort()
        finally:
            self._release(key)
            conn.end_job(request_id, last)


class _AsyncConnection:
    """One multiplexed client connection on a non-blocking socket.

    Reads, parsing and teardown run on the loop.  The loop (control
    replies) and workers (API replies) write whole frames under
    ``_wlock``, a mutex held for non-blocking sends and queue updates only;
    a worker over ``write_queue_cap`` waits on its condition."""

    #: Lock discipline (``repro analyze``, LOCK-001): what a worker and the
    #: loop both touch (the refused bytes, the in-flight ids and job count,
    #: the liveness flags) lives under the write lock.
    GUARDED_BY = guarded_by(
        _out="_wlock", _out_bytes="_wlock", _inflight_ids="_wlock",
        _jobs="_wlock", _reading="_wlock", dead="_wlock",
    )

    def __init__(self, srv: AsyncCDStoreTCPServer, sock: socket.socket) -> None:
        self.srv = srv
        self.loop = srv._loop
        self.sock = sock
        self.state = ConnState()
        self._wlock = threading.Condition(threading.Lock())
        self._out: deque[memoryview] = deque()
        self._out_bytes = 0
        #: In-flight request ids (reuse guard); a hung-up connection closes at 0 jobs.
        self._inflight_ids: set[int] = set()
        self._jobs = 0
        self._reading = True
        self.dead = False
        # Loop-affine unparsed bytes: ``_rest``, or ``_rbuf[:_rlen]`` while a
        # frame larger than the shared buffer arrives into one of its own.
        self._rest = b""
        self._rbuf: bytearray | None = None
        self._rlen = 0

    # -------------------------- read / dispatch side (loop) -----------
    def on_readable(self) -> None:
        """Read what arrived and handle every complete frame in it."""
        buf, start = self._rbuf, self._rlen
        if buf is None:
            buf, start = self.srv._rbuf, len(self._rest)
            buf[:start] = self._rest
        try:
            with memoryview(buf) as view:
                got = self.sock.recv_into(view[start:])
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            got = 0
        if not got:
            self._hang_up()  # client went away
            return
        end = start + got
        pos, need = 0, _HEADER
        with memoryview(buf) as view:
            while end - pos >= _HEADER:
                request_id = 0  # a header that fails to parse answers no request
                try:
                    frame_type, request_id, length = wire.decode_header(
                        view[pos:pos + _HEADER], self.srv.max_frame
                    )
                    need = _HEADER + length
                    if end - pos < need:
                        break
                    payload = bytes(view[pos + _HEADER:pos + need])
                    pos, need = pos + need, _HEADER
                    self._handle_frame(frame_type, request_id, payload)
                except ReproError as exc:
                    # Bad magic, oversized length or a reused request id: the
                    # stream cannot be trusted further — answer, then hang up.
                    self._reply_now(wire.encode_error_frame(request_id, exc))
                    self._hang_up()
                    return
                except Exception:  # noqa: BLE001 - server bug: drop the connection
                    logger.exception("frame handler crashed on server %s; aborting connection",
                                     self.srv.server_id)
                    self.abort()
                    return
        if need <= _READ_BUFFER:
            self._rest, self._rbuf, self._rlen = bytes(buf[pos:end]), None, 0
        elif buf is self.srv._rbuf or end == len(buf):
            # A larger frame is arriving: give it a buffer of its own, grown
            # with what came, so a bare header cannot claim ``max_frame``.
            self._rbuf = bytearray(min(need, 4 * (end - pos)))
            self._rbuf[:end - pos] = buf[pos:end]
            self._rlen = end - pos
        else:
            self._rlen = end  # the frame fills its own buffer from 0

    def _handle_frame(self, frame_type: int, request_id: int, payload: bytes) -> None:
        srv, state = self.srv, self.state
        if frame_type in wire.CONTROL_FRAMES:
            # Control frames (version handshake, auth exchange) are cheap —
            # one HMAC at most — and mutate per-connection state, so they
            # run inline on the loop, serial with the reads.
            try:
                for reply_type, reply in srv._dispatcher.dispatch(state, frame_type, payload):
                    self._reply_now(wire.encode_mux_frame(reply_type, request_id, reply))
            except ReproError as exc:
                self._reply_now(wire.encode_error_frame(request_id, exc))
            return
        with self._wlock:
            if request_id in self._inflight_ids:
                raise ProtocolError(f"request id {request_id} reused while still in flight")
            key = srv._admit(self, state)
            if key is not None:
                self._inflight_ids.add(request_id)
                self._jobs += 1
        if key is None:
            shed = ServerOverloadedError(f"server {srv.server_id} shed request under load")
            self._reply_now(wire.encode_error_frame(request_id, shed))
            return
        srv._executor.submit(srv._run_job, self, state, frame_type, request_id, payload, key)

    def _hang_up(self) -> None:
        """Stop reading; close once in-flight jobs have written their
        replies, or after ``slow_reader_grace`` seconds at the latest."""
        self.loop.remove_reader(self.sock)
        with self._wlock:
            self._reading = False
            idle = not self._jobs and not self._out
        if idle:
            self.abort()
        else:
            self.loop.call_later(self.srv.slow_reader_grace, self.abort)

    # -------------------------- write side -----------------------------
    def send(self, frame: bytes) -> None:
        """Write one whole frame from a worker; see :meth:`_wait_for_room_locked`."""
        with self._wlock:
            self._wait_for_room_locked()
            self._write_locked(frame)

    def end_job(self, request_id: int, frame: bytes | None) -> None:
        """A job is over: free its id, write its final frame, count it done."""
        with self._wlock:
            self._inflight_ids.discard(request_id)
            if frame is not None:
                with contextlib.suppress(OSError):  # dead or evicted: no one to answer
                    self._wait_for_room_locked()
                    self._write_locked(frame)
            self._jobs -= 1
            hung_up = not self._jobs and not self._reading and not self._out
        if hung_up:
            self.abort()

    def _reply_now(self, frame: bytes) -> None:
        """Loop-thread write of one whole frame; never waits for room."""
        with self._wlock, contextlib.suppress(OSError):
            self._write_locked(frame)

    def _wait_for_room_locked(self) -> None:
        """Wait while over ``write_queue_cap`` refused bytes are queued (this
        bounds a streamed fetch's working set); evict after the grace."""
        srv = self.srv
        deadline = time.monotonic() + srv.slow_reader_grace
        while self._out_bytes > srv.write_queue_cap and not self.dead:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # Slow reader: evict rather than pin this worker forever.
                _SLOW_READER_EVICTIONS.inc(server=srv.server_id)
                self._kill_locked()
                raise ConnectionResetError("slow reader evicted")
            self._wlock.wait(remaining)

    def _write_locked(self, frame: bytes) -> None:
        """Send what the socket takes now; queue the rest behind the queue."""
        if self.dead:
            raise ConnectionResetError("connection closed")
        rest = memoryview(frame)
        if not self._out:
            try:
                rest = rest[self.sock.send(rest):]
            except (BlockingIOError, InterruptedError):
                pass
            except OSError:
                self._kill_locked()
                raise
            if not rest:
                return
            self._call_soon(self._arm_writer)
        self._out.append(rest)
        self._out_bytes += len(rest)
        _WRITE_QUEUE_BYTES.add(len(rest), server=self.srv.server_id)

    def _arm_writer(self) -> None:
        with self._wlock:
            if self._out and not self.dead:
                self.loop.add_writer(self.sock, self._on_writable)

    def _on_writable(self) -> None:
        """Loop writer callback: drain refused bytes as the socket takes them."""
        with self._wlock:
            try:
                while self._out:
                    head = self._out[0]
                    took = self.sock.send(head)
                    self._out_bytes -= took
                    _WRITE_QUEUE_BYTES.add(-took, server=self.srv.server_id)
                    if took < len(head):
                        self._out[0] = head[took:]
                        break
                    self._out.popleft()
            except (BlockingIOError, InterruptedError):
                pass
            except OSError:
                self._kill_locked()
            self._wlock.notify_all()
            if self._out and not self.dead:
                return
            hung_up = self.dead or (not self._jobs and not self._reading)
        self.loop.remove_writer(self.sock)
        if hung_up:
            self.abort()

    def _call_soon(self, fn) -> None:
        with contextlib.suppress(RuntimeError):  # loop already closed
            self.loop.call_soon_threadsafe(fn)

    def abort(self) -> None:
        """Kill the connection (any thread): no write reaches it any more."""
        with self._wlock:
            self._kill_locked()

    def _kill_locked(self) -> None:
        """Mark dead, drop the queue, wake workers, have the loop close."""
        if self.dead:
            return
        self.dead = True
        _WRITE_QUEUE_BYTES.add(-self._out_bytes, server=self.srv.server_id)
        self._out.clear()
        self._out_bytes = 0
        self._wlock.notify_all()
        self._call_soon(self._close)

    def _close(self) -> None:
        """Loop thread, after the connection is dead: release the socket."""
        srv = self.srv
        if self not in srv._connections:
            return
        srv._connections.discard(self)
        _CONNECTIONS.dec(server=srv.server_id)
        self.loop.remove_reader(self.sock)
        self.loop.remove_writer(self.sock)
        self.sock.close()
