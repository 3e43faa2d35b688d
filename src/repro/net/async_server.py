"""Asyncio front-end serving one :class:`CDStoreServer` to thousands of clients.

:class:`AsyncCDStoreTCPServer` is the high-fan-in counterpart of the
thread-per-connection :class:`~repro.net.server.CDStoreTCPServer`.  One
event-loop thread owns every socket: it reads frames, answers control
frames (PING/AUTH) inline, and dispatches API frames onto the existing
blocking, lock-disciplined storage stack through a **bounded**
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
connection stays healthy.

Backpressure & slow readers
---------------------------

Worker replies enter a per-connection outbound queue capped at
``write_queue_cap`` bytes; a writer coroutine drains it through
``await drain()`` so socket backpressure propagates into the queue.  A
worker that finds the queue full blocks (bounding the server-side working
set of a streamed fetch, exactly like TCP backpressure does on the
threaded server) — but only for ``slow_reader_grace`` seconds.  A client
that stops reading past that grace is **evicted**: its connection is
aborted, releasing the worker, rather than letting one dead peer pin an
executor slot forever.

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
    "Bytes parked in per-connection outbound reply queues",
)


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
        Per-connection outbound-queue byte cap (slow-reader bound).
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
            server,
            frame_budget=frame_budget,
            tenants=tenants,
            gateway=gateway,
            trace=trace,
            span_ring=span_ring,
            slow_threshold=slow_threshold,
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
        self._aserver: asyncio.base_events.Server | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._boot_error: BaseException | None = None
        self._stopped = threading.Event()
        # Loop-affine state (touched only on the event-loop thread, so no
        # lock): the live-connection set and the admission counters.
        self._connections: set[_AsyncConnection] = set()
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
        self._aserver = None
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
        assert loop is not None
        asyncio.set_event_loop(loop)
        try:
            self._aserver = loop.run_until_complete(
                asyncio.start_server(self._on_connect, self._host, self._port)
            )
        except OSError as exc:
            self._boot_error = exc
            loop.close()
            ready.set()
            return
        self._address = self._aserver.sockets[0].getsockname()[:2]
        self._executor = ThreadPoolExecutor(
            max_workers=self.executor_size,
            thread_name_prefix=f"cdstore-async-{self.server_id}",
        )
        ready.set()
        try:
            loop.run_forever()
        finally:
            self._aserver.close()
            for conn in list(self._connections):
                conn.abort()
            with contextlib.suppress(Exception):
                loop.run_until_complete(self._aserver.wait_closed())
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                with contextlib.suppress(Exception):
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
            loop.close()

    # ------------------------------------------------------------------
    # connection handling (event-loop thread)
    # ------------------------------------------------------------------
    async def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if len(self._connections) >= self.max_connections:
            _SHEDS.inc(reason="connection_cap", server=self.server_id)
            # Shed with a typed, connection-level answer (request id 0):
            # the proxy's handshake read surfaces it as the PING's reply.
            with contextlib.suppress(ConnectionError, OSError):
                writer.write(
                    wire.encode_error_frame(
                        0, ServerOverloadedError("connection limit reached")
                    )
                )
                writer.close()
            return
        sock = writer.get_extra_info("socket")
        if sock is not None:
            with contextlib.suppress(OSError):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _AsyncConnection(self, reader, writer)
        self._connections.add(conn)
        _CONNECTIONS.inc(server=self.server_id)
        try:
            await conn.run()
        finally:
            self._connections.discard(conn)
            _CONNECTIONS.dec(server=self.server_id)
            conn.abort()

    def _admit(self, conn: "_AsyncConnection", state: ConnState) -> object | None:
        """Admission control for one API request; returns the charge key.

        ``None`` means *shed*: either the global backlog or this source's
        in-flight budget is exhausted.  The key is the authenticated
        tenant when there is one, else the connection itself — so in open
        mode fairness is per connection.
        """
        key: object = state.tenant if state.tenant is not None else conn
        if self._total_inflight >= self.max_backlog:
            _SHEDS.inc(reason="backlog", server=self.server_id)
            return None
        if self._source_inflight.get(key, 0) >= self.source_inflight_cap:
            _SHEDS.inc(reason="source_inflight", server=self.server_id)
            return None
        self._total_inflight += 1
        self._source_inflight[key] = self._source_inflight.get(key, 0) + 1
        _INFLIGHT.inc(server=self.server_id)
        return key

    def _release(self, key: object) -> None:
        _INFLIGHT.dec(server=self.server_id)
        self._total_inflight -= 1
        left = self._source_inflight.get(key, 0) - 1
        if left <= 0:
            self._source_inflight.pop(key, None)
        else:
            self._source_inflight[key] = left

    # ------------------------------------------------------------------
    # request execution (executor worker threads)
    # ------------------------------------------------------------------
    def _run_job(
        self,
        conn: "_AsyncConnection",
        state: ConnState,
        frame_type: int,
        request_id: int,
        payload: bytes,
    ) -> None:
        try:
            for reply_type, reply in self._dispatcher.dispatch(
                state, frame_type, payload
            ):
                conn.send_from_worker(
                    wire.encode_mux_frame(reply_type, request_id, reply)
                )
        except ReproError as exc:
            with contextlib.suppress(ConnectionError, OSError):
                conn.send_from_worker(wire.encode_error_frame(request_id, exc))
        except (ConnectionError, OSError):
            pass  # peer went away or was evicted mid-stream
        except Exception:  # noqa: BLE001 - server bug: drop the connection
            logger.exception(
                "request handler crashed on server %s; aborting connection",
                self.server_id,
            )
            conn.abort_threadsafe()


class _AsyncConnection:
    """One multiplexed client connection (owned by the event-loop thread).

    The outbound queue (``_out``/``_out_bytes``/``dead``) is the only
    state shared with executor workers and lives under ``_qlock`` — a
    plain mutex held for appends/pops only, never across I/O.  Everything
    else is loop-affine.
    """

    def __init__(
        self,
        srv: AsyncCDStoreTCPServer,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.srv = srv
        self.reader = reader
        self.writer = writer
        self.state = ConnState()
        self._qlock = threading.Lock()
        self._out: deque[bytes] = deque()
        self._out_bytes = 0
        self.dead = False
        #: Worker-side flow control: set while the queue has room.
        self._space = threading.Event()
        self._space.set()
        #: Loop-side writer wakeup: set while the queue has frames.
        self._wake = asyncio.Event()
        #: Request ids currently in flight (loop-affine; reuse guard).
        self._inflight_ids: set[int] = set()
        self._jobs = 0

    # -------------------------- read / dispatch side ------------------
    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        writer_task = loop.create_task(self._write_loop())
        state = self.state
        try:
            while True:
                try:
                    frame_type, request_id, payload = await self._read_frame()
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    return  # client went away between frames
                except ReproError as exc:
                    # Bad magic / oversized length: unrecoverable desync —
                    # answer typed (connection-level: id 0), then hang up.
                    self._write_inline_error(0, exc)
                    return
                try:
                    self._handle_frame(state, frame_type, request_id, payload)
                except ReproError as exc:
                    # Framing-layer violation (e.g. request-id reuse):
                    # answer typed, then hang up — in-flight ids cannot be
                    # disambiguated any more.
                    self._write_inline_error(request_id, exc)
                    return
        finally:
            await self._finish(writer_task)

    async def _read_frame(self) -> tuple[int, int, bytes]:
        raw = await self.reader.readexactly(wire.MUX_FRAME_HEADER.size)
        frame_type, request_id, length = wire.decode_header(raw, self.srv.max_frame)
        payload = await self.reader.readexactly(length) if length else b""
        return frame_type, request_id, payload

    def _handle_frame(
        self, state: ConnState, frame_type: int, request_id: int, payload: bytes
    ) -> None:
        srv = self.srv
        if frame_type in wire.CONTROL_FRAMES:
            # Control frames (version handshake, auth exchange) are cheap —
            # one HMAC at most — and mutate per-connection state, so they
            # run inline on the loop, serial with the read loop.
            try:
                for reply_type, reply in srv._dispatcher.dispatch(
                    state, frame_type, payload
                ):
                    self._write_inline(
                        wire.encode_mux_frame(reply_type, request_id, reply)
                    )
            except ReproError as exc:
                self._write_inline_error(request_id, exc)
            return
        if request_id in self._inflight_ids:
            raise ProtocolError(
                f"request id {request_id} reused while still in flight"
            )
        self._inflight_ids.add(request_id)
        key = srv._admit(self, state)
        if key is None:
            self._inflight_ids.discard(request_id)
            self._write_inline_error(
                request_id,
                ServerOverloadedError(
                    f"server {srv.server_id} shed request under load"
                ),
            )
            return
        self._jobs += 1
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(
            srv._executor, srv._run_job, self, state, frame_type, request_id, payload
        )
        future.add_done_callback(
            lambda f, key=key, rid=request_id: self._job_done(key, rid, f)
        )

    def _job_done(self, key: object, request_id: int, future) -> None:
        self.srv._release(key)
        self._jobs -= 1
        self._inflight_ids.discard(request_id)
        if future.cancelled():
            return
        exc = future.exception()
        if exc is not None:  # _run_job catches everything; belt-and-braces
            logger.error(
                "request job failed on server %s",
                self.srv.server_id,
                exc_info=exc,
            )
            self.abort()

    # -------------------------- write side ----------------------------
    def _write_inline(self, buf: bytes) -> None:
        """Loop-thread write of one whole frame (control/error replies)."""
        if self.dead:
            return
        with contextlib.suppress(ConnectionError, OSError):
            self.writer.write(buf)

    def _write_inline_error(self, request_id: int, exc: ReproError) -> None:
        self._write_inline(wire.encode_error_frame(request_id, exc))

    async def _write_loop(self) -> None:
        """Drain the worker-reply queue through real socket backpressure."""
        while True:
            await self._wake.wait()
            while True:
                with self._qlock:
                    if self.dead:
                        return
                    if not self._out:
                        self._wake.clear()
                        break
                    buf = self._out.popleft()
                    self._out_bytes -= len(buf)
                    if self._out_bytes <= self.srv.write_queue_cap:
                        self._space.set()
                _WRITE_QUEUE_BYTES.add(-len(buf), server=self.srv.server_id)
                self.writer.write(buf)
                try:
                    await self.writer.drain()
                except (ConnectionError, OSError):
                    self.abort()
                    return

    def send_from_worker(self, buf: bytes) -> None:
        """Enqueue one whole frame from an executor worker (may block).

        Blocks while the queue is over ``write_queue_cap`` — that bound is
        what keeps a streamed fetch's server-side working set finite — and
        evicts the connection if the client gives no room for
        ``slow_reader_grace`` seconds.
        """
        srv = self.srv
        deadline = time.monotonic() + srv.slow_reader_grace
        while True:
            with self._qlock:
                if self.dead:
                    raise ConnectionResetError("connection closed")
                if self._out_bytes <= srv.write_queue_cap:
                    self._out.append(buf)
                    self._out_bytes += len(buf)
                    if self._out_bytes > srv.write_queue_cap:
                        self._space.clear()
                    queued = True
                else:
                    self._space.clear()
                    queued = False
            if queued:
                _WRITE_QUEUE_BYTES.add(len(buf), server=srv.server_id)
                self._call_soon(self._wake_writer)
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # Slow reader: evict rather than pin this worker forever.
                _SLOW_READER_EVICTIONS.inc(server=srv.server_id)
                self.abort_threadsafe()
                raise ConnectionResetError("slow reader evicted")
            self._space.wait(timeout=min(remaining, 0.1))

    def _wake_writer(self) -> None:
        if not self.dead:
            self._wake.set()

    def _call_soon(self, fn) -> None:
        loop = self.srv._loop
        if loop is None:
            return
        with contextlib.suppress(RuntimeError):
            loop.call_soon_threadsafe(fn)

    # -------------------------- teardown -------------------------------
    def abort(self) -> None:
        """Kill the connection now (loop thread): drop queue, reset socket."""
        with self._qlock:
            if self.dead:
                return
            self.dead = True
            cleared = self._out_bytes
            self._out.clear()
            self._out_bytes = 0
        if cleared:
            _WRITE_QUEUE_BYTES.add(-cleared, server=self.srv.server_id)
        self._space.set()  # release blocked workers (they observe dead)
        self._wake.set()  # release the writer coroutine
        transport = self.writer.transport
        if transport is not None:
            with contextlib.suppress(Exception):
                transport.abort()

    def abort_threadsafe(self) -> None:
        """Worker-thread-safe abort: mark dead now, reset on the loop."""
        with self._qlock:
            already = self.dead
            self.dead = True
            cleared = self._out_bytes
            self._out.clear()
            self._out_bytes = 0
        if cleared:
            _WRITE_QUEUE_BYTES.add(-cleared, server=self.srv.server_id)
        self._space.set()
        if not already:
            self._call_soon(self._finish_abort)

    def _finish_abort(self) -> None:
        self._wake.set()
        transport = self.writer.transport
        if transport is not None:
            with contextlib.suppress(Exception):
                transport.abort()

    async def _finish(self, writer_task: asyncio.Task) -> None:
        """Read loop is done: flush what in-flight jobs produced, then die."""
        try:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 1.0
            while loop.time() < deadline:
                with self._qlock:
                    drained = not self._out and self._jobs == 0
                    if self.dead:
                        break
                if drained:
                    break
                await asyncio.sleep(0.01)
            if not self.dead:
                with contextlib.suppress(
                    ConnectionError, OSError, asyncio.TimeoutError
                ):
                    await asyncio.wait_for(self.writer.drain(), timeout=0.5)
        finally:
            # Runs even when the connection task itself is cancelled at
            # shutdown mid-drain — the writer task must always be reaped
            # or the loop reports it as destroyed-while-pending.
            self.abort()
            writer_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await writer_task
