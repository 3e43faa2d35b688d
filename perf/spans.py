"""Outside-in tracing for the benchmark's ``--trace 1`` run.

Nothing under ``src/`` is instrumented.  The benchmark hands the program
*timing delegates* at seams it already exposes — a ``Chunker`` and a codec
for the client, a server-surface delegate around each
``RemoteServerProxy`` and each ``CDStoreServer``, an index delegate around
``LSMIndex`` and a backend delegate around ``LocalDirBackend`` — and every
call through a delegate records one :class:`Span`: layer, name, start, end,
thread, the id of the operation it belongs to and the span that caused it.

Cause links cross threads and the wire on the program's own trace
context: the 16-byte trace id the client's tracer propagates to its comm
workers and (wire v2 trace trailer) to the dispatcher is minted *here* as
``(op id, causing span id)``, so a server span names the client call that
sent its frame.

Spans stay in memory (one list per thread, no lock on the hot path) and
are written as JSON lines only when the run ends.
"""

from __future__ import annotations

import bisect
import itertools
import json
import struct
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.chunking.base import Chunker
from repro.obs.trace import current_context, use_context

_CONTEXT = struct.Struct(">QQ")


class Span:
    """One timed call at a layer boundary."""

    __slots__ = (
        "id", "parent", "op", "layer", "name", "thread",
        "start", "end", "child_s", "cpu_start", "cpu_s", "child_cpu_s", "count", "nbytes",
    )

    def __init__(self, span_id, parent, op, layer, name, thread, start, cpu):
        self.id = span_id
        self.parent = parent
        self.op = op
        self.layer = layer
        self.name = name
        self.thread = thread
        self.start = start
        self.end = start
        #: Seconds of this span covered by child spans *on the same thread*.
        self.child_s = 0.0
        #: CPU seconds this thread burned inside the span, and the part of
        #: them inside child spans.
        self.cpu_start = cpu
        self.cpu_s = 0.0
        self.child_cpu_s = 0.0
        self.count = 0
        self.nbytes = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s

    @property
    def self_cpu_s(self) -> float:
        return self.cpu_s - self.child_cpu_s

    def to_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "op": self.op,
            "layer": self.layer, "name": self.name, "thread": self.thread,
            "start": self.start, "end": self.end, "self_s": self.self_s,
            "cpu_s": self.cpu_s, "self_cpu_s": self.self_cpu_s,
            "count": self.count, "bytes": self.nbytes,
        }


class Tracer:
    """Span factory and in-memory store shared by every delegate of a run."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[list[Span]] = []

    def _state(self):
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack = []
            tls.done = []
            tls.name = threading.current_thread().name
            with self._lock:
                self._per_thread.append(tls.done)
        return tls

    def begin(self, layer: str, name: str) -> Span:
        """Open a span whose cause is the enclosing span on this thread or,
        on a thread with none open, the span the trace context names."""
        tls = self._state()
        if tls.stack:
            parent = tls.stack[-1]
            op, parent_id = parent.op, parent.id
        else:
            op, parent_id = _CONTEXT.unpack(current_context()[0])
        span = Span(next(self._ids), parent_id, op, layer, name, tls.name,
                    time.perf_counter(), time.thread_time())
        tls.stack.append(span)
        return span

    def end(self, span: Span, count: int = 1, nbytes: int = 0) -> None:
        span.cpu_s = time.thread_time() - span.cpu_start
        span.end = time.perf_counter()
        span.count = count
        span.nbytes = nbytes
        tls = self._tls
        tls.stack.pop()
        if tls.stack:
            tls.stack[-1].child_s += span.end - span.start
            tls.stack[-1].child_cpu_s += span.cpu_s
        tls.done.append(span)

    @contextmanager
    def op(self, kind: str):
        """Root span of one client operation; mints the op's trace context."""
        span = self.begin("client", kind)
        span.op = span.id
        try:
            with use_context(_CONTEXT.pack(span.id, span.id), 0):
                yield span
        finally:
            self.end(span)

    @contextmanager
    def causing(self, span: Span):
        """Make ``span`` the cause of whatever the body sends elsewhere."""
        with use_context(_CONTEXT.pack(span.op, span.id), 0):
            yield

    def spans(self) -> list[Span]:
        with self._lock:
            lists = list(self._per_thread)
        return [span for done in lists for span in done]

    def write(self, path: Path) -> None:
        with path.open("w") as out:
            for span in sorted(self.spans(), key=lambda s: s.start):
                out.write(json.dumps(span.to_dict()) + "\n")


class _Delegate:
    """Forwards every attribute it does not time to the wrapped object."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _timed(self, layer, name, fn, *args, count=1, nbytes=0, **kwargs):
        span = self._tracer.begin(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._tracer.end(span, count, nbytes)


class TimedChunker(Chunker):
    """``chunking``: the client's chunker, timed over the whole file."""

    def __init__(self, inner: Chunker, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def spec(self):
        return self._inner.spec()

    def chunk_bytes(self, data):
        span = self._tracer.begin("chunking", "chunk")
        chunks: list = []
        try:
            chunks = list(self._inner.chunk_bytes(data))
        finally:
            self._tracer.end(span, len(chunks), len(data))
        return iter(chunks)


class TimedCodec(_Delegate):
    """``core``: the convergent-dispersal codec's encode and decode calls."""

    def split(self, secret):
        return self._timed("core", "encode", self._inner.split, secret)

    def encode_batch(self, secrets):
        return self._timed("core", "encode", self._inner.encode_batch, secrets,
                           count=len(secrets))

    def recover(self, shares, secret_size):
        return self._timed("core", "decode", self._inner.recover, shares, secret_size)

    def decode_batch(self, requests):
        return self._timed("core", "decode", self._inner.decode_batch, requests,
                           count=len(requests))


class _TimedAck:
    """Ack handle of a pipelined upload: the wait is upload time too."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def result(self):
        span = self._tracer.begin("net.client", "upload_ack")
        try:
            return self._inner.result()
        finally:
            self._tracer.end(span, 0)


class TimedProxy(_Delegate):
    """``net.client``: time the client spends inside ``RemoteServerProxy``
    calls.  Each call is the cause of the server spans its frames produce."""

    def _rpc(self, name, fn, *args, nbytes=0):
        span = self._tracer.begin("net.client", name)
        try:
            with self._tracer.causing(span):
                return fn(*args)
        finally:
            self._tracer.end(span, 1, nbytes)

    def query_duplicates(self, user_id, fingerprints):
        return self._rpc("query", self._inner.query_duplicates, user_id, fingerprints)

    def upload_shares(self, user_id, uploads):
        return self._rpc("upload", self._inner.upload_shares, user_id, uploads,
                          nbytes=sum(len(u.data) for u in uploads))

    def upload_shares_async(self, user_id, uploads):
        ack = self._rpc("upload", self._inner.upload_shares_async, user_id, uploads,
                         nbytes=sum(len(u.data) for u in uploads))
        return _TimedAck(ack, self._tracer)

    def finalize_file(self, user_id, manifest, share_metas):
        return self._rpc("finalize", self._inner.finalize_file, user_id, manifest,
                          share_metas)

    def flush(self):
        return self._rpc("flush", self._inner.flush)

    def get_file_entry(self, user_id, lookup_key):
        return self._rpc("resolve", self._inner.get_file_entry, user_id, lookup_key)

    def get_recipe(self, user_id, lookup_key):
        return self._rpc("resolve", self._inner.get_recipe, user_id, lookup_key)

    def fetch_shares(self, fingerprints):
        return self._rpc("fetch", self._inner.fetch_shares, fingerprints)


class TimedServer(_Delegate):
    """``server``: each ``CDStoreServer`` call the dispatcher makes."""

    def query_duplicates(self, user_id, fingerprints):
        return self._timed("server", "query", self._inner.query_duplicates,
                           user_id, fingerprints)

    def upload_shares(self, user_id, uploads):
        return self._timed("server", "upload", self._inner.upload_shares,
                           user_id, uploads)

    def finalize_file(self, user_id, manifest, share_metas):
        return self._timed("server", "finalize", self._inner.finalize_file,
                           user_id, manifest, share_metas)

    def flush(self):
        return self._timed("server", "flush", self._inner.flush)

    def get_file_entry(self, user_id, lookup_key):
        return self._timed("server", "resolve", self._inner.get_file_entry,
                           user_id, lookup_key)

    def get_recipe(self, user_id, lookup_key, **kwargs):
        return self._timed("server", "resolve", self._inner.get_recipe,
                           user_id, lookup_key, **kwargs)

    def iter_share_batches(self, fingerprints, *args, **kwargs):
        """One ``fetch`` span per batch the generator produces: the time
        between batches belongs to the dispatcher writing the frame."""
        batches = self._inner.iter_share_batches(fingerprints, *args, **kwargs)
        first = True
        while True:
            span = self._tracer.begin("server", "fetch")
            try:
                batch = next(batches)
            except StopIteration:
                return
            finally:
                self._tracer.end(span, 1 if first else 0)
                first = False
            yield batch


class TimedIndex(_Delegate):
    """``lsm``: the server's calls into its ``LSMIndex``."""

    def get(self, key):
        return self._timed("lsm", "get", self._inner.get, key)

    def put(self, key, value):
        return self._timed("lsm", "put", self._inner.put, key, value)

    def delete(self, key):
        return self._timed("lsm", "delete", self._inner.delete, key)

    def sync(self):
        return self._timed("lsm", "sync", self._inner.sync)


class TimedBackend(_Delegate):
    """``storage``: object writes and (ranged) reads on ``LocalDirBackend``."""

    def put_object(self, key, data):
        return self._timed("storage", "put", self._inner.put_object, key, data,
                           nbytes=len(data))

    def get_object(self, key):
        span = self._tracer.begin("storage", "get")
        data = b""
        try:
            data = self._inner.get_object(key)
            return data
        finally:
            self._tracer.end(span, 1, len(data))

    def get_range(self, key, offset, length):
        return self._timed("storage", "get", self._inner.get_range, key, offset,
                           length, nbytes=length)


def in_windows(spans: list[Span], windows: list[tuple[float, float]]) -> list[Span]:
    """The spans that started inside one of the (disjoint) timed sections."""
    windows = sorted(windows)
    starts = [start for start, _ in windows]
    kept = []
    for span in spans:
        idx = bisect.bisect_right(starts, span.start) - 1
        if idx >= 0 and span.start < windows[idx][1]:
            kept.append(span)
    return kept


def totals(spans: list[Span]) -> dict[tuple[str, str], dict]:
    """Per ``(layer, name)``: summed seconds, self seconds, self CPU seconds,
    counts and bytes."""
    out: dict[tuple[str, str], dict] = {}
    for span in spans:
        row = out.setdefault(
            (span.layer, span.name),
            {"seconds": 0.0, "self_s": 0.0, "self_cpu_s": 0.0, "count": 0, "bytes": 0},
        )
        row["seconds"] += span.seconds
        row["self_s"] += span.self_s
        row["self_cpu_s"] += span.self_cpu_s
        row["count"] += span.count
        row["bytes"] += span.nbytes
    return out
