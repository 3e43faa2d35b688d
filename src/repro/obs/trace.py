"""Request tracing: trace ids, spans, ring buffers, slow-request log.

A **trace** follows one logical request — an upload, a restore, a
maintenance call — across every layer and process it touches.  The
model is deliberately small:

* a *trace id* (16 random bytes) is minted once, at the
  :class:`~repro.client.client.CDStoreClient` entry point;
* each unit of work along the way records a :class:`Span` — component,
  name, start time, duration, the trace id, and its parent span id —
  into the component's bounded :class:`SpanRecorder` ring;
* across the wire the ``(trace id, span id)`` pair rides the trace
  extension (see ``docs/PROTOCOL.md``): the client proxy appends it to
  request frames, the dispatcher strips it and activates it for the
  handler — so a gateway calling replicas in the same thread propagates
  the context onward without any per-call plumbing.

Propagation *within* a process is a thread-local context
(:func:`current_context` / :func:`use_context`); code that hops threads
(the comm engine's per-cloud workers) captures the caller's context and
re-activates it in the worker.

A span slower than the tracer's threshold additionally emits one
structured ``slow_request`` event (JSON under ``--log-json``) and bumps
the ``obs_slow_requests_total`` counter — the "why was this restore
slow?" breadcrumb the ISSUE asks for.
"""

from __future__ import annotations

import os
import struct
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.analysis.annotations import guarded_by
from repro.obs.log import StructuredLog
from repro.obs.registry import REGISTRY

__all__ = [
    "Span",
    "SpanRecorder",
    "TRACE_ID_SIZE",
    "Tracer",
    "ZERO_TRACE_ID",
    "current_context",
    "mint_span_id",
    "mint_trace_id",
    "use_context",
]

#: Trace ids are exactly this many random bytes (hex-rendered in spans).
TRACE_ID_SIZE = 16

#: The "no active trace" id: all zeroes.  It still crosses the wire when
#: the trace extension is negotiated (the trailer is fixed-size), but
#: recorders drop spans carrying it — untraced requests cost no ring
#: space.
ZERO_TRACE_ID = b"\x00" * TRACE_ID_SIZE

_SLOW_REQUESTS = REGISTRY.counter(
    "obs_slow_requests_total",
    "Spans that exceeded the tracer's slow-request threshold",
)


def mint_trace_id() -> bytes:
    return os.urandom(TRACE_ID_SIZE)


def mint_span_id() -> int:
    """A random nonzero u64 span id (zero means "no parent")."""
    while True:
        span_id = struct.unpack(">Q", os.urandom(8))[0]
        if span_id:
            return span_id


@dataclass(frozen=True)
class Span:
    """One finished unit of traced work."""

    trace_id: str  # hex
    span_id: int
    parent_id: int
    component: str  # "client" | "gateway" | "server" | ...
    name: str  # e.g. "download", "frame:GW_WINDOW"
    start: float  # epoch seconds
    duration: float  # seconds
    labels: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "component": self.component,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "labels": dict(self.labels),
        }


class SpanRecorder:
    """Bounded ring of finished spans (newest kept, oldest dropped)."""

    #: Lock discipline (``repro analyze``, LOCK-001): the ring is shared
    #: by every thread that finishes a span in this component.
    GUARDED_BY = guarded_by(_spans="_lock")

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._spans: deque[Span] = deque(maxlen=capacity)

    def record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def for_trace(self, trace_id: str) -> list[Span]:
        with self._lock:
            return [span for span in self._spans if span.trace_id == trace_id]

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


# ---------------------------------------------------------------------------
# thread-local propagation
# ---------------------------------------------------------------------------

_ctx = threading.local()


def current_context() -> tuple[bytes, int]:
    """The calling thread's ``(trace_id, span_id)``; zeroes when untraced."""
    return getattr(_ctx, "trace", (ZERO_TRACE_ID, 0))


@contextmanager
def use_context(trace_id: bytes, span_id: int):
    """Activate a trace context for the calling thread (restores on exit).

    Used both by the tracer's own spans and by thread-hopping code (the
    comm engine re-activates the submitting thread's context inside its
    per-cloud workers, and the dispatcher activates the wire-carried
    context around each handler).
    """
    prev = getattr(_ctx, "trace", None)
    _ctx.trace = (trace_id, span_id)
    try:
        yield
    finally:
        if prev is None:
            del _ctx.trace
        else:
            _ctx.trace = prev


class Tracer:
    """Per-component span factory bound to one :class:`SpanRecorder`.

    ``slow_threshold`` seconds (``None`` disables) controls the
    structured slow-request log; ``enabled=False`` turns every span into
    a no-op context (the ``ObsSpec`` toggle).
    """

    def __init__(
        self,
        component: str,
        recorder: SpanRecorder | None = None,
        slow_threshold: float | None = 1.0,
        slow_log: StructuredLog | None = None,
        enabled: bool = True,
    ) -> None:
        self.component = component
        self.recorder = recorder if recorder is not None else SpanRecorder()
        self.slow_threshold = slow_threshold
        # Slow-request breadcrumbs default to stderr: servers print
        # nothing on stdout, and the CLI keeps its summaries separate.
        self.slow_log = (
            slow_log if slow_log is not None else StructuredLog(stream=sys.stderr)
        )
        self.enabled = enabled

    @contextmanager
    def span(
        self,
        name: str,
        trace_id: bytes | None = None,
        parent_id: int | None = None,
        root: bool = False,
        **labels,
    ):
        """Record one span around the ``with`` body.

        ``root=True`` mints a fresh trace id when the thread has none
        (the client entry points); otherwise an untraced caller stays
        untraced and the span is dropped at record time.  The span's
        context is active (thread-local) inside the body, so nested
        spans and outbound proxy calls pick it up automatically.
        """
        if not self.enabled:
            yield None
            return
        inherited_trace, inherited_span = current_context()
        if trace_id is None:
            trace_id = inherited_trace
            if parent_id is None:
                parent_id = inherited_span
        elif parent_id is None:
            parent_id = 0
        if root and trace_id == ZERO_TRACE_ID:
            trace_id = mint_trace_id()
            parent_id = 0
        span_id = mint_span_id()
        start = time.time()
        clock = time.perf_counter()
        try:
            with use_context(trace_id, span_id):
                yield trace_id
        finally:
            duration = time.perf_counter() - clock
            if trace_id != ZERO_TRACE_ID:
                span = Span(
                    trace_id=trace_id.hex(),
                    span_id=span_id,
                    parent_id=parent_id,
                    component=self.component,
                    name=name,
                    start=start,
                    duration=duration,
                    labels=labels,
                )
                self.recorder.record(span)
                if (
                    self.slow_threshold is not None
                    and duration >= self.slow_threshold
                ):
                    _SLOW_REQUESTS.inc(component=self.component)
                    self.slow_log.event(
                        "slow_request",
                        component=self.component,
                        name=name,
                        trace_id=trace_id.hex(),
                        span_id=span_id,
                        duration_seconds=round(duration, 6),
                        threshold_seconds=self.slow_threshold,
                        **labels,
                    )

    def snapshot(self) -> list[dict]:
        """The ring's spans as JSON-safe dicts (for ``R_OBS_STATS``)."""
        return [span.to_dict() for span in self.recorder.spans()]
