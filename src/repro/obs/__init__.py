"""Observability: metrics registry, request tracing, structured logging.

The serving stack (encode pools → comm engine → mux wire → async
front-end → gateway → crash-only server) is instrumented through this
package.  Three subsystems, deliberately dependency-free (they import
nothing from the serving layers, so every layer can import them):

* :mod:`repro.obs.registry` — process-wide metrics registry: labeled
  counters, gauges and fixed-bucket latency histograms with a lock-free
  per-thread fast path, a versioned snapshot, and Prometheus text
  rendering.  The process default lives at
  :data:`~repro.obs.registry.REGISTRY`.
* :mod:`repro.obs.trace` — request tracing: trace ids minted at
  :class:`~repro.client.client.CDStoreClient` entry points, carried in
  the wire trace extension, recorded as :class:`~repro.obs.trace.
  Span` rows in bounded per-component ring buffers, with a structured
  slow-request log above a configurable threshold.
* :mod:`repro.obs.log` — structured event logging (human one-liners by
  default, JSON lines on request) shared by the CLI summaries and the
  slow-request log.

Every registered metric name is catalogued in ``docs/OBSERVABILITY.md``;
the OBS-001 checker (``repro analyze``) cross-checks the two so the
catalogue cannot drift from the code.
"""

from repro.obs.log import StructuredLog
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    REGISTRY,
    MetricsRegistry,
    render_prometheus,
)
from repro.obs.trace import (
    TRACE_ID_SIZE,
    ZERO_TRACE_ID,
    Span,
    SpanRecorder,
    Tracer,
    current_context,
    mint_span_id,
    mint_trace_id,
    use_context,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "REGISTRY",
    "MetricsRegistry",
    "Span",
    "SpanRecorder",
    "StructuredLog",
    "TRACE_ID_SIZE",
    "Tracer",
    "ZERO_TRACE_ID",
    "current_context",
    "mint_span_id",
    "mint_trace_id",
    "render_prometheus",
    "use_context",
]
