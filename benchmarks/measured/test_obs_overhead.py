"""Observability overhead — instrumented vs uninstrumented backup/restore.

Not a paper figure: CDStore (LiQL15) reports no telemetry costs.  This
table shows the design constraint the ``repro.obs`` registry was built
around — metrics are incremented inside the WAL append loop, the
dispatcher and the per-window restore path, so the per-thread-cell fast
path should keep a fully instrumented ingest + restore within a few
percent of the same run with the kill switch off:

* the throughput ratio of a whole backup+restore cycle with
  ``REGISTRY.enabled = True`` (and client tracing on) over the identical
  cycle with observability off, both legs on one machine back to back
  (1.0 means free);
* instrument micro-costs (ns per counter ``inc`` / histogram
  ``observe``, enabled vs disabled) as context, so a change in the ratio
  is attributable at a glance.

Nothing about speed is asserted; each cycle checks that it restored the
bytes it backed up.
"""

from __future__ import annotations

import time

from conftest import emit, scaled

from repro.bench.reporting import format_table
from repro.chunking.fixed import FixedChunker
from repro.client.client import CDStoreClient
from repro.cloud.network import Link
from repro.cloud.provider import CloudProvider
from repro.crypto.drbg import DRBG
from repro.obs.registry import REGISTRY, MetricsRegistry
from repro.server.server import CDStoreServer

N, K = 4, 3


def _cycle_seconds(data: bytes, enabled: bool) -> float:
    """One full in-process backup + restore, observability on or off."""
    REGISTRY.enabled = enabled
    servers = [
        CDStoreServer(
            server_id=i,
            cloud=CloudProvider(f"cloud-{i}", Link(10_000.0), Link(10_000.0)),
        )
        for i in range(N)
    ]
    client = CDStoreClient(
        user_id="alice", servers=servers, k=K, salt=b"bench",
        chunker=FixedChunker(4096), trace=enabled,
    )
    try:
        start = time.perf_counter()
        client.upload("f", data)
        client.flush()
        restored = client.download("f")
        elapsed = time.perf_counter() - start
        assert restored == data
        return elapsed
    finally:
        for server in servers:
            server.close()


def _instrument_ns(enabled: bool, iterations: int = 200_000) -> tuple[float, float]:
    """(counter inc, histogram observe) cost in ns/op on a fresh registry."""
    reg = MetricsRegistry(enabled=enabled)
    counter = reg.counter("bench_hits_total")
    hist = reg.histogram("bench_seconds")
    start = time.perf_counter()
    for _ in range(iterations):
        counter.inc()
    inc_ns = (time.perf_counter() - start) / iterations * 1e9
    start = time.perf_counter()
    for _ in range(iterations):
        hist.observe(0.003)
    observe_ns = (time.perf_counter() - start) / iterations * 1e9
    return inc_ns, observe_ns


def test_obs_overhead():
    data = DRBG("obs-overhead").random_bytes(scaled(8 << 20))
    try:
        # Alternate the legs and keep each side's best: back-to-back
        # interleaving cancels machine drift, best-of cancels one-off
        # scheduler noise in either direction.
        enabled_s = min(_cycle_seconds(data, True) for _ in range(3))
        disabled_s = min(_cycle_seconds(data, False) for _ in range(3))
    finally:
        REGISTRY.enabled = True
    ratio = disabled_s / enabled_s  # throughputs: (1/e) / (1/d)

    rows = [
        ["backup+restore, obs on", f"{len(data) / 1e6 / enabled_s:.1f} MB/s"],
        ["backup+restore, obs off", f"{len(data) / 1e6 / disabled_s:.1f} MB/s"],
        ["enabled/disabled throughput", f"{ratio:.4f}"],
    ]
    for enabled in (True, False):
        inc_ns, observe_ns = _instrument_ns(enabled)
        state = "on" if enabled else "off"
        rows.append([f"counter.inc, obs {state}", f"{inc_ns:.0f} ns"])
        rows.append([f"histogram.observe, obs {state}", f"{observe_ns:.0f} ns"])
    emit(
        "obs_overhead",
        format_table(
            ["leg", "result"],
            rows,
            title=(
                f"Observability overhead "
                f"(payload {len(data) >> 20} MiB, k={K}/n={N})"
            ),
        ),
    )
