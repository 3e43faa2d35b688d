"""The observability subsystem: registry, tracing, wire frame, e2e.

Bottom-up: metric semantics (bucket boundaries, label sets, the enabled
kill switch), registry thread-safety under concurrent writers (one CI
tier-1 leg replays this under the lock witness), span rings and the
slow-request log, the ``OBS_STATS`` codec, admin gating of the wire
frame — then the acceptance path: one ``download()`` through a live
async gateway deployment leaves the *same* trace id in the client,
gateway and replica span rings, while v1 and trace-less v2 peers
interoperate byte-identically with no server-side spans at all.
"""

from __future__ import annotations

import io
import json
import threading
from unittest import mock

import pytest

from repro.chunking import scan
from repro.chunking.fixed import FixedChunker
from repro.client.client import CDStoreClient
from repro.cloud.network import Link
from repro.cloud.provider import CloudProvider
from repro.errors import AuthError, ParameterError, ProtocolError
from repro.gateway import GatewayService
from repro.net import AsyncCDStoreTCPServer, CDStoreTCPServer, RemoteServerProxy, wire
from repro.obs.log import StructuredLog
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    SNAPSHOT_VERSION,
    render_prometheus,
)
from repro.obs.trace import (
    ZERO_TRACE_ID,
    Span,
    SpanRecorder,
    Tracer,
    current_context,
    use_context,
)
from repro.server.server import CDStoreServer
from repro.tenants import Credentials, TenantRecord, TenantRegistry


def make_servers(n: int = 4) -> list[CDStoreServer]:
    return [
        CDStoreServer(
            server_id=i,
            cloud=CloudProvider(f"cloud-{i}", Link(100.0), Link(100.0)),
        )
        for i in range(n)
    ]


def payload(size: int, seed: int = 7) -> bytes:
    import random

    return random.Random(seed).randbytes(size)


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestCounter:
    def test_inc_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total", "help")
        c.inc()
        c.inc(2)
        c.inc(tenant="alice")
        assert c.value() == 3
        assert c.value(tenant="alice") == 1
        assert c.collect() == {"": 3, "tenant=alice": 1}

    def test_label_key_is_order_independent(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total")
        c.inc(a=1, b=2)
        c.inc(b=2, a=1)
        assert c.collect() == {"a=1,b=2": 2}

    def test_registration_is_idempotent_but_kind_checked(self):
        reg = MetricsRegistry()
        c = reg.counter("dual")
        assert reg.counter("dual") is c
        with pytest.raises(ParameterError, match="already registered"):
            reg.gauge("dual")

    def test_disabled_registry_is_a_noop(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("off_total")
        c.inc(100)
        assert c.value() == 0
        reg.enabled = True
        c.inc()
        assert c.value() == 1


class TestGauge:
    def test_set_add_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(10, server="0")
        g.inc(server="0")
        g.dec(4, server="0")
        assert g.value(server="0") == 7
        assert g.value(server="1") == 0


class TestHistogram:
    def test_bucket_boundaries_are_inclusive_upper_bounds(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=(0.001, 0.01, 0.1))
        h.observe(0.001)  # == bound 0: lands in bucket 0
        h.observe(0.0011)  # just past: bucket 1
        h.observe(0.1)  # == last finite bound: bucket 2
        h.observe(5.0)  # past every bound: +Inf
        assert h.counts() == [1, 1, 1, 1]
        assert h.observations() == 4
        series = h.collect()[""]
        assert series["count"] == 4
        assert series["sum"] == pytest.approx(0.001 + 0.0011 + 0.1 + 5.0)
        assert series["buckets"] == [0.001, 0.01, 0.1]

    def test_default_buckets_cover_fsync_to_restore_scales(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == 0.0005
        assert DEFAULT_LATENCY_BUCKETS[-1] == 10.0
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)

    def test_unsorted_buckets_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ParameterError, match="sorted"):
            reg.histogram("bad_seconds", buckets=(1.0, 0.5))


class TestRegistryConcurrency:
    def test_concurrent_writers_lose_nothing(self):
        """8 writer threads on one counter + histogram; exact totals.

        The per-thread-cell fast path must neither drop increments nor
        double-count when snapshots run concurrently.  A CI tier-1 leg
        replays this under REPRO_LOCK_WITNESS=1, which also proves the
        registry's internal locks cannot ABBA-deadlock.
        """
        reg = MetricsRegistry()
        c = reg.counter("hits_total")
        h = reg.histogram("work_seconds", buckets=(0.5, 1.0))
        snapshots: list[dict] = []

        def writer():
            for _ in range(5_000):
                c.inc()
                h.observe(0.25)

        def reader():
            for _ in range(50):
                snapshots.append(reg.snapshot())

        threads = [threading.Thread(target=writer) for _ in range(8)]
        threads.append(threading.Thread(target=reader))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 40_000
        assert h.observations() == 40_000
        assert h.counts() == [40_000, 0, 0]
        # Mid-flight snapshots are consistent prefixes, never overshoots.
        for snap in snapshots:
            seen = snap["counters"]["hits_total"].get("", 0)
            assert 0 <= seen <= 40_000


class TestSnapshotAndPrometheus:
    def make_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("reqs_total", "requests").inc(3, frame="PING")
        reg.gauge("conns", "connections").set(2)
        reg.histogram("lat_seconds", "latency", buckets=(0.1, 1.0)).observe(0.05)
        return reg, reg.snapshot()

    def test_snapshot_is_versioned_and_json_safe(self):
        _reg, snap = self.make_snapshot()
        assert snap["version"] == SNAPSHOT_VERSION
        decoded = json.loads(json.dumps(snap))
        assert decoded["counters"]["reqs_total"] == {"frame=PING": 3}
        assert decoded["gauges"]["conns"] == {"": 2}
        hist = decoded["histograms"]["lat_seconds"][""]
        assert hist["counts"] == [1, 0, 0]

    def test_prometheus_rendering_from_registry_and_from_snapshot(self):
        reg, snap = self.make_snapshot()
        text = reg.render_prometheus()
        assert "# HELP reqs_total requests" in text
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{frame="PING"} 3' in text
        assert "conns 2" in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text
        # The module function renders a *decoded remote* snapshot too
        # (repro stats --prom against a live server has no registry).
        remote = render_prometheus(json.loads(json.dumps(snap)))
        assert 'reqs_total{frame="PING"} 3' in remote
        assert "# HELP" not in remote  # help texts don't cross the wire


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class TestSpanRecorder:
    def make_span(self, i: int) -> Span:
        return Span(
            trace_id=f"{i:032x}", span_id=i + 1, parent_id=0,
            component="t", name=f"s{i}", start=0.0, duration=0.0,
        )

    def test_ring_is_bounded_and_drops_oldest(self):
        ring = SpanRecorder(capacity=8)
        for i in range(20):
            ring.record(self.make_span(i))
        assert len(ring) == 8
        names = [s.name for s in ring.spans()]
        assert names == [f"s{i}" for i in range(12, 20)]

    def test_for_trace_filters(self):
        ring = SpanRecorder()
        ring.record(self.make_span(1))
        ring.record(self.make_span(2))
        assert [s.span_id for s in ring.for_trace(f"{1:032x}")] == [2]


class TestTracer:
    def test_root_span_mints_and_nested_inherits(self):
        tracer = Tracer("client", slow_threshold=None)
        with tracer.span("outer", root=True) as tid:
            assert tid != ZERO_TRACE_ID
            assert current_context()[0] == tid
            with tracer.span("inner"):
                pass
        assert current_context() == (ZERO_TRACE_ID, 0)
        by_name = {s.name: s for s in tracer.recorder.spans()}
        assert by_name["inner"].trace_id == by_name["outer"].trace_id
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id == 0

    def test_untraced_non_root_span_is_dropped(self):
        tracer = Tracer("server", slow_threshold=None)
        with tracer.span("frame:PING"):
            pass
        assert len(tracer.recorder) == 0

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer("client", enabled=False)
        with tracer.span("upload", root=True) as tid:
            assert tid is None
        assert len(tracer.recorder) == 0

    def test_slow_span_emits_structured_log_and_counter(self):
        sink = io.StringIO()
        tracer = Tracer(
            "gateway",
            slow_threshold=0.0,
            slow_log=StructuredLog(stream=sink, json_lines=True),
        )
        before = tracer.recorder
        with tracer.span("frame:GW_WINDOW", root=True, window=3) as tid:
            pass
        event = json.loads(sink.getvalue())
        assert event["event"] == "slow_request"
        assert event["component"] == "gateway"
        assert event["name"] == "frame:GW_WINDOW"
        assert event["trace_id"] == tid.hex()
        assert event["window"] == 3
        assert event["duration_seconds"] >= 0.0
        assert before.spans()[-1].labels == {"window": 3}

    def test_fast_span_stays_silent(self):
        sink = io.StringIO()
        tracer = Tracer(
            "client",
            slow_threshold=60.0,
            slow_log=StructuredLog(stream=sink, json_lines=True),
        )
        with tracer.span("download", root=True):
            pass
        assert sink.getvalue() == ""

    def test_use_context_carries_across_threads(self):
        """The comm-engine pattern: capture on submit, activate in worker."""
        tracer = Tracer("client", slow_threshold=None)
        seen = {}

        with tracer.span("upload", root=True) as tid:
            ctx = current_context()

            def worker():
                with use_context(*ctx):
                    with tracer.span("encode"):
                        seen["ctx"] = current_context()

            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["ctx"][0] == tid
        spans = {s.name: s for s in tracer.recorder.spans()}
        assert spans["encode"].trace_id == spans["upload"].trace_id


# ---------------------------------------------------------------------------
# OBS_STATS codec
# ---------------------------------------------------------------------------


class TestObsStatsCodec:
    def test_round_trip(self):
        snap = {"version": 1, "counters": {"x_total": {"": 2}}}
        assert wire.R_OBS_STATS.decode(wire.R_OBS_STATS.encode(snap)) == (snap,)

    def test_encode_requires_version(self):
        with pytest.raises(ProtocolError, match="version"):
            wire.R_OBS_STATS.encode({"counters": {}})

    def test_decode_rejects_garbage_and_unversioned(self):
        with pytest.raises(ProtocolError):
            wire.R_OBS_STATS.decode(b"\xff\xfe not json")
        with pytest.raises(ProtocolError, match="versioned"):
            wire.R_OBS_STATS.decode(b'{"counters": {}}')
        with pytest.raises(ProtocolError, match="versioned"):
            wire.R_OBS_STATS.decode(b'[1, 2]')


# ---------------------------------------------------------------------------
# wire surface: admin gating + stats over a live socket
# ---------------------------------------------------------------------------


class TestObsStatsWire:
    def test_open_server_serves_obs_stats(self):
        server = make_servers(1)[0]
        tcp = CDStoreTCPServer(server).start()
        proxy = RemoteServerProxy(
            f"tcp://{tcp.address[0]}:{tcp.address[1]}", server_id=0
        )
        try:
            assert proxy.ping()
            snap = proxy.obs_stats()
            assert snap["version"] == SNAPSHOT_VERSION
            assert snap["component"] == "server"
            assert snap["server_id"] == 0
            assert "spans" in snap
            # The dispatcher's own histogram observed this very request.
            assert "net_dispatch_seconds" in snap["histograms"]
        finally:
            proxy.close()
            tcp.shutdown()
            server.close()

    def test_obs_stats_needs_admin_role(self):
        registry = TenantRegistry([
            TenantRecord("alice", b"alice-secret"),
            TenantRecord("ops", b"ops-secret", role="admin"),
        ])
        server = make_servers(1)[0]
        tcp = CDStoreTCPServer(server, tenants=registry).start()
        address = f"tcp://{tcp.address[0]}:{tcp.address[1]}"
        alice = RemoteServerProxy(
            address, server_id=0,
            credentials=Credentials("alice", b"alice-secret"),
        )
        ops = RemoteServerProxy(
            address, server_id=0,
            credentials=Credentials("ops", b"ops-secret"),
        )
        try:
            with pytest.raises(AuthError, match="administrator"):
                alice.obs_stats()
            snap = ops.obs_stats()
            assert snap["component"] == "server"
        finally:
            alice.close()
            ops.close()
            tcp.shutdown()
            server.close()


# ---------------------------------------------------------------------------
# end-to-end trace propagation (the acceptance path)
# ---------------------------------------------------------------------------


@pytest.fixture
def traced_deployment():
    """Four async-served replicas behind an async gateway front-end,
    driven by a client whose direct path also goes over the wire."""
    servers = make_servers(4)
    fronts = [AsyncCDStoreTCPServer(server).start() for server in servers]
    addresses = [f"tcp://{f.address[0]}:{f.address[1]}" for f in fronts]
    client_proxies = [
        RemoteServerProxy(addr, server_id=i) for i, addr in enumerate(addresses)
    ]
    gw_replicas = [
        RemoteServerProxy(addr, server_id=i) for i, addr in enumerate(addresses)
    ]
    service = GatewayService(
        gw_replicas, k=3, window_bytes=16_384, own_replicas=True
    )
    gw_front = AsyncCDStoreTCPServer(None, gateway=service).start()
    gw_proxy = RemoteServerProxy(
        f"tcp://{gw_front.address[0]}:{gw_front.address[1]}",
        server_id=wire.GATEWAY_SERVER_ID,
    )
    client = CDStoreClient(
        user_id="alice", servers=client_proxies, k=3, salt=b"org",
        chunker=FixedChunker(4096), gateway=gw_proxy,
    )
    try:
        yield client, fronts, gw_front
    finally:
        gw_proxy.close()
        for proxy in client_proxies:
            proxy.close()
        gw_front.shutdown()
        service.close()  # closes gw_replicas (own_replicas)
        for front in fronts:
            front.shutdown()
        for server in servers:
            server.close()


class TestTraceE2E:
    def test_one_trace_id_spans_client_gateway_and_replicas(
        self, traced_deployment
    ):
        """Acceptance: a single gateway download leaves one trace id in
        the client, gateway *and* replica span rings."""
        client, fronts, gw_front = traced_deployment
        data = payload(100_000)
        client.upload("f", data)
        client.flush()
        assert client.download("f") == data

        download = next(
            s for s in client.spans.spans() if s.name == "download"
        )
        tid = download.trace_id

        gw_spans = gw_front.spans.for_trace(tid)
        assert gw_spans, "gateway ring is missing the download's trace"
        assert {s.name for s in gw_spans} >= {
            "frame:GW_RESOLVE", "frame:GW_WINDOW"
        }
        assert all(s.component == "gateway" for s in gw_spans)

        replica_spans = [
            span for front in fronts for span in front.spans.for_trace(tid)
        ]
        assert replica_spans, "no replica ring saw the download's trace"
        assert all(s.component == "server" for s in replica_spans)
        # The gateway's replica calls parent into the gateway's handler
        # spans, stitching the cross-process tree together.
        gw_span_ids = {s.span_id for s in gw_spans}
        assert any(s.parent_id in gw_span_ids for s in replica_spans)

    def test_upload_trace_reaches_replicas_directly(self, traced_deployment):
        client, fronts, _gw_front = traced_deployment
        client.upload("g", payload(50_000, seed=3))
        client.flush()
        upload = next(s for s in client.spans.spans() if s.name == "upload")
        touched = [
            front for front in fronts if front.spans.for_trace(upload.trace_id)
        ]
        assert len(touched) == len(fronts), (
            "every replica ingests shares, so every ring must see the trace"
        )


class TestUploadStages:
    @mock.patch.object(scan, "_WIDTH", 2)
    def test_upload_trace_has_one_chunk_stage_inside_it(self):
        """Chunking is a stage an operator can see: one ``chunk`` child per
        ``upload`` root (and one histogram observation per file, none per
        chunk), its interval inside its parent's, labelled with the
        segments its cut scan ran in (300 KB splits in two at width 2)."""
        from repro.obs.registry import REGISTRY

        def observations() -> int:
            series = REGISTRY.snapshot()["histograms"]["client_chunking_seconds"]
            return sum(entry["count"] for entry in series.values())

        servers = make_servers(4)
        client = CDStoreClient(
            user_id="alice", servers=servers, k=3, salt=b"org", chunker="rabin:avg=4096,min=1024"
        )
        before = observations()
        try:
            client.upload("f", payload(300_000))
        finally:
            client.close()
            for server in servers:
                server.close()
        assert observations() == before + 1

        (upload,) = [s for s in client.spans.spans() if s.name == "upload"]
        (chunk,) = [s for s in client.spans.spans() if s.name == "chunk"]
        assert (chunk.trace_id, chunk.parent_id) == (upload.trace_id, upload.span_id)
        assert chunk.labels == {
            "bytes": 300_000, "chunker": "rabin:avg=4096,min=1024", "segments": 2,
        }
        assert upload.start <= chunk.start
        assert chunk.start + chunk.duration <= upload.start + upload.duration
        assert 0 < chunk.duration < upload.duration


class TestRestoreStages:
    def test_one_decode_observation_per_restore_window(self):
        """Decode is a stage an operator can see: ``client_window_decode_seconds``
        gains one observation per decoded restore window."""
        from repro.obs.registry import REGISTRY

        def observations() -> int:
            series = REGISTRY.snapshot()["histograms"]["client_window_decode_seconds"]
            return sum(entry["count"] for entry in series.values())

        servers = make_servers(4)
        client = CDStoreClient(user_id="alice", servers=servers, k=3, salt=b"org")
        client.restore_window_bytes = 32 << 10
        data = payload(300_000)
        try:
            client.upload("f", data)
            client.flush()
            session = client.open_read("f")
            windows = len(session.plan.windows)
            before = observations()
            assert session.read() == data
        finally:
            client.close()
            for server in servers:
                server.close()
        assert windows > 2
        assert observations() == before + windows


class TestTraceInterop:
    """A peer that does not offer the trace flag keeps working and simply
    records no server-side spans."""

    def run_backup_restore(self, **proxy_kwargs):
        servers = make_servers(4)
        tcps = [CDStoreTCPServer(server).start() for server in servers]
        proxies = [
            RemoteServerProxy(
                f"tcp://{t.address[0]}:{t.address[1]}",
                server_id=i, **proxy_kwargs,
            )
            for i, t in enumerate(tcps)
        ]
        client = CDStoreClient(
            user_id="alice", servers=proxies, k=3, salt=b"org",
            chunker=FixedChunker(4096),
        )
        data = payload(60_000, seed=9)
        try:
            client.upload("f", data)
            client.flush()
            assert client.download("f") == data
            return client, [t.spans for t in tcps]
        finally:
            for proxy in proxies:
                proxy.close()
            for tcp in tcps:
                tcp.shutdown()
            for server in servers:
                server.close()

    def test_v2_peer_without_trace_flag_negotiates_it_off(self):
        client, rings = self.run_backup_restore(trace=False)
        assert len(client.spans) > 0  # client-side tracing still works
        assert all(len(ring) == 0 for ring in rings)
