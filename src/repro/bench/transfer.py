"""Transfer-speed experiments (Table 2, Figures 7 and 8).

These drivers run the calibrated testbed models of
:mod:`repro.cloud.testbed` over the same scenarios the paper measures:

* :func:`cloud_speed_table` — per-cloud speeds moving 2 GB in 4 MB units
  (Table 2);
* :func:`baseline_transfer_speeds` — single-client upload of unique data,
  upload of duplicate data, and download, on either testbed (Figure 7a);
* :func:`trace_transfer_speeds` — trace-driven first/subsequent upload and
  download speeds using the FSL-like workload (Figure 7b);
* :func:`aggregate_upload_speeds` — multi-client aggregate upload speeds
  (Figure 8).

Times come from the simulated-performance model; deduplication decisions
come from real fingerprint accounting over the workload traces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.dedup import TwoStageSimulator
from repro.cloud.network import MB, batch_count, makespan, pipeline_makespan
from repro.cloud.provider import CloudProvider
from repro.cloud.testbed import Testbed
from repro.server.messages import ShareMeta
from repro.workloads.base import Workload

__all__ = [
    "CloudSpeedRow",
    "MakespanComparison",
    "TransferSpeeds",
    "TraceSpeeds",
    "aggregate_upload_speeds",
    "baseline_transfer_speeds",
    "client_upload_walltime",
    "cloud_speed_table",
    "trace_transfer_speeds",
    "upload_makespans",
]

#: Wire size of one share's dedup metadata (fingerprint + sizes, §4.3).
_META_BYTES = ShareMeta.packed_size()
_AVG_SECRET = 8192


def client_upload_walltime(
    clouds: list[CloudProvider],
    wire_bytes_per_cloud: list[float],
    threads: int = 1,
) -> float:
    """Simulated wall-clock seconds for one client-side upload (§4.6).

    A multi-threaded client drives all cloud connections concurrently, so
    the wall-clock is the *makespan* over per-cloud transfer times; a
    single-threaded client visits the clouds one after another, so it pays
    their sum.  Each cloud's bytes move in 4 MB units (§4.1) over its
    uplink.  This is *the* transfer-time accounting for a client upload:
    feed it an :class:`~repro.client.client.UploadReceipt`'s
    ``wire_bytes_per_cloud``.
    """
    times = [
        cloud.uplink.transfer_time(int(nbytes), batches=batch_count(nbytes))
        for cloud, nbytes in zip(clouds, wire_bytes_per_cloud)
    ]
    return makespan(times) if threads > 1 else sum(times)


@dataclass(frozen=True)
class CloudSpeedRow:
    """Table 2 row: one cloud's measured upload/download speed (MB/s)."""

    cloud: str
    upload_mbps: float
    download_mbps: float


def cloud_speed_table(testbed: Testbed, data_bytes: int = 2 << 30) -> list[CloudSpeedRow]:
    """Move ``data_bytes`` in 4 MB units through each cloud individually."""
    rows = []
    batches = max(1, data_bytes // (4 << 20))
    for cloud in testbed.clouds:
        up = cloud.uplink.transfer_time(data_bytes, batches=batches)
        down = cloud.downlink.transfer_time(data_bytes, batches=batches)
        rows.append(
            CloudSpeedRow(
                cloud=cloud.name,
                upload_mbps=data_bytes / MB / up,
                download_mbps=data_bytes / MB / down,
            )
        )
    return rows


@dataclass(frozen=True)
class MakespanComparison:
    """Serial vs streamed upload schedule for one testbed (threads=1).

    ``serial_s`` is the un-pipelined schedule (encode everything, then
    visit the clouds one after another — ``pipeline_depth=1``);
    ``overlapped_s`` is the windowed streaming schedule where 4 MB encode
    windows flow into the per-cloud upload queues as they finish
    (``pipeline_depth>1``), computed with the flow-shop recurrence of
    :func:`repro.cloud.network.pipeline_makespan`.
    """

    testbed: str
    windows: int
    serial_s: float
    overlapped_s: float

    @property
    def speedup(self) -> float:
        return self.serial_s / self.overlapped_s if self.overlapped_s else float("inf")


def upload_makespans(
    testbed: Testbed,
    k: int = 3,
    data_bytes: int = 2 << 30,
    window_bytes: int = 4 << 20,
) -> MakespanComparison:
    """Serial vs overlapped makespan of the Figure 7(a) unique-data upload.

    Both schedules run at one encode thread; the difference is purely the
    streaming transfer stage.  The overlapped schedule is a two-stage
    windowed pipeline — encode a 4 MB window, hand it to the per-cloud
    upload workers while the next window encodes — so its makespan
    approaches ``max(encode, transfer)`` while the serial schedule pays
    ``encode + Σ per-cloud transfer``.
    """
    n = testbed.n
    wire_each = _share_bytes(data_bytes, k) + _meta_bytes(data_bytes)
    serial = testbed.upload_time_serial(data_bytes, [wire_each] * n, k=k)

    windows = batch_count(data_bytes, unit=window_bytes)
    logical_w = data_bytes / windows
    wire_w = wire_each / windows
    encode_w = logical_w / (testbed.model.chunk_encode_mbps * MB)
    # Transfer stage per window: the per-cloud workers run concurrently,
    # bounded by the client's shared physical uplink; each cloud's window
    # carries its slice of dedup-query round trips and overlaps its
    # server's ingest.
    query_w = [
        batch_count(logical_w / k, unit=testbed.model.query_batch_bytes)
        * 2
        * cloud.uplink.latency_s
        for cloud in testbed.clouds
    ]
    server_w = [
        max(
            wire_w / (testbed.model.server_disk_write_mbps * MB),
            logical_w / (testbed.model.server_cpu_mbps * MB),
        )
    ] * n
    per_cloud_w = [
        max(cloud.uplink.transfer_time(int(wire_w), batches=1) + q, s)
        for cloud, q, s in zip(testbed.clouds, query_w, server_w)
    ]
    transfer_w = max([n * wire_w / (testbed.client_uplink_mbps * MB)] + per_cloud_w)
    overlapped = pipeline_makespan(
        [[encode_w] * windows, [transfer_w] * windows]
    )
    return MakespanComparison(
        testbed=testbed.name,
        windows=windows,
        serial_s=serial,
        overlapped_s=overlapped,
    )


@dataclass(frozen=True)
class TransferSpeeds:
    """Figure 7(a) triple for one testbed (MB/s)."""

    testbed: str
    upload_unique_mbps: float
    upload_duplicate_mbps: float
    download_mbps: float


def _share_bytes(logical_bytes: int, k: int) -> float:
    """Per-cloud share bytes for ``logical_bytes`` of unique data."""
    return logical_bytes / k


def _meta_bytes(logical_bytes: int) -> float:
    """Per-cloud metadata bytes for ``logical_bytes`` of data."""
    return logical_bytes / _AVG_SECRET * _META_BYTES


def _download_clouds(testbed: Testbed, k: int) -> list[int]:
    """Pick the k clouds used for download (fastest downlinks first)."""
    order = sorted(
        range(len(testbed.clouds)),
        key=lambda i: (testbed.clouds[i].downlink.bandwidth_mbps, testbed.clouds[i].name),
        reverse=True,
    )
    return order[:k]


def baseline_transfer_speeds(
    testbed: Testbed, k: int = 3, data_bytes: int = 2 << 30
) -> TransferSpeeds:
    """Figure 7(a): single-client baseline speeds on one testbed.

    Uploads 2 GB of unique data, then 2 GB of duplicate data (only
    metadata travels), then downloads the 2 GB from ``k`` clouds.
    """
    n = testbed.n
    unique_wire = [_share_bytes(data_bytes, k) + _meta_bytes(data_bytes)] * n
    t_uniq = testbed.upload_time(data_bytes, unique_wire, k=k)
    dup_wire = [_meta_bytes(data_bytes)] * n
    t_dup = testbed.upload_time(data_bytes, dup_wire, k=k)
    down_wire = {
        idx: _share_bytes(data_bytes, k) for idx in _download_clouds(testbed, k)
    }
    t_down = testbed.download_time(data_bytes, down_wire)
    return TransferSpeeds(
        testbed=testbed.name,
        upload_unique_mbps=data_bytes / MB / t_uniq,
        upload_duplicate_mbps=data_bytes / MB / t_dup,
        download_mbps=data_bytes / MB / t_down,
    )


@dataclass(frozen=True)
class TraceSpeeds:
    """Figure 7(b) triple: trace-driven speeds (MB/s)."""

    testbed: str
    upload_first_mbps: float
    upload_subsequent_mbps: float
    download_mbps: float
    #: Total upload seconds across the replay under the pipelined schedule
    #: (what the speed columns are computed from) and under the serial
    #: encode-then-upload schedule — the streaming transfer stage's win.
    upload_seconds_overlapped: float = 0.0
    upload_seconds_serial: float = 0.0


def trace_transfer_speeds(
    testbed: Testbed,
    workload: Workload,
    k: int = 3,
    users: int | None = None,
    weeks: int | None = None,
    fragmentation: float = 0.1,
) -> TraceSpeeds:
    """Figure 7(b): replay weekly backups through the transfer model.

    Deduplication decisions are made by real fingerprint accounting (the
    same :class:`TwoStageSimulator` behind Figure 6); wire bytes feed the
    testbed timing model.  Download replays every backup with the
    fragmentation derating of §5.5.
    """
    n = testbed.n
    sim = TwoStageSimulator(n=n, k=k)
    chosen_users = workload.users[: users or len(workload.users)]
    total_weeks = weeks or workload.weeks

    first_logical = first_seconds = 0.0
    subs_logical = subs_seconds = 0.0
    down_logical = down_seconds = 0.0
    serial_seconds = 0.0
    down_clouds = _download_clouds(testbed, k)

    for week in range(1, total_weeks + 1):
        for user in chosen_users:
            snapshot = workload.snapshot(user, week)
            before = sim.stats.snapshot()
            sim.ingest_snapshot(snapshot)
            weekly = sim.stats.delta(before)
            logical = weekly.logical_data
            # Transferred share bytes are spread evenly over the n clouds.
            wire_each = weekly.transferred_shares / n + _meta_bytes(logical)
            t_up = testbed.upload_time(logical, [wire_each] * n, k=k)
            serial_seconds += testbed.upload_time_serial(
                logical, [wire_each] * n, k=k
            )
            if week == 1:
                first_logical += logical
                first_seconds += t_up
            else:
                subs_logical += logical
                subs_seconds += t_up
            # Download the full backup back from k clouds.
            share_total = weekly.logical_shares / n  # per-cloud share bytes
            t_down = testbed.download_time(
                logical,
                {idx: share_total for idx in down_clouds},
                fragmentation=fragmentation if week > 1 else 0.0,
            )
            down_logical += logical
            down_seconds += t_down

    return TraceSpeeds(
        testbed=testbed.name,
        upload_first_mbps=first_logical / MB / first_seconds,
        upload_subsequent_mbps=subs_logical / MB / subs_seconds,
        download_mbps=down_logical / MB / down_seconds,
        upload_seconds_overlapped=first_seconds + subs_seconds,
        upload_seconds_serial=serial_seconds,
    )


@dataclass(frozen=True)
class AggregateRow:
    """Figure 8 point: aggregate upload speed for one client count."""

    clients: int
    unique_mbps: float
    duplicate_mbps: float


def aggregate_upload_speeds(
    testbed: Testbed,
    client_counts: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8),
    k: int = 3,
    data_bytes: int = 2 << 30,
) -> list[AggregateRow]:
    """Figure 8: aggregate upload speed vs number of concurrent clients.

    Every client uploads ``data_bytes`` of unique data, then the same again
    as duplicates; the aggregate speed is ``clients * data / makespan``.
    """
    n = testbed.n
    rows = []
    for m in client_counts:
        uniq_wire = [_share_bytes(data_bytes, k) + _meta_bytes(data_bytes)] * n
        t_uniq = testbed.upload_time(data_bytes, uniq_wire, clients=m, k=k)
        dup_wire = [_meta_bytes(data_bytes)] * n
        t_dup = testbed.upload_time(data_bytes, dup_wire, clients=m, k=k)
        rows.append(
            AggregateRow(
                clients=m,
                unique_mbps=m * data_bytes / MB / t_uniq,
                duplicate_mbps=m * data_bytes / MB / t_dup,
            )
        )
    return rows
