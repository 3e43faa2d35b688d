"""The four workloads and the bookkeeping of one measured phase.

A workload is a closed loop of fixed-work *units* (one pass over its files,
or one stretch of the small-op schedule) repeated until ``--seconds`` of
timed sections have accumulated; ``--seconds 0`` runs exactly one unit, so
byte and call counts repeat exactly.  Everything a unit does outside its
timed section — payloads, boots, precondition backups, verification — is
set-up or checking and is accounted as such.
"""

from __future__ import annotations

import contextlib
import shutil
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from repro.compress import compress_recipe, decompress_recipe
from repro.obs.registry import REGISTRY

import payloads
import spans
from deployment import K, N, Deployment

@dataclass
class Op:
    """One finished client operation."""

    kind: str  # "backup" | "restore"
    path: str
    nbytes: int
    seconds: float
    ok: bool
    timed: bool
    unit: int
    #: Share bytes that crossed the wire for this op.
    wire_bytes: int = 0
    #: Whether a backup replaced an earlier version of its path.
    overwrote: bool = False


def _registry_totals() -> dict[str, float]:
    """The few registry series the per-layer metrics take deltas of."""
    snap = REGISTRY.snapshot()
    commits = snap["histograms"].get("server_commit_seconds", {})
    out = {
        "frames": sum(
            h["count"] for h in snap["histograms"].get("net_dispatch_seconds", {}).values()
        ),
        "lsm_flushes": sum(snap["counters"].get("lsm_flushes_total", {}).values()),
        "lsm_compactions": sum(snap["counters"].get("lsm_compactions_total", {}).values()),
    }
    for stage in ("journal_fsync", "index_sync"):
        hist = commits.get(f"stage={stage}", {"sum": 0.0, "count": 0})
        out[f"{stage}_s"] = hist["sum"]
        out[f"{stage}_count"] = hist["count"]
    return out


class Phase:
    """One measured pass over a workload: its deployments, ops and sums."""

    def __init__(self, workdir: Path, tracer: spans.Tracer | None = None,
                 use_async: bool = True) -> None:
        self.workdir = workdir
        self.tracer = tracer
        self.use_async = use_async
        self.ops: list[Op] = []
        self.unit = 0
        #: ``perf_counter`` bounds of every timed section.
        self.windows: list[tuple[float, float]] = []
        self.timed_s = 0.0
        self.cpu_s = 0.0
        self.prepare_s = 0.0
        self.unit_setup_s: list[float] = []
        self.boot_s = 0.0
        #: Growth of the backend directories over backups, and their bytes.
        self.stored_growth = 0
        self.stored_logical = 0
        self.index_growth = 0
        self.cache_hits = 0
        self.cache_lookups = 0
        self.registry = dict.fromkeys(_registry_totals(), 0.0)
        #: Modelled recipe (de)compression, from the standalone replay.
        self.compress = {"compress_s": 0.0, "decompress_s": 0.0,
                         "in_bytes": 0, "out_bytes": 0}
        self._unattributed: dict[str, list[Op]] = {}
        self._lock = threading.Lock()
        self._deployments = 0

    # -- deployments ---------------------------------------------------
    def deploy(self) -> Deployment:
        self._deployments += 1
        root = self.workdir / f"deployment-{self._deployments}"
        deployment = Deployment(root, self.tracer, self.use_async)
        self.boot(deployment)
        return deployment

    def boot(self, deployment: Deployment) -> None:
        deployment.boot()
        self.boot_s = deployment.boot_s

    def retire(self, deployment: Deployment) -> None:
        deployment.shutdown()
        shutil.rmtree(deployment.root)

    # -- accounting ----------------------------------------------------
    @contextlib.contextmanager
    def prepare(self):
        started = time.perf_counter()
        yield
        self.prepare_s += time.perf_counter() - started

    @contextlib.contextmanager
    def unit_setup(self):
        started = time.perf_counter()
        yield
        self.unit_setup_s.append(time.perf_counter() - started)

    @contextlib.contextmanager
    def storing(self, deployment: Deployment, logical: int):
        """Charge the body's backend and index growth to ``logical`` bytes."""
        cloud, index = deployment.cloud_bytes(), deployment.index_bytes()
        yield
        self.stored_growth += deployment.cloud_bytes() - cloud
        self.index_growth += deployment.index_bytes() - index
        self.stored_logical += logical

    @contextlib.contextmanager
    def timed(self, deployment: Deployment):
        """One timed section; the directory walks and snapshots around it
        stay outside the clock."""
        registry = _registry_totals()
        hits, misses = deployment.cache_stats()
        cpu = time.process_time()
        started = time.perf_counter()
        try:
            yield
        finally:
            ended = time.perf_counter()
            self.cpu_s += time.process_time() - cpu
            self.windows.append((started, ended))
            self.timed_s += ended - started
            for key, value in _registry_totals().items():
                self.registry[key] += value - registry[key]
            new_hits, new_misses = deployment.cache_stats()
            self.cache_hits += new_hits - hits
            self.cache_lookups += (new_hits - hits) + (new_misses - misses)
            self.unit += 1

    def _record(self, op: Op) -> Op:
        with self._lock:
            self.ops.append(op)
            if op.timed:
                self._unattributed.setdefault(op.path, []).append(op)
        return op

    def _span(self, kind: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.op(kind)

    # -- operations ----------------------------------------------------
    def backup(self, client, path: str, data: bytes, timed: bool = True,
               overwrote: bool = False) -> Op:
        """``upload`` + ``flush``, as ``repro backup`` does."""
        started = time.perf_counter()
        wire, ok = 0, True
        try:
            with self._span("backup"):
                receipt = client.upload(path, data)
                client.flush()
            wire = receipt.transferred_share_bytes
        except Exception:
            traceback.print_exc()
            ok = False
        return self._record(Op("backup", path, len(data), time.perf_counter() - started,
                               ok, timed, self.unit, wire, overwrote))

    def restore(self, client, path: str, expected: bytes, timed: bool = True) -> Op:
        """``download`` as ``repro restore`` does, byte-compared in the op."""
        started = time.perf_counter()
        try:
            with self._span("restore"):
                ok = payloads.verify(expected, client.download(path))
            if not ok:
                print(f"restore of {path} returned wrong bytes "
                      f"(want sha256 {payloads.digest(expected)})", file=sys.stderr)
        except Exception:
            traceback.print_exc()
            ok = False
        return self._record(Op("restore", path, len(expected),
                               time.perf_counter() - started, ok, timed, self.unit))

    def inspect(self, client, path: str, expected: bytes | None = None) -> None:
        """Outside the clock: learn ``path``'s restore plan (its share bytes
        price the timed restores) and, given ``expected``, restore it once
        more and compare — the check every backed-up file gets."""
        share_bytes, lookup_key = 0, None
        try:
            if expected is not None:
                self.restore(client, path, expected, timed=False)
            with client.open_read(path, via="direct") as session:
                plan = session.plan
            lookup_key = plan.lookup_key
            share_bytes = K * sum(
                client.dispersal.share_size(size) for size in plan.secret_sizes
            )
        except Exception:
            traceback.print_exc()
            self._record(Op("restore", path, 0, 0.0, False, False, self.unit))
        replay = None
        if self.tracer is not None and lookup_key is not None:
            replay = _replay_recipe(client, lookup_key)
        with self._lock:
            pending = self._unattributed.pop(path, [])
        for op in pending:
            if op.kind == "restore":
                op.wire_bytes = share_bytes
            if replay is not None:
                self._attribute_recipe_work(op, *replay)

    def _attribute_recipe_work(self, op: Op, compress_s: float, decompress_s: float,
                               in_bytes: int, out_bytes: int) -> None:
        """Every server compresses a backup's recipe (and first decompresses
        the one it replaces); the k servers a restore reads decompress it."""
        if op.kind == "backup":
            self.compress["compress_s"] += N * compress_s
            self.compress["in_bytes"] += N * in_bytes
            self.compress["out_bytes"] += N * out_bytes
            if op.overwrote:
                self.compress["decompress_s"] += N * decompress_s
        else:
            self.compress["decompress_s"] += K * decompress_s

    # -- results -------------------------------------------------------
    @property
    def timed_ops(self) -> list[Op]:
        return [op for op in self.ops if op.timed]

    @property
    def moved_mb(self) -> float:
        """Logical 10^6 B moved (and verified) by the timed ops."""
        return sum(op.nbytes for op in self.timed_ops if op.ok) / 1e6

    def setup_s(self, startup_s: float) -> float:
        """Interpreter start and imports, the one-time preparation, and the
        median of the per-unit set-ups."""
        return startup_s + self.prepare_s + statistics.median(self.unit_setup_s or [0.0])


def _replay_recipe(client, lookup_key: bytes) -> tuple[float, float, int, int]:
    """Time ``compress_recipe`` / ``decompress_recipe`` on the recipe server 0
    stored.  The program offers no seam around them, so this stand-alone
    replay stands in for the work each server did."""
    entries = client.servers[0].get_recipe(client.user_id, lookup_key)
    blob = b"".join(entry.pack() for entry in entries)
    started = time.perf_counter()
    packed = compress_recipe(blob)
    compressed = time.perf_counter()
    decompress_recipe(packed)
    return (compressed - started, time.perf_counter() - compressed,
            len(blob), len(packed))


def _large_files(seed: int, scale: float, tag: str) -> dict[str, bytes]:
    return {
        f"/large/file-{i}": payloads.payload(
            seed, f"{tag}|file-{i}", payloads.scaled(size, scale))
        for i, size in enumerate(payloads.LARGE_FILE_SIZES)
    }


def backup_unique(phase: Phase, seed: int, seconds: float, scale: float) -> None:
    while True:
        with phase.unit_setup():
            files = _large_files(seed, scale, f"unique|{phase.unit}")
            deployment = phase.deploy()
            client = deployment.client("u0")
        try:
            with phase.storing(deployment, sum(map(len, files.values()))):
                with phase.timed(deployment):
                    for path, data in files.items():
                        phase.backup(client, path, data)
            for path, data in files.items():
                phase.inspect(client, path, data)
        finally:
            phase.retire(deployment)
        if phase.timed_s >= seconds:
            return


def backup_incremental(phase: Phase, seed: int, seconds: float, scale: float) -> None:
    with phase.prepare():
        files = _large_files(seed, scale, "incremental")
        deployment = phase.deploy()
        client = deployment.client("u0")
    try:
        with phase.prepare():
            for path, data in files.items():
                phase.backup(client, path, data, timed=False)
        while True:
            with phase.unit_setup():
                files = {
                    path: payloads.mutate(data, seed, f"{path}|v{phase.unit + 1}")
                    for path, data in files.items()
                }
            with phase.storing(deployment, sum(map(len, files.values()))):
                with phase.timed(deployment):
                    for path, data in files.items():
                        phase.backup(client, path, data, overwrote=True)
            for path, data in files.items():
                phase.inspect(client, path, data)
            if phase.timed_s >= seconds:
                return
    finally:
        phase.retire(deployment)


def restore(phase: Phase, seed: int, seconds: float, scale: float) -> None:
    with phase.prepare():
        files = _large_files(seed, scale, "restore")
        deployment = phase.deploy()
    try:
        with phase.prepare():
            client = deployment.client("u0")
            with phase.storing(deployment, sum(map(len, files.values()))):
                for path, data in files.items():
                    phase.backup(client, path, data, timed=False)
            # Reboot over the same roots: construction is recovery, and the
            # first round then starts with empty caches.
            deployment.shutdown()
            phase.boot(deployment)
            client = deployment.client("u0")
        while True:
            with phase.timed(deployment):
                for path, data in files.items():
                    phase.restore(client, path, data)
            if phase.timed_s >= seconds:
                break
        for path in files:
            phase.inspect(client, path)
    finally:
        phase.retire(deployment)


def serve_small_mixed(phase: Phase, seed: int, seconds: float, scale: float) -> None:
    users = ("u0", "u1")
    with phase.prepare():
        pool = payloads.payload(
            seed, "pool", payloads.scaled(payloads.SMALL_POOL_BYTES, scale))
        deployment = phase.deploy()
        clients = {user: deployment.client(user) for user in users}
        schedules = {
            user: payloads.SmallOpSchedule(seed, user, pool, scale) for user in users
        }
    backed_up: dict[str, dict[str, bytes]] = {user: {} for user in users}
    begin = threading.Barrier(len(users) + 1)

    def serve(user: str) -> None:
        client, schedule, mine = clients[user], schedules[user], backed_up[user]
        begin.wait()
        deadline = time.perf_counter() + seconds
        while True:
            kind, path, data = schedule.next_op()
            if kind == "backup":
                if phase.backup(client, path, data).ok:
                    mine[path] = data
                    schedule.backed_up(path, len(data))
            else:
                phase.restore(client, path, mine[path])
            if time.perf_counter() >= deadline:
                return

    try:
        threads = [threading.Thread(target=serve, args=(user,), name=f"serve-{user}")
                   for user in users]
        for thread in threads:
            thread.start()
        with phase.storing(deployment, 0):
            with phase.timed(deployment):
                begin.wait()
                for thread in threads:
                    thread.join()
        phase.stored_logical += sum(
            op.nbytes for op in phase.timed_ops if op.kind == "backup" and op.ok)
        for user in users:
            for path, data in backed_up[user].items():
                phase.inspect(clients[user], path, data)
    finally:
        phase.retire(deployment)


RUNNERS = {
    "backup_unique": backup_unique,
    "backup_incremental": backup_incremental,
    "restore": restore,
    "serve_small_mixed": serve_small_mixed,
}
