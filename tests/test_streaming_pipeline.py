"""Transfer pipeline: the upload loop + windowed restore.

Covers the ``pipeline_depth`` knob end to end: byte identity of the
pipelined schedule with the inline reference across the ``threads × depth``
grid, the window and slab budgets at every depth, per-window restore
failover (a cloud stalling mid-window, a corrupt share healed by a spare),
and how :meth:`~repro.client.comm.CommEngine.upload_file` unwinds when a
cloud or an encode slab fails.
"""

from __future__ import annotations

import struct
import threading
import time
import weakref
from collections import Counter

import pytest

from repro.chunking.fixed import FixedChunker
from repro.client import comm
from repro.client.workers import plan_windows, slab_spans
from repro.cloud.network import pipeline_makespan
from repro.crypto.drbg import DRBG
from repro.errors import CloudUnavailableError, CodingError, ParameterError
from repro.system.cdstore import CDStoreSystem


def data_of(size: int, seed: str = "stream") -> bytes:
    return DRBG(seed).random_bytes(size)


def make_system(depth, threads: int = 1, n: int = 4, k: int = 3) -> CDStoreSystem:
    return CDStoreSystem(n=n, k=k, salt=b"org", threads=threads, pipeline_depth=depth)


def windowed_client(system: CDStoreSystem, window_bytes: int = 4096):
    client = system.client("alice", chunker=FixedChunker(4096))
    client.restore_window_bytes = window_bytes
    return client


def corrupt_share_payloads(backend, count: int) -> None:
    """Flip one byte inside the first ``count`` share payloads stored."""
    container_id = next(
        cid
        for cid in backend.list_keys("container-")
        if backend.get_object(cid)[4] == 1  # kind byte == KIND_SHARE
    )
    blob = bytearray(backend.get_object(container_id))
    pos = 9  # container header: u32 magic | u8 kind | u32 count
    for _ in range(count):
        keylen, paylen = struct.unpack_from(">II", blob, pos)
        pos += 8 + keylen
        blob[pos] ^= 0xFF
        pos += paylen
    backend.put_object(container_id, bytes(blob))


# ---------------------------------------------------------------------------
# every schedule moves the bytes of the inline reference (threads=1, depth=1)
# ---------------------------------------------------------------------------


def _backup_and_restore(threads: int, depth, payload: bytes):
    system = make_system(depth, threads=threads)
    client = windowed_client(system)
    receipt = client.upload("/f", payload)
    restored = client.download("/f")
    stored = system.stored_bytes()
    system.close()
    return receipt, restored, stored


class TestDepthOneDegeneration:
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("depth", [1, 2, "auto"])
    def test_stored_and_wire_bytes_identical_across_depths(self, threads, depth):
        payload = data_of(200_000)
        want, want_restored, want_stored = _backup_and_restore(1, 1, payload)
        got, restored, stored = _backup_and_restore(threads, depth, payload)
        assert restored == want_restored == payload
        assert stored == want_stored
        assert got.wire_bytes_per_cloud == want.wire_bytes_per_cloud
        assert got.transferred_share_bytes == want.transferred_share_bytes

    def test_depth1_restore_fetches_window_by_window(self):
        """The inline client (threads=1, depth=1) restores a multi-window
        file one planned window per fetch_shares call per server, never
        asking for more fingerprints than the window holds."""
        system = make_system(depth=1)
        client = windowed_client(system, window_bytes=4096)
        payload = data_of(60_000)
        client.upload("/f", payload)
        asked: list[list[int]] = []
        for server in system.servers:
            sizes: list[int] = []

            def recording(fps, _orig=server.fetch_shares, _sizes=sizes):
                _sizes.append(len(fps))
                return _orig(fps)

            server.fetch_shares = recording
            asked.append(sizes)
        with client.open_read("/f") as session:
            windows = session.plan.windows
            assert session.read() == payload
        assert len(windows) > 1
        want = [end - start for start, end in windows]
        assert asked[: system.k] == [want] * system.k
        system.close()

    def test_invalid_depth_rejected(self):
        with pytest.raises(ParameterError):
            make_system(0).client("alice")


# ---------------------------------------------------------------------------
# per-window failover: stalls and corruption mid-restore
# ---------------------------------------------------------------------------


class TestWindowedRestoreFailover:
    def test_cloud_stalling_mid_window_fails_over_per_window(self):
        """A cloud that serves window 0 then stalls is replaced by a spare
        from the failing window onward; earlier windows stand."""
        system = make_system(depth=3)
        client = windowed_client(system, window_bytes=4096)
        payload = data_of(60_000)
        client.upload("/f", payload)

        victim = system.servers[1]
        original = victim.fetch_shares
        state = {"calls": 0}

        def stalling(fps):
            state["calls"] += 1
            if state["calls"] > 1:
                time.sleep(0.05)  # the stall, surfaced as a timeout error
                raise CloudUnavailableError("cloud stalled mid-window")
            return original(fps)

        victim.fetch_shares = stalling
        try:
            assert client.download("/f") == payload
        finally:
            victim.fetch_shares = original
        # The victim answered window 0 and was asked exactly once more
        # (the stalled window) before the spare took over for the rest.
        assert state["calls"] == 2
        system.close()

    def test_stall_with_no_spare_propagates(self):
        system = CDStoreSystem(
            n=3, k=3, salt=b"org", threads=1, pipeline_depth=3
        )
        client = windowed_client(system, window_bytes=4096)
        client.upload("/f", data_of(40_000))

        def dead(fps):
            raise CloudUnavailableError("stalled, no spare to take over")

        system.servers[2].fetch_shares = dead
        with pytest.raises(CloudUnavailableError):
            client.download("/f")
        system.close()

    def test_corrupt_share_in_window_healed_by_spare(self):
        """A corrupt share inside window i triggers the §3.2 widening for
        that window's secrets only, pulling the spare's shares."""
        system = make_system(depth=3)
        client = windowed_client(system, window_bytes=4096)
        payload = data_of(60_000)  # 15 secrets, 15 windows of 1
        client.upload("/f", payload)
        client.flush()

        # Corrupt two of server 0's stored shares (secrets land in early
        # windows).
        corrupt_share_payloads(system.clouds[0].backend, count=2)

        spare = system.servers[3]
        original = spare.fetch_shares
        state = {"calls": 0}

        def counting(fps):
            state["calls"] += 1
            return original(fps)

        spare.fetch_shares = counting
        try:
            assert client.download("/f") == payload
        finally:
            spare.fetch_shares = original
        # The spare was consulted per corrupted secret — not for the whole
        # file (windows that decoded cleanly never touched it).
        assert state["calls"] == 2
        system.close()

    def test_promoted_spare_with_lying_entry_is_skipped(self):
        """Per-window failover cross-checks the spare's entry against the
        agreed (file_size, secret_count); a disagreeing spare is skipped
        and the error propagates when no other spare exists."""
        from repro.server.index import FileEntry

        system = make_system(depth=3)
        client = windowed_client(system, window_bytes=4096)
        payload = data_of(40_000)
        client.upload("/f", payload)

        # Tamper the only spare's file entry.
        spare = system.servers[3]
        key = spare._file_key("alice", client._lookup_key("/f"))
        entry = FileEntry.unpack(spare.index.get(key))
        entry.file_size += 1
        spare.index.put(key, entry.pack())

        def dead(fps):
            raise CloudUnavailableError("mid-window outage")

        system.servers[1].fetch_shares = dead
        with pytest.raises(CloudUnavailableError):
            client.download("/f")
        system.close()


# ---------------------------------------------------------------------------
# the slab budget feeds every encoder and never exceeds max(depth, threads)
# ---------------------------------------------------------------------------


class _WatchedChunk:
    """A chunk that tells a ledger what the engine does with it: reading
    ``.data`` is its slab being submitted (the engine materialises a
    slab's secrets at submit time), reading ``.seq`` is one cloud being
    fed its share."""

    def __init__(self, chunk, ledger: "_SlabLedger") -> None:
        self._chunk = chunk
        self._ledger = ledger
        self.size = chunk.size

    @property
    def data(self) -> bytes:
        self._ledger.submitted(self._chunk.seq)
        return self._chunk.data

    @property
    def seq(self) -> int:
        self._ledger.fed(self._chunk.seq)
        return self._chunk.seq


class _SlabLedger:
    def __init__(self, spans, clouds: int) -> None:
        self._lock = threading.Lock()
        self._starts = {start for start, _end in spans}
        self._lasts = [end - 1 for _start, end in spans]
        self._clouds = clouds
        #: Slabs submitted so far.
        self.slabs = 0
        self._fed: Counter[int] = Counter()
        #: Most slabs ever submitted but not yet drained by every cloud.
        self.peak_outstanding = 0

    def submitted(self, seq: int) -> None:
        with self._lock:
            if seq in self._starts:
                self.slabs += 1
                drained = sum(self._fed[last] == self._clouds for last in self._lasts)
                self.peak_outstanding = max(self.peak_outstanding, self.slabs - drained)

    def fed(self, seq: int) -> None:
        with self._lock:
            self._fed[seq] += 1


class TestEncodePoolIsFed:
    @pytest.mark.parametrize("depth", [1, 2])
    def test_four_encoders_get_four_slabs_and_no_more(self, depth):
        """threads=4 keeps four slabs in flight at any depth <= 4: every
        encoder has work, and a file of 8 slabs is never submitted whole."""
        system = make_system(depth, threads=4)
        client = windowed_client(system)
        chunks = list(client.chunker.chunk_bytes(data_of(16 * 4096)))
        spans = slab_spans([chunk.size for chunk in chunks], 4)
        assert len(spans) == 8
        ledger = _SlabLedger(spans, clouds=system.n)

        # Hold encode_batch's callers until four are inside at once (or,
        # on a starved pool, until the first one gives up waiting).
        real_encode = client.dispersal.encode_batch
        gate = threading.Lock()
        inside = peak_inside = 0
        four_inside = threading.Event()

        def held_encode(secrets):
            nonlocal inside, peak_inside
            with gate:
                inside += 1
                peak_inside = max(peak_inside, inside)
                if inside == 4:
                    four_inside.set()
            if not four_inside.wait(timeout=2.0):
                four_inside.set()
            try:
                return real_encode(secrets)
            finally:
                with gate:
                    inside -= 1

        client.dispersal.encode_batch = held_encode
        results = client.comm.upload_file(
            "alice", client.dispersal, [_WatchedChunk(c, ledger) for c in chunks]
        )
        system.close()
        assert [len(result.metas) for result in results] == [16] * system.n
        assert peak_inside == 4
        assert ledger.peak_outstanding == 4

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_one_encoder_keeps_depth_slabs_unfed(self, depth):
        """threads=1 keeps ``depth`` slabs not yet fed to every cloud:
        depth 1 is the inline reference, each slab fed before the next is
        encoded; deeper, the caller runs ahead of the one encoder."""
        system = make_system(depth, threads=1)
        client = system.client("alice", chunker=FixedChunker(1 << 16))
        chunks = list(client.chunker.chunk_bytes(data_of(5 << 20)))
        spans = slab_spans([chunk.size for chunk in chunks], 1)
        assert len(spans) == 5
        ledger = _SlabLedger(spans, clouds=system.n)
        real_encode = client.dispersal.encode_batch

        def held_encode(secrets):
            # Encode nothing until ``depth`` slabs are submitted (or a
            # schedule that never submits them gives up waiting).
            deadline = time.monotonic() + 2.0
            while ledger.slabs < depth and time.monotonic() < deadline:
                time.sleep(0.001)
            return real_encode(secrets)

        client.dispersal.encode_batch = held_encode
        results = client.comm.upload_file(
            "alice", client.dispersal, [_WatchedChunk(c, ledger) for c in chunks]
        )
        system.close()
        assert [len(result.metas) for result in results] == [len(chunks)] * system.n
        assert ledger.peak_outstanding == depth


# ---------------------------------------------------------------------------
# a failing cloud or encode slab surfaces from upload_file, which unwinds
# ---------------------------------------------------------------------------

UPLOAD_SCHEDULES = {"inline": (1, 1), "pipelined": (2, 2)}


def within(seconds: float, fn):
    """``fn()``'s result (or exception), failing if it runs past ``seconds``."""
    outcome: dict = {}

    def run():
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), "upload_file hung"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestUploadFailures:
    @staticmethod
    def _client(schedule, size: int = 3 << 20):
        threads, depth = schedule
        system = make_system(depth, threads=threads)
        client = system.client("alice", chunker=FixedChunker(4096))
        chunks = list(client.chunker.chunk_bytes(data_of(size)))
        assert len(slab_spans([chunk.size for chunk in chunks], threads)) >= 3
        return system, client, chunks

    @pytest.mark.parametrize("schedule", UPLOAD_SCHEDULES.values(), ids=UPLOAD_SCHEDULES)
    def test_cloud_failing_mid_file_gets_no_later_slab(self, monkeypatch, schedule):
        """Cloud 2's first upload raises: on either schedule upload_file
        raises that error once every cloud is done, cloud 2 is sent
        nothing more, the other clouds get every share, and the engine's
        next upload succeeds."""
        monkeypatch.setattr(comm, "UPLOAD_BATCH_BYTES", 16 << 10)
        system, client, chunks = self._client(schedule)
        shares_sent = [0] * system.n
        calls_after_failure: list[str] = []
        outage = CloudUnavailableError("mid-file outage")
        for idx, server in enumerate(system.servers):
            upload, query = server.upload_shares, server.query_duplicates

            def counted(user_id, uploads, idx=idx, upload=upload):
                if idx == 2:
                    calls_after_failure.append("upload_shares")
                    raise outage
                shares_sent[idx] += len(uploads)
                return upload(user_id, uploads)

            def watched(user_id, fingerprints, idx=idx, query=query):
                if idx == 2 and calls_after_failure:
                    calls_after_failure.append("query_duplicates")
                return query(user_id, fingerprints)

            server.upload_shares, server.query_duplicates = counted, watched
        with pytest.raises(CloudUnavailableError) as failed:
            within(30.0, lambda: client.comm.upload_file("alice", client.dispersal, chunks))
        assert failed.value is outage
        assert calls_after_failure == ["upload_shares"]
        assert shares_sent == [len(chunks), len(chunks), 0, len(chunks)]
        for server in system.servers:
            del server.upload_shares, server.query_duplicates
        results = within(30.0, lambda: client.comm.upload_file("alice", client.dispersal, chunks))
        assert [result.transferred for result in results] == [0, 0, len(chunks), 0]
        system.close()

    @pytest.mark.parametrize("schedule", UPLOAD_SCHEDULES.values(), ids=UPLOAD_SCHEDULES)
    def test_every_cloud_failing_stops_the_encode(self, monkeypatch, schedule):
        """Every cloud's first upload raises, each its own error: no slab
        is encoded once all have failed (inline after slab 0; pipelined at
        most the two its budget submits before it waits on slab 0's
        feeds, one if they failed first), and the error raised is cloud
        0's."""
        monkeypatch.setattr(comm, "UPLOAD_BATCH_BYTES", 16 << 10)
        system, client, chunks = self._client(schedule)
        outages = [CloudUnavailableError(f"cloud {idx} is down") for idx in range(system.n)]
        for server, outage in zip(system.servers, outages):
            def failing(user_id, uploads, outage=outage):
                raise outage

            server.upload_shares = failing
        real_encode = client.dispersal.encode_batch
        encoded: list[int] = []

        def counted(secrets):
            encoded.append(len(secrets))
            return real_encode(secrets)

        client.dispersal.encode_batch = counted
        with pytest.raises(CloudUnavailableError) as failed:
            within(30.0, lambda: client.comm.upload_file("alice", client.dispersal, chunks))
        assert failed.value is outages[0]
        assert len(encoded) in ((1,) if schedule == UPLOAD_SCHEDULES["inline"] else (1, 2))
        system.close()

    @pytest.mark.parametrize("schedule", UPLOAD_SCHEDULES.values(), ids=UPLOAD_SCHEDULES)
    def test_encode_failing_on_slab_two_surfaces(self, schedule):
        """The encode error surfaces, and no slab is submitted once slab
        2's failure has reached every cloud: inline none after slab 2,
        pipelined (a budget of two unfed slabs) at most slab 3, of six."""
        system, client, chunks = self._client(schedule, size=6 << 20)
        spans = slab_spans([chunk.size for chunk in chunks], schedule[0])
        assert len(spans) == 6
        third = chunks[spans[2][0]].data
        real_encode = client.dispersal.encode_batch
        broken = CodingError("slab 2 failed to encode")
        encoded: list[bytes] = []

        def failing(secrets):
            encoded.append(secrets[0])
            if secrets[0] == third:
                raise broken
            return real_encode(secrets)

        client.dispersal.encode_batch = failing
        with pytest.raises(CodingError) as failed:
            within(30.0, lambda: client.comm.upload_file("alice", client.dispersal, chunks))
        assert failed.value is broken
        # Pipelined, slab 3 is submitted unless slab 2's failure reached
        # every cloud while the caller waited on slab 1's feeds.
        assert len(encoded) in ((3,) if schedule == UPLOAD_SCHEDULES["inline"] else (3, 4))
        del client.dispersal.encode_batch
        results = within(30.0, lambda: client.comm.upload_file("alice", client.dispersal, chunks))
        assert [len(result.metas) for result in results] == [len(chunks)] * system.n
        system.close()

    def test_failing_submit_leaves_no_feed_running(self, monkeypatch):
        """When the caller's own loop fails (here: the encode pool refuses
        slab 2), upload_file raises only after every feed it submitted has
        ended, and the engine's next upload succeeds."""
        system, client, chunks = self._client(UPLOAD_SCHEDULES["pipelined"])
        encode_pool, _ = client.comm._ensure_workers()
        real_submit = encode_pool.submit
        submits = 0
        refused = RuntimeError("cannot schedule new futures after shutdown")

        def refusing(*args, **kwargs):
            nonlocal submits
            submits += 1
            if submits == 3:
                raise refused
            return real_submit(*args, **kwargs)

        feeding = 0
        gate = threading.Lock()
        real_feed_slab = comm.CloudUploader.feed_slab

        def slow_feed_slab(uploader, part, slab):
            nonlocal feeding
            with gate:
                feeding += 1
            try:
                time.sleep(0.05)
                real_feed_slab(uploader, part, slab)
            finally:
                with gate:
                    feeding -= 1

        monkeypatch.setattr(encode_pool, "submit", refusing)
        monkeypatch.setattr(comm.CloudUploader, "feed_slab", slow_feed_slab)
        with pytest.raises(RuntimeError) as failed:
            within(30.0, lambda: client.comm.upload_file("alice", client.dispersal, chunks))
        assert failed.value is refused
        assert feeding == 0
        monkeypatch.undo()
        results = within(30.0, lambda: client.comm.upload_file("alice", client.dispersal, chunks))
        assert [len(result.metas) for result in results] == [len(chunks)] * system.n
        system.close()


# ---------------------------------------------------------------------------
# a slab of shares lives only until every cloud is fed it
# ---------------------------------------------------------------------------


class _Slab(list):
    """An encoded slab a test can hold a weak reference to."""


@pytest.mark.parametrize("schedule", UPLOAD_SCHEDULES.values(), ids=UPLOAD_SCHEDULES)
def test_no_slab_outlives_its_feeds(schedule, monkeypatch):
    """Once every cloud has been fed every slab, no slab of shares is
    still referenced while the uploaders finish."""
    threads, depth = schedule
    system = make_system(depth, threads=threads)
    client = system.client("alice", chunker=FixedChunker(4096))
    chunks = list(client.chunker.chunk_bytes(data_of(3 << 20)))
    real_encode = client.dispersal.encode_batch
    slabs: list[weakref.ref] = []

    def encode(secrets):
        slab = _Slab(real_encode(secrets))
        slabs.append(weakref.ref(slab))
        return slab

    # Pipelined, each cloud finishes on its own worker right after its
    # last feed: once all of them are finishing, every feed is done.
    all_finishing = threading.Barrier(system.n if threads > 1 else 1, timeout=10.0)
    alive_at_finish: list[int] = []
    real_finish = comm.CloudUploader.finish

    def finish(uploader):
        all_finishing.wait()
        alive_at_finish.append(sum(ref() is not None for ref in slabs))
        return real_finish(uploader)

    client.dispersal.encode_batch = encode
    monkeypatch.setattr(comm.CloudUploader, "finish", finish)
    client.comm.upload_file("alice", client.dispersal, chunks)
    system.close()
    assert len(slabs) >= 3
    assert alive_at_finish == [0] * system.n


def test_failed_cloud_pins_no_slab(monkeypatch):
    """Pipelined, cloud 2's first upload raises: once the other clouds are
    finishing, no slab of shares is referenced, the recorded error's
    frames included, and none is after upload_file has raised it."""
    monkeypatch.setattr(comm, "UPLOAD_BATCH_BYTES", 16 << 10)
    system = make_system(2, threads=2)
    client = system.client("alice", chunker=FixedChunker(4096))
    chunks = list(client.chunker.chunk_bytes(data_of(3 << 20)))
    real_encode = client.dispersal.encode_batch
    slabs: list[weakref.ref] = []

    def encode(secrets):
        slab = _Slab(real_encode(secrets))
        slabs.append(weakref.ref(slab))
        return slab

    def down(user_id, uploads):
        raise CloudUnavailableError("cloud 2 is down")

    others_finishing = threading.Barrier(system.n - 1, timeout=10.0)
    alive_at_finish: list[int] = []
    real_finish = comm.CloudUploader.finish

    def finish(uploader):
        if uploader.cloud_idx != 2:
            others_finishing.wait()
            # Cloud 2's worker may still be skipping its last queued feeds.
            deadline = time.monotonic() + 5.0
            while any(ref() is not None for ref in slabs) and time.monotonic() < deadline:
                time.sleep(0.001)
            alive_at_finish.append(sum(ref() is not None for ref in slabs))
        return real_finish(uploader)

    client.dispersal.encode_batch = encode
    system.servers[2].upload_shares = down
    monkeypatch.setattr(comm.CloudUploader, "finish", finish)
    with pytest.raises(CloudUnavailableError) as failed:
        within(30.0, lambda: client.comm.upload_file("alice", client.dispersal, chunks))
    assert "cloud 2" in str(failed.value)
    assert len(slabs) >= 3
    assert alive_at_finish == [0] * (system.n - 1)
    assert [ref() for ref in slabs] == [None] * len(slabs)
    system.close()


# ---------------------------------------------------------------------------
# helpers: window planning and the flow-shop makespan
# ---------------------------------------------------------------------------


class TestPipelineHelpers:
    def test_plan_windows_covers_contiguously(self):
        windows = plan_windows([100] * 10, 250)
        assert windows[0][0] == 0 and windows[-1][1] == 10
        for (_, a_end), (b_start, _) in zip(windows, windows[1:]):
            assert a_end == b_start
        assert all(end - start <= 3 for start, end in windows)

    def test_plan_windows_oversized_item_gets_own_window(self):
        assert plan_windows([10, 999, 10, 10], 50) == [(0, 2), (2, 4)]
        assert plan_windows([999], 50) == [(0, 1)]
        assert plan_windows([], 50) == []

    def test_pipeline_makespan_bounds(self):
        encode = [1.0] * 8
        transfer = [0.5] * 8
        overlapped = pipeline_makespan([encode, transfer])
        serial = sum(encode) + sum(transfer)
        assert overlapped < serial
        assert overlapped >= max(sum(encode), sum(transfer))
        # One window degenerates to the serial stage sum.
        assert pipeline_makespan([[3.0], [2.0]]) == pytest.approx(5.0)
        assert pipeline_makespan([]) == 0.0
        with pytest.raises(ParameterError):
            pipeline_makespan([[1.0], [1.0, 2.0]])


# ---------------------------------------------------------------------------
# pipeline_depth="auto" is a named constant
# ---------------------------------------------------------------------------


class TestAdaptiveDepth:
    def test_auto_engine_probes_and_records_depth(self):
        from repro.client.comm import PIPELINE_DEPTH

        system = make_system(depth="auto")
        client = windowed_client(system)
        # Resolved at construction: the same integer before any upload
        # (a restore-only client) as in every receipt after.
        assert client.comm.pipeline_depth == PIPELINE_DEPTH
        receipt = client.upload("/f", data_of(40_000))
        assert receipt.pipeline_depth == PIPELINE_DEPTH
        again = client.upload("/g", data_of(8_000, seed="other"))
        assert again.pipeline_depth == PIPELINE_DEPTH
        assert client.download("/f") == data_of(40_000)
        system.close()

    def test_auto_engine_is_streaming_and_parallel(self):
        system = make_system(depth="auto")
        client = windowed_client(system)
        assert client.comm.pipeline_depth > 1
        assert client.comm.parallel
        system.close()

    def test_explicit_depth_wins_over_auto(self):
        system = make_system(depth="auto")
        client = system.client("bob", pipeline_depth=5, chunker=FixedChunker(4096))
        receipt = client.upload("/f", data_of(30_000))
        assert receipt.pipeline_depth == 5
        assert client.comm.pipeline_depth == 5
        system.close()

    def test_bogus_depth_values_rejected(self):
        for bad in (0, -3, "fast", 2.5, None):
            with pytest.raises(ParameterError):
                make_system(depth=bad).client("alice")
