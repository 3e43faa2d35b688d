"""Transfer pipeline: bounded slab queue + windowed restore.

Covers the ``pipeline_depth`` knob end to end: byte identity of the
pipelined schedule with the inline reference across the ``threads × depth``
grid, the window and slab budgets at every depth, per-window restore
failover (a cloud stalling mid-window, a corrupt share healed by a spare),
and the backpressure/release discipline of
:class:`~repro.client.workers.SlabbedShareSets`.
"""

from __future__ import annotations

import struct
import threading
import time
from concurrent.futures import Future

import pytest

from repro.chunking.fixed import FixedChunker
from repro.client.workers import SlabbedShareSets, plan_windows
from repro.cloud.network import pipeline_makespan
from repro.crypto.drbg import DRBG
from repro.errors import CloudUnavailableError, ParameterError
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
# the bounded slab queue (lazy SlabbedShareSets)
# ---------------------------------------------------------------------------


class TestBoundedSlabQueue:
    @staticmethod
    def _lazy_view(spans, depth, consumers, log=None):
        def submit(start: int, end: int) -> Future:
            if log is not None:
                log.append((start, end))
            future: Future = Future()
            future.set_result(list(range(start, end)))
            return future

        return SlabbedShareSets(
            spans=spans, submit=submit, depth=depth, consumers=consumers
        )

    def test_submission_respects_depth(self):
        log: list[tuple[int, int]] = []
        spans = [(0, 2), (2, 4), (4, 6), (6, 8)]
        view = self._lazy_view(spans, depth=2, consumers=1, log=log)
        assert log == [(0, 2), (2, 4)]  # only depth slabs submitted eagerly
        with view.stream() as stream:
            seen = [seq for seq, _ in stream]
        assert seen == list(range(8))
        assert log == spans  # draining admitted the rest, in order

    def test_drained_slabs_release_memory(self):
        spans = [(0, 2), (2, 4)]
        view = self._lazy_view(spans, depth=1, consumers=1)
        with view.stream() as stream:
            list(stream)
        assert view._futures == [None, None]  # all slabs dropped

    def test_slab_is_freed_only_after_every_consumer(self):
        """A slab leaves the window — its shares dropped, the next slab
        submitted — only once every consumer has drained it, in slab
        order; an abandoned consumer counts as having drained the rest."""
        log: list[tuple[int, int]] = []
        spans = [(0, 1), (1, 2), (2, 3)]
        view = self._lazy_view(spans, depth=2, consumers=2, log=log)
        first, second = view.stream(), view.stream()
        a, b = iter(first), iter(second)
        assert next(a) == (0, 0) and next(a) == (1, 1)  # a drained slab 0
        assert log == spans[:2] and view._futures[0] is not None
        assert next(b) == (0, 0) and next(b) == (1, 1)  # so did b
        assert log == spans and view._futures[0] is None
        first.close()  # a is abandoned holding slab 1
        assert view._futures[1] is not None
        assert list(b) == [(2, 2)]
        second.close()
        assert view._futures == [None, None, None]

    def test_abandoned_consumer_unblocks_siblings(self):
        """A consumer dying mid-stream must release its claims so the
        other consumer can still pull every slab through the window."""
        spans = [(0, 1), (1, 2), (2, 3), (3, 4)]
        submitted: list[tuple[int, int]] = []

        def submit(start: int, end: int) -> Future:
            submitted.append((start, end))
            future: Future = Future()
            future.set_result([f"slab-{start}"])
            return future

        view = SlabbedShareSets(
            spans=spans, submit=submit, depth=1, consumers=2
        )

        def dying():
            with view.stream() as stream:
                for _seq, _item in stream:
                    raise RuntimeError("consumer died")

        with pytest.raises(RuntimeError):
            dying()

        done = threading.Event()
        results: list = []

        def survivor():
            with view.stream() as stream:
                results.extend(item for _seq, item in stream)
            done.set()

        worker = threading.Thread(target=survivor)
        worker.start()
        worker.join(timeout=5.0)
        assert done.is_set(), "surviving consumer deadlocked"
        assert results == [f"slab-{i}" for i in range(4)]
        assert submitted == spans

    def test_failing_submit_poisons_slab_instead_of_deadlocking(self):
        """A submit that raises (e.g. a pool already shut down) must surface
        as the slab's error on every consumer — not leave the slot empty
        with the other cloud workers blocked on it forever."""
        spans = [(0, 1), (1, 2), (2, 3)]

        def submit(start: int, end: int) -> Future:
            if start == 1:
                raise OSError("no space left on device")
            future: Future = Future()
            future.set_result([f"slab-{start}"])
            return future

        view = SlabbedShareSets(spans=spans, submit=submit, depth=1, consumers=2)

        def consume() -> list:
            got: list = []
            with view.stream() as stream:
                for _seq, item in stream:
                    got.append(item)
            return got

        errors: list[BaseException] = []
        partials: list[list] = []

        def worker():
            try:
                partials.append(consume())
            except BaseException as exc:  # noqa: BLE001 - recording for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
        assert not any(thread.is_alive() for thread in threads), "consumer hung"
        assert len(errors) == 2 and all(
            isinstance(exc, OSError) for exc in errors
        )
        assert not partials


# ---------------------------------------------------------------------------
# the slab budget feeds every encoder and never exceeds max(depth, threads)
# ---------------------------------------------------------------------------


class _WatchedChunk:
    """A chunk that tells a ledger what the engine does with it: reading
    ``.data`` is its slab being submitted (the engine materialises a
    slab's secrets at submit time), reading ``.seq`` is one cloud worker
    being fed its share (each cloud has its own worker thread)."""

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
        self._submitted = 0
        self._fed_by: dict[int, set[int]] = {last: set() for last in self._lasts}
        #: Most slabs ever submitted but not yet drained by every cloud.
        self.peak_outstanding = 0

    def submitted(self, seq: int) -> None:
        with self._lock:
            if seq in self._starts:
                self._submitted += 1
                drained = sum(
                    len(self._fed_by[last]) == self._clouds for last in self._lasts
                )
                self.peak_outstanding = max(
                    self.peak_outstanding, self._submitted - drained
                )

    def fed(self, seq: int) -> None:
        with self._lock:
            if seq in self._fed_by:
                self._fed_by[seq].add(threading.get_ident())


class TestEncodePoolIsFed:
    @pytest.mark.parametrize("depth", [1, 2])
    def test_four_encoders_get_four_slabs_and_no_more(self, depth):
        """threads=4 keeps four slabs in flight at any depth <= 4: every
        encoder has work, and a file of 8 slabs is never submitted whole."""
        from repro.client.workers import slab_spans

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
