"""Parallel comm engine + refcount/restore correctness regressions.

Covers the multi-cloud transfer engine (§4.6): concurrent per-cloud
uploads/downloads, mid-restore failover to spare clouds, and the refcount /
file-entry / brute-force fixes that shipped with it.
"""

from __future__ import annotations

import struct
import threading

import pytest

from repro.chunking.fixed import FixedChunker
from repro.crypto.drbg import DRBG
from repro.errors import (
    CloudUnavailableError,
    IntegrityError,
    NotFoundError,
)
from repro.server.index import FileEntry
from repro.system.cdstore import CDStoreSystem


def data_of(size: int, seed: str = "payload") -> bytes:
    return DRBG(seed).random_bytes(size)


@pytest.fixture
def system() -> CDStoreSystem:
    return CDStoreSystem(n=4, k=3, salt=b"org")


# ---------------------------------------------------------------------------
# refcount leak on re-upload (finalize_file overwrite)
# ---------------------------------------------------------------------------


class TestRefcountOnOverwrite:
    def test_reupload_then_delete_reclaims_everything(self, system):
        """upload; upload; delete; collect_garbage frees all share bytes."""
        client = system.client("alice", chunker=FixedChunker(4096))
        payload = data_of(40_000)
        client.upload("/f", payload)
        client.upload("/f", payload)  # overwrite same path, same content
        client.delete("/f")
        freed = sum(server.collect_garbage() for server in system.servers)
        assert freed > 0
        stats = system.global_stats()
        assert stats.physical_shares == 0
        assert stats.shares_stored == 0

    def test_reupload_different_content_orphans_old_shares(self, system):
        client = system.client("alice", chunker=FixedChunker(4096))
        old = data_of(40_000, "old")
        new = data_of(40_000, "new")
        client.upload("/f", old)
        client.upload("/f", new)  # overwrite with different content
        assert client.download("/f") == new
        # The old version's shares lost their only reference; GC reclaims
        # them while the new version stays restorable.
        freed = sum(server.collect_garbage() for server in system.servers)
        assert freed > 0
        assert client.download("/f") == new
        client.delete("/f")
        sum(server.collect_garbage() for server in system.servers)
        assert system.global_stats().physical_shares == 0

    def test_failed_refinalize_leaves_refcounts_intact(self, system):
        """A finalize that dies mid-overwrite must not release old refs.

        Otherwise a later delete double-decrements and GC reaps shares
        that the user's other files still reference.
        """
        from repro.errors import ProtocolError
        from repro.server.messages import FileManifest, ShareMeta

        client = system.client("alice", chunker=FixedChunker(4096))
        payload = data_of(20_000)
        client.upload("/f", payload)
        client.upload("/g", payload)  # same content: shares referenced twice
        bogus = ShareMeta(
            fingerprint=b"\x00" * 32, share_size=1, secret_seq=0, secret_size=1
        )
        lookup = client._lookup_key("/f")
        for server in system.servers:
            manifest = FileManifest(
                lookup_key=lookup, path_share=b"x", file_size=1, secret_count=1
            )
            with pytest.raises(ProtocolError):
                server.finalize_file("alice", manifest, [bogus])
        # /f survived the failed overwrite; deleting it must release
        # exactly one reference, leaving /g restorable after GC.
        client.delete("/f")
        sum(server.collect_garbage() for server in system.servers)
        assert client.download("/g") == payload

    def test_reupload_keeps_other_owners_refs(self, system):
        """Bob's reference to shared data survives alice's re-upload."""
        alice = system.client("alice", chunker=FixedChunker(4096))
        bob = system.client("bob", chunker=FixedChunker(4096))
        payload = data_of(40_000)
        alice.upload("/a", payload)
        bob.upload("/b", payload)
        alice.upload("/a", payload)  # overwrite
        alice.delete("/a")
        sum(server.collect_garbage() for server in system.servers)
        assert bob.download("/b") == payload


# ---------------------------------------------------------------------------
# cross-server file-entry disagreement
# ---------------------------------------------------------------------------


class TestFileEntryCrossCheck:
    @staticmethod
    def _tamper_entry(system, user: str, path: str, server_idx: int, **changes):
        client = system.client(user)
        server = system.servers[server_idx]
        key = server._file_key(user, client._lookup_key(path))
        entry = FileEntry.unpack(server.index.get(key))
        for attr, delta in changes.items():
            setattr(entry, attr, getattr(entry, attr) + delta)
        server.index.put(key, entry.pack())

    def test_file_size_disagreement_raises(self, system):
        client = system.client("alice", chunker=FixedChunker(4096))
        client.upload("/f", data_of(20_000))
        self._tamper_entry(system, "alice", "/f", server_idx=2, file_size=1)
        with pytest.raises(IntegrityError):
            client.download("/f")

    def test_secret_count_disagreement_raises(self, system):
        """A server that *lies* about the secret count (and so skips the
        consistency check an honest one runs on its own recipe) is caught
        by the client's cross-check."""

        class LyingServer:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def get_file_entry(self, user_id, lookup_key):
                entry = self._inner.get_file_entry(user_id, lookup_key)
                entry.secret_count += 1
                return entry

        client = system.client("alice", chunker=FixedChunker(4096))
        client.upload("/f", data_of(20_000))
        client.servers[0] = LyingServer(client.servers[0])
        with pytest.raises(IntegrityError):
            client.download("/f")

    def test_server_whose_entry_and_recipe_disagree_is_failed_over(self, system):
        """An honest server whose index entry no longer matches its stored
        recipe reports a malformed recipe; the restore uses the spare."""
        client = system.client("alice", chunker=FixedChunker(4096))
        payload = data_of(20_000)
        client.upload("/f", payload)
        self._tamper_entry(system, "alice", "/f", server_idx=0, secret_count=1)
        assert client.download("/f") == payload


# ---------------------------------------------------------------------------
# mid-restore failover to spare clouds
# ---------------------------------------------------------------------------


class TestRestoreFailover:
    @pytest.mark.parametrize("threads", [1, 3])
    def test_cloud_failing_mid_restore_fails_over_to_spare(self, threads):
        system = CDStoreSystem(n=4, k=3, salt=b"org", threads=threads)
        client = system.client("alice", chunker=FixedChunker(4096))
        payload = data_of(30_000)
        client.upload("/f", payload)
        # Server 1 is in the chosen quorum; make its share fetch throw once
        # mid-restore (after the availability pre-check passed).
        victim = system.servers[1]
        original = victim.fetch_shares
        outages = {"count": 0}

        def flaky(fingerprints):
            outages["count"] += 1
            raise CloudUnavailableError("mid-restore outage")

        victim.fetch_shares = flaky
        try:
            assert client.download("/f") == payload
        finally:
            victim.fetch_shares = original
        assert outages["count"] == 1  # the spare answered instead
        system.close()

    @pytest.mark.parametrize("threads", [1, 3])
    def test_missing_share_entry_fails_over_to_spare(self, threads):
        system = CDStoreSystem(n=4, k=3, salt=b"org", threads=threads)
        client = system.client("alice", chunker=FixedChunker(4096))
        payload = data_of(30_000)
        client.upload("/f", payload)
        # Drop one share-index entry on a chosen server: its fetch raises
        # NotFoundError and the restore must fail over, not abort.
        server = system.servers[0]
        from repro.server.index import PREFIX_SHARE

        key = next(key for key, _ in server.index.items(PREFIX_SHARE))
        server.index.delete(key)
        assert client.download("/f") == payload
        system.close()

    @pytest.mark.parametrize("threads", [1, 3])
    def test_corrupt_recipe_on_chosen_server_fails_over(self, threads):
        """A chosen server with an unreadable recipe is replaced by a
        spare instead of aborting the restore."""
        from repro.errors import ProtocolError

        system = CDStoreSystem(n=4, k=3, salt=b"org", threads=threads)
        client = system.client("alice", chunker=FixedChunker(4096))
        payload = data_of(30_000)
        client.upload("/f", payload)

        def corrupt_recipe(user_id, lookup_key, bypass_cache=False):
            raise ProtocolError("recipe blob corrupt (bad length)")

        system.servers[1].get_recipe = corrupt_recipe
        assert client.download("/f") == payload
        system.close()

    def test_corrupt_spare_recipe_is_skipped_in_fallback(self, system):
        """A spare whose recipe is unreadable must be skipped by the §3.2
        widening loop, not abort the restore."""
        from repro.errors import ProtocolError

        client = system.client("alice", chunker=FixedChunker(4096))
        payload = data_of(20_000)
        client.upload("/f", payload)
        client.flush()
        backend = system.clouds[0].backend
        container_id = next(
            cid
            for cid in backend.list_keys("container-")
            if backend.get_object(cid)[4] == 1  # kind byte == KIND_SHARE
        )
        TestBruteForceSpareRecipeCache._corrupt_payloads(
            backend, container_id, count=2
        )
        system.servers[0].containers._cache.clear()

        def corrupt_recipe(user_id, lookup_key, bypass_cache=False):
            raise ProtocolError("recipe blob corrupt (bad length)")

        system.servers[3].get_recipe = corrupt_recipe
        # The only spare is unusable, and so is server 0's data for two
        # secrets — but shares from servers 1/2 plus the k-subset retry
        # cannot help here, so widen expectations: with the spare skipped,
        # decode falls back to the intact subsets that do exist.
        with pytest.raises(IntegrityError):
            client.download("/f")
        # Restore the spare: the same download now succeeds via widening.
        del system.servers[3].get_recipe
        assert client.download("/f") == payload

    def test_unknown_file_still_raises_not_found(self):
        system = CDStoreSystem(n=4, k=3, salt=b"org", threads=3)
        client = system.client("alice", chunker=FixedChunker(4096))
        with pytest.raises(NotFoundError):
            client.download("/never-uploaded")
        system.close()

    def test_mid_upload_failure_propagates_and_engine_survives(self):
        """An upload error surfaces after all cloud workers finish, and
        the engine stays usable for the retry."""
        system = CDStoreSystem(n=4, k=3, salt=b"org", threads=3)
        client = system.client("alice", chunker=FixedChunker(4096))
        payload = data_of(30_000)
        victim = system.servers[2]
        original = victim.upload_shares

        def boom(user_id, uploads):
            raise CloudUnavailableError("mid-upload outage")

        victim.upload_shares = boom
        with pytest.raises(CloudUnavailableError):
            client.upload("/f", payload)
        victim.upload_shares = original
        client.upload("/f", payload)  # retry on the same engine
        assert client.download("/f") == payload
        system.close()

    def test_failover_exhausted_propagates(self, system):
        client = system.client("alice", chunker=FixedChunker(4096))
        client.upload("/f", data_of(10_000))
        # Two chosen servers fail mid-restore but only one spare exists.
        for idx in (0, 1):
            def flaky(fingerprints, _idx=idx):
                raise CloudUnavailableError("mid-restore outage")

            system.servers[idx].fetch_shares = flaky
        with pytest.raises(CloudUnavailableError):
            client.download("/f")


# ---------------------------------------------------------------------------
# §3.2 brute-force fallback: spare recipes fetched once per restore
# ---------------------------------------------------------------------------


class TestBruteForceSpareRecipeCache:
    @staticmethod
    def _corrupt_payloads(backend, container_id: str, count: int) -> None:
        """Flip one byte inside the first ``count`` entry payloads."""
        blob = bytearray(backend.get_object(container_id))
        pos = 9  # container header: u32 magic | u8 kind | u32 count
        for _ in range(count):
            keylen, paylen = struct.unpack_from(">II", blob, pos)
            pos += 8 + keylen
            blob[pos] ^= 0xFF
            pos += paylen
        backend.put_object(container_id, bytes(blob))

    def test_dead_spare_is_skipped_not_fatal(self):
        """A failing spare must not abort a restore the healthy spares
        can still satisfy (n=6, k=3: two spares, one of them broken)."""
        system = CDStoreSystem(n=6, k=3, salt=b"org")
        client = system.client("alice", chunker=FixedChunker(4096))
        payload = data_of(20_000)
        client.upload("/f", payload)
        client.flush()
        # Corrupt a chosen server's stored shares to force the §3.2
        # fallback, and break the first spare (server 3) so the widening
        # loop must skip it and use the healthy spares 4/5.
        backend = system.clouds[0].backend
        container_id = next(
            cid
            for cid in backend.list_keys("container-")
            if backend.get_object(cid)[4] == 1  # kind byte == KIND_SHARE
        )
        self._corrupt_payloads(backend, container_id, count=3)
        system.servers[0].containers._cache.clear()

        def boom(fingerprints):
            raise NotFoundError("spare lost its shares")

        system.servers[3].fetch_shares = boom
        assert client.download("/f") == payload

    def test_spare_recipe_fetched_once(self, system):
        client = system.client("alice", chunker=FixedChunker(4096))
        payload = data_of(20_000)  # 5 secrets
        client.upload("/f", payload)
        client.flush()
        # Corrupt three of server 0's stored shares: three secrets fail
        # integrity and each needs the spare's (server 3's) share.
        backend = system.clouds[0].backend
        container_id = next(
            cid
            for cid in backend.list_keys("container-")
            if backend.get_object(cid)[4] == 1  # kind byte == KIND_SHARE
        )
        self._corrupt_payloads(backend, container_id, count=3)
        # Drop the server's container cache so the restore reads the
        # corrupted backend bytes (a cold server after the tampering).
        system.servers[0].containers._cache.clear()

        spare = system.servers[3]
        calls = {"get_recipe": 0}
        original = spare.get_recipe

        def counting(*args, **kwargs):
            calls["get_recipe"] += 1
            return original(*args, **kwargs)

        spare.get_recipe = counting
        try:
            assert client.download("/f") == payload
        finally:
            spare.get_recipe = original
        assert calls["get_recipe"] == 1  # cached across the 3 failing secrets


# ---------------------------------------------------------------------------
# the thread count changes the schedule, never the bytes
# ---------------------------------------------------------------------------


class TestSimulatedWallClock:
    def test_wire_bytes_identical_across_thread_counts(self):
        payload = data_of(60_000)
        receipts = []
        for threads in (1, 4):
            system = CDStoreSystem(n=4, k=3, salt=b"org", threads=threads)
            receipts.append(
                system.client("alice", chunker=FixedChunker(4096)).upload(
                    "/f", payload
                )
            )
            system.close()
        assert (
            receipts[0].wire_bytes_per_cloud == receipts[1].wire_bytes_per_cloud
        )
        assert (
            receipts[0].transferred_share_bytes
            == receipts[1].transferred_share_bytes
        )


# ---------------------------------------------------------------------------
# threads > 1 concurrent-upload stress (two clients, shared servers)
# ---------------------------------------------------------------------------


class TestConcurrentClients:
    def test_two_threaded_clients_share_servers(self):
        system = CDStoreSystem(n=4, k=3, salt=b"org", threads=3)
        alice = system.client("alice", chunker=FixedChunker(2048))
        bob = system.client("bob", chunker=FixedChunker(2048))
        shared = data_of(60_000, "shared")
        only_a = data_of(30_000, "a")
        only_b = data_of(30_000, "b")

        errors: list[BaseException] = []

        def run(client, jobs):
            try:
                for path, payload in jobs:
                    client.upload(path, payload)
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        workers = [
            threading.Thread(
                target=run, args=(alice, [("/shared", shared), ("/a", only_a)])
            ),
            threading.Thread(
                target=run, args=(bob, [("/shared", shared), ("/b", only_b)])
            ),
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not errors

        assert alice.download("/shared") == shared
        assert bob.download("/shared") == shared
        assert alice.download("/a") == only_a
        assert bob.download("/b") == only_b

        # Dedup accounting must match a sequential reference run: the
        # shared payload is stored once (inter-user dedup), everything is
        # transferred in full (side-channel safety).
        reference = CDStoreSystem(n=4, k=3, salt=b"org")
        ref_alice = reference.client("alice", chunker=FixedChunker(2048))
        ref_bob = reference.client("bob", chunker=FixedChunker(2048))
        ref_alice.upload("/shared", shared)
        ref_alice.upload("/a", only_a)
        ref_bob.upload("/shared", shared)
        ref_bob.upload("/b", only_b)

        got, want = system.global_stats(), reference.global_stats()
        assert got.physical_shares == want.physical_shares
        assert got.shares_stored == want.shares_stored
        assert got.transferred_shares == want.transferred_shares
        assert got.logical_shares == want.logical_shares
        system.close()


# ---------------------------------------------------------------------------
# process-parallel encode pool (workers="process")
# ---------------------------------------------------------------------------


class TestProcessEncodePool:
    @pytest.mark.slow
    def test_upload_restore_roundtrip(self):
        """Process workers produce byte-identical wire state to threads."""
        payload = data_of(300_000, "proc")
        systems = {
            mode: CDStoreSystem(n=4, k=3, salt=b"org", threads=3, workers=mode)
            for mode in ("thread", "process")
        }
        stored = {}
        for mode, system in systems.items():
            client = system.client("alice", chunker=FixedChunker(4096))
            client.upload("/f", payload)
            assert client.download("/f") == payload
            system.flush()
            stored[mode] = system.stored_bytes()
            system.close()
        # Convergent encoding: identical bytes stored either way.
        assert stored["thread"] == stored["process"]

    @pytest.mark.slow
    def test_dedup_unaffected_by_worker_mode(self):
        """Second upload of the same payload transfers ~nothing."""
        system = CDStoreSystem(n=4, k=3, salt=b"org", threads=2, workers="process")
        client = system.client("alice", chunker=FixedChunker(4096))
        payload = data_of(200_000, "dedup-proc")
        client.upload("/one", payload)
        receipt = client.upload("/two", payload)
        assert receipt.transferred_share_bytes == 0
        system.close()

    def test_invalid_workers_mode_rejected(self):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            CDStoreSystem(n=2, k=2, workers="fork").client("alice")

    def test_slab_spans_cover_in_order(self):
        from repro.client.workers import slab_spans

        sizes = [8192] * 100
        spans = slab_spans(sizes, 4, slab_bytes=64 << 10)
        assert spans[0][0] == 0
        assert spans[-1][1] == len(sizes)
        for (a_start, a_end), (b_start, b_end) in zip(spans, spans[1:]):
            assert a_end == b_start  # contiguous, ordered, gap-free
        assert len(spans) >= 8  # at least 2 slabs per worker

    def test_slabbed_share_sets_resolve_in_any_order(self):
        from concurrent.futures import Future

        from repro.client.workers import SlabbedShareSets

        futures = {0: Future(), 2: Future()}
        futures[0].set_result(["a", "b"])
        futures[2].set_result(["c"])
        view = SlabbedShareSets(
            [(0, 2), (2, 3)], lambda start, _end: futures[start], depth=2
        )
        assert len(view) == 3
        assert [view[2], view[0], view[1]] == ["c", "a", "b"]
        with pytest.raises(IndexError):
            view[3]

    def test_spec_less_codec_falls_back_to_threads(self):
        """A dispersal without a picklable spec still uploads correctly."""
        from repro.core.caont_rs import CAONTRS
        from repro.core.convergent import ConvergentDispersal

        system = CDStoreSystem(n=4, k=3, salt=b"org", threads=3, workers="process")
        client = system.client("alice", chunker=FixedChunker(4096))
        client.dispersal = ConvergentDispersal(4, 3, codec=CAONTRS(4, 3, salt=b"org"))
        assert client.dispersal.spec() is None
        payload = data_of(150_000, "fallback")
        client.upload("/f", payload)
        assert client.download("/f") == payload
        system.close()
