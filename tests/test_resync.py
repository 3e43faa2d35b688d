"""Chunking a path's next version from its last version's cut points.

:meth:`Chunker.resync` hashes the bytes where the previous version's next
chunk would lie and scans only where they stop matching.  Whatever it
reuses, its chunks (and their hash keys) must equal one full
``chunk_bytes`` of the new version: cut points decide deduplication.  The
client keeps each path's last cut in a bounded :class:`ChunkHistory`; a
path without one is chunked by exactly one ``chunk_bytes``, as is every
backup through a dispersal without hash keys.
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking import base, chunker_names, create_chunker
from repro.chunking.base import Chunker
from repro.client.client import ChunkHistory
from repro.crypto.drbg import DRBG
from repro.errors import ParameterError
from repro.obs.registry import REGISTRY
from repro.system.cdstore import CDStoreSystem

#: Small parameters per registered chunker, so a few KB hold many chunks
#: (and a max-size cut is reachable) and a short span truncates some.
SMALL = {
    "rabin": "rabin:avg=256,min=64,max=1024",
    "gear": "gear:avg=256,min=64,max=1024",
    "fixed": "fixed:size=300",
}


def test_every_registered_chunker_is_covered():
    assert set(SMALL) == set(chunker_names())


def hash_keys(secrets) -> list[bytes]:
    return [hashlib.sha256(b"salt" + secret).digest() for secret in secrets]


def cut(chunker: Chunker, data: bytes) -> list[tuple[int, int, bytes]]:
    return [(c.seq, c.offset, c.data) for c in chunker.chunk_bytes(data)]


def resynced(chunker: Chunker, old: bytes, new: bytes):
    """``resync`` of ``new`` from ``old``'s chunks, as (chunks, keys, reused)."""
    previous = list(chunker.chunk_bytes(old))
    return chunker.resync(
        new,
        [chunk.size for chunk in previous],
        hash_keys([chunk.data for chunk in previous]),
        hash_keys,
    )


def assert_same_cuts(chunker: Chunker, old: bytes, new: bytes) -> int:
    chunks, keys, reused = resynced(chunker, old, new)
    expected = cut(chunker, new)
    assert [(c.seq, c.offset, c.data) for c in chunks] == expected
    assert keys == hash_keys([data for _, _, data in expected])
    assert 0 <= reused <= len(new)
    return reused


# ---------------------------------------------------------------------------
# the resync equals a full scan
# ---------------------------------------------------------------------------

EDIT = st.one_of(
    st.tuples(st.just("overwrite"), st.floats(0, 1), st.binary(min_size=1, max_size=700)),
    st.tuples(st.just("insert"), st.floats(0, 1), st.binary(min_size=1, max_size=700)),
    st.tuples(st.just("delete"), st.floats(0, 1), st.integers(1, 900)),
    st.tuples(st.just("truncate"), st.floats(0, 1), st.just(b"")),
    st.tuples(st.just("append"), st.just(1.0), st.binary(min_size=1, max_size=700)),
)


def apply(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for kind, where, arg in edits:
        at = int(where * len(out))
        if kind == "overwrite":
            out[at : at + len(arg)] = arg
        elif kind == "insert":
            out[at:at] = arg
        elif kind == "delete":
            del out[at : at + arg]
        elif kind == "truncate":
            del out[at:]
        else:
            out += arg
    return bytes(out)


class TestEqualsChunkBytes:
    @pytest.mark.parametrize("name", sorted(SMALL))
    @pytest.mark.parametrize("span", [200, 1500, base.RESYNC_SPAN])
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 1 << 30),
        size=st.integers(0, 12_000),
        versions=st.lists(st.lists(EDIT, min_size=1, max_size=4), min_size=1, max_size=3),
    )
    def test_edit_scripts(self, name, span, seed, size, versions):
        chunker = create_chunker(SMALL[name])
        old = DRBG(f"resync-{seed}").random_bytes(size)
        with mock.patch.object(base, "RESYNC_SPAN", span):
            for edits in versions:
                new = apply(old, edits)
                assert_same_cuts(chunker, old, new)
                old = new

    @pytest.mark.parametrize("spec", ["rabin", "gear", "fixed"])
    def test_default_parameters_reuse_what_did_not_change(self, spec):
        chunker = create_chunker(spec)
        old = DRBG("resync-default").random_bytes(1 << 20)
        new = old[:300_000] + DRBG("edit").random_bytes(5000) + old[305_000:]
        reused = assert_same_cuts(chunker, old, new)
        # One span around the edit is scanned, everything else hashed.
        assert reused >= len(new) - 4 * base.RESYNC_SPAN


class TestExplicitCases:
    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_empty_input(self, name):
        chunker = create_chunker(SMALL[name])
        old = DRBG("old").random_bytes(5000)
        assert resynced(chunker, old, b"") == ([], [], 0)
        assert_same_cuts(chunker, b"", old)
        assert_same_cuts(chunker, b"", b"")

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_input_shorter_than_min_size(self, name):
        chunker = create_chunker(SMALL[name])
        old = DRBG("old").random_bytes(5000)
        for new in (old[:1], old[:50], DRBG("short").random_bytes(63)):
            assert_same_cuts(chunker, old, new)
            assert_same_cuts(chunker, new, old)

    @pytest.mark.parametrize("name", ["rabin", "gear"])
    def test_old_eof_chunk_reappearing_mid_file(self, name):
        """The old last chunk was cut by EOF; mid-file the same bytes do
        not end a chunk, so matching it there would move a cut."""
        chunker = create_chunker(SMALL[name])
        data = DRBG("eof").random_bytes(20_000)
        hits = 0
        for end in range(2000, 20_000, 97):
            old = data[:end]
            last = list(chunker.chunk_bytes(old))[-1]
            follow = [c for c in chunker.chunk_bytes(data) if c.offset == last.offset]
            if follow and follow[0].size != last.size:
                hits += 1
                assert_same_cuts(chunker, old, data)
        assert hits > 10

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_max_size_forced_cuts(self, name):
        """Zero runs have no content cut: every chunk there is forced at
        ``max_size`` and many share one key."""
        chunker = create_chunker(SMALL[name])
        noise = DRBG("zeros").random_bytes(3000)
        old = noise + bytes(9000) + noise + bytes(4000)
        for new in (
            noise + bytes(12_000) + noise + bytes(4000),
            noise + bytes(5000) + noise + bytes(4000),
            bytes(7000) + noise,
            old + bytes(1),
        ):
            assert_same_cuts(chunker, old, new)
            assert_same_cuts(chunker, new, old)

    def test_span_doubles_until_it_holds_a_complete_chunk(self, monkeypatch):
        monkeypatch.setattr(base, "RESYNC_SPAN", 16)
        chunker = create_chunker("rabin")
        old = DRBG("old").random_bytes(200_000)
        assert_same_cuts(chunker, old, DRBG("new").random_bytes(200_000))


# ---------------------------------------------------------------------------
# the client's chunk history
# ---------------------------------------------------------------------------


class CountingChunker(Chunker):
    """Delegates to a real chunker and logs each ``chunk_bytes`` input size."""

    def __init__(self, inner: Chunker) -> None:
        self.inner = inner
        self.calls: list[int] = []

    def chunk_bytes(self, data):
        self.calls.append(len(data))
        return self.inner.chunk_bytes(data)


def chunk_bytes_total() -> dict[str, float]:
    counter = REGISTRY.counter("client_chunk_bytes_total")
    return {source: counter.value(source=source) for source in ("reused", "scanned")}


def versions_of(size: int, count: int) -> list[bytes]:
    out = [DRBG("v0").random_bytes(size)]
    for i in range(1, count):
        middle = len(out[-1]) // 3 * (1 + i % 2)
        out.append(out[-1][:middle] + DRBG(f"v{i}").random_bytes(3000) + out[-1][middle + 1000 :])
    return out


def record_traffic(system: CDStoreSystem) -> list:
    """Log every dedup query and upload each server receives, in order,
    as ``(cloud, "query", fingerprints)`` or ``(cloud, "upload", shares)``."""
    log: list = []
    for idx, server in enumerate(system.servers):
        query, upload = server.query_duplicates, server.upload_shares

        def logged_query(user, fps, idx=idx, query=query):
            log.append((idx, "query", list(fps)))
            return query(user, fps)

        def logged_upload(user, uploads, idx=idx, upload=upload):
            log.append((idx, "upload", [(u.meta, u.data) for u in uploads]))
            return upload(user, uploads)

        server.query_duplicates = logged_query
        server.upload_shares = logged_upload
    return log


class TestClientHistory:
    def test_cold_path_runs_exactly_one_chunk_bytes(self):
        system = CDStoreSystem(n=4, k=3, salt=b"org")
        chunker = CountingChunker(create_chunker("rabin"))
        client = system.client("alice", chunker=chunker)
        old, new = versions_of(400_000, 2)
        before = chunk_bytes_total()
        client.upload("/f", old)
        assert chunker.calls == [len(old)]
        assert chunk_bytes_total()["scanned"] - before["scanned"] == len(old)
        assert chunk_bytes_total()["reused"] == before["reused"]

        chunker.calls.clear()
        receipt = client.upload("/f", new)
        assert receipt.secret_count == len(list(chunker.inner.chunk_bytes(new)))
        assert sum(chunker.calls) < len(new) // 2
        after = chunk_bytes_total()
        moved = {source: after[source] - before[source] for source in after}
        assert moved["reused"] + moved["scanned"] == len(old) + len(new)
        assert moved["reused"] > len(new) // 2
        assert client.download("/f") == new

        # Another path of the same client starts cold.
        chunker.calls.clear()
        client.upload("/g", new)
        assert chunker.calls == [len(new)]
        system.close()

    def test_no_hash_key_chunks_as_today(self):
        """The server-aided codec derives keys on a key server: no history."""
        from repro.core.caont_rs import CAONTRS
        from repro.core.convergent import ConvergentDispersal

        system = CDStoreSystem(n=4, k=3, salt=b"org")
        chunker = CountingChunker(create_chunker("rabin"))
        client = system.client("alice", chunker=chunker)
        client.dispersal = ConvergentDispersal(4, 3, codec=CAONTRS(4, 3, salt=b"org"))
        old, new = versions_of(200_000, 2)
        client.upload("/f", old)
        client.upload("/f", new)
        assert chunker.calls == [len(old), len(new)]
        assert client.history.chunks == 0
        assert client.download("/f") == new
        system.close()

    @pytest.mark.parametrize("schedule", [(1, 1), (3, 2)])
    def test_history_changes_queries_not_uploads(self, schedule):
        """History makes a backup finalize as a delta: the secrets it
        copies from the last version are not queried again.  Every cloud
        still receives the same uploads, byte for byte and batch for
        batch, and is queried for a strict sub-multiset of what it is
        queried for without history."""
        threads, depth = schedule
        logs = []
        for keep_history in (False, True):
            system = CDStoreSystem(
                n=4, k=3, salt=b"org", threads=threads, pipeline_depth=depth
            )
            client = system.client("alice")
            log = record_traffic(system)
            for data in versions_of(300_000, 4):
                if not keep_history:
                    client.history = ChunkHistory()
                client.upload("/f", data)
            assert client.download("/f") == data
            logs.append(sorted(log, key=lambda entry: entry[0]))
            system.close()
        uploads = [[entry for entry in log if entry[1] == "upload"] for log in logs]
        assert uploads[0] == uploads[1]
        for idx in range(4):
            without, with_history = (
                Counter(
                    fp for cloud, kind, fps in log if (cloud, kind) == (idx, "query") for fp in fps
                )
                for log in logs
            )
            assert with_history < without

    def test_inline_and_pipelined_send_the_same_traffic(self):
        """Over several versions of one path, each cloud is queried and
        sent the same bytes in the same order whichever schedule runs."""
        logs = []
        for threads, depth in ((1, 1), (3, 2)):
            system = CDStoreSystem(
                n=4, k=3, salt=b"org", threads=threads, pipeline_depth=depth
            )
            client = system.client("alice")
            log = record_traffic(system)
            for data in versions_of(300_000, 4):
                client.upload("/f", data)
            assert client.download("/f") == data
            logs.append(sorted(log, key=lambda entry: entry[0]))
            system.close()
        assert logs[0] == logs[1]
        assert any(kind == "upload" for _, kind, _ in logs[0])

    def test_history_stays_bounded(self):
        history = ChunkHistory(capacity=100)
        chunker = create_chunker("rabin")
        key = bytes(32)
        for i in range(20):
            history.put(f"/f{i}", chunker, [8192] * 30, [key] * 30, b"t" * 16)
            assert history.chunks <= 100
        assert history.get("/f19", chunker) is not None
        assert history.get("/f0", chunker) is None
        # A file of more chunks than the bound is not remembered, and
        # forgets that path's older entry instead of evicting the rest.
        history.put("/f19", chunker, [1] * 101, [key] * 101, b"t" * 16)
        assert history.get("/f19", chunker) is None
        assert history.get("/f18", chunker) is not None
        # An entry cut by another chunker is no history for this one.
        assert history.get("/f18", create_chunker("rabin")) is None
        with pytest.raises(ParameterError):
            ChunkHistory(capacity=0)

    def test_client_history_bound_counts_chunks(self):
        system = CDStoreSystem(n=4, k=3, salt=b"org")
        client = system.client("alice", chunker="fixed:size=4096")
        client.history = ChunkHistory(capacity=50)
        for i in range(6):
            client.upload(f"/f{i}", DRBG(f"bound{i}").random_bytes(20 * 4096))
            assert client.history.chunks <= 50
        assert client.history.chunks == 40
        system.close()

    def test_two_concurrent_uploads_on_one_client(self):
        system = CDStoreSystem(n=4, k=3, salt=b"org", threads=2, pipeline_depth=2)
        client = system.client("alice")
        versions = {path: versions_of(250_000, 4) for path in ("/a", "/b")}
        versions["/a"] = [data[::-1] for data in versions["/a"]]
        shared = versions_of(120_000, 3)
        reference = create_chunker("rabin")
        errors: list = []
        start = threading.Barrier(2)

        def back_up(path: str) -> None:
            try:
                start.wait()
                for data in versions[path]:
                    receipt = client.upload(path, data)
                    assert receipt.secret_count == len(list(reference.chunk_bytes(data)))
                # One path from both threads: each resyncs from whichever
                # version the other stored last.
                for data in shared:
                    receipt = client.upload("/shared", data)
                    assert receipt.secret_count == len(list(reference.chunk_bytes(data)))
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=back_up, args=(path,)) for path in versions]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        for path, datas in versions.items():
            assert client.download(path) == datas[-1]
        assert client.download("/shared") == shared[-1]
        system.close()
