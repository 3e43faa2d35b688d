"""Delta finalize: an incremental backup copies its unchanged recipe entries.

A client remembers each path's last version tag beside its cut points
(:class:`~repro.client.client.ChunkHistory`).  The next upload of the path
queries, uploads and sends metas for the secrets whose hash key changed
only; each server splices the rest from the recipe it holds for that tag.
A cloud that does not hold the base version answers ``StaleBaseError``;
the file is then encoded once for all such clouds, each is sent every
share it lacks and finalized in full.  The client-side tests
run under the inline and the pipelined schedule.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking.fixed import FixedChunker
from repro.client.client import CDStoreClient, ChunkHistory, copied_runs
from repro.cloud.network import Link
from repro.cloud.provider import CloudProvider
from repro.crypto.drbg import DRBG
from repro.crypto.hashing import fingerprint
from repro.errors import CloudUnavailableError, ProtocolError, StaleBaseError
from repro.obs.registry import REGISTRY
from repro.server.index import PREFIX_FILE, PREFIX_SHARE, FileEntry, ShareEntry
from repro.server.messages import ZERO_TAG, FileManifest, ShareMeta, ShareUpload
from repro.server.server import CDStoreServer
from repro.system.cdstore import CDStoreSystem
from repro.tenants import TenantRecord, TenantRegistry

SCHEDULES = {"inline": {}, "pipelined": {"threads": 2, "pipeline_depth": 2}}
USERS = ("alice", "bob")

#: A ``FileManifest(b"lookup-key", b"path-share", 20000, 5)`` and a
#: ``FileEntry(ContainerRef("container-0000000001", 2), b"path-share",
#: 20000, 5)`` as the codecs packed them before version tags existed.
V1_MANIFEST = bytes.fromhex(
    "0000000a6c6f6f6b75702d6b65790000000a706174682d7368617265"
    "0000000000004e200000000000000005"
)
V1_ENTRY = bytes.fromhex(
    "001a001400000002636f6e7461696e65722d30303030303030303031"
    "0000000a706174682d73686172650000000000004e200000000000000005"
)


def versions(size: int, count: int, seed: str = "v") -> list[bytes]:
    """``count`` versions of one file, each an edit of the last: a
    replaced stretch that also shifts every byte after it."""
    out = [DRBG(f"{seed}0").random_bytes(size)]
    for i in range(1, count):
        last = out[-1]
        at = len(last) // 5 * (1 + i % 3)
        out.append(last[:at] + DRBG(f"{seed}{i}").random_bytes(3000) + last[at + 1000 :])
    return out


def finalizes() -> Counter:
    """``client_finalize_total`` by mode, to diff around an upload."""
    counter = REGISTRY.counter("client_finalize_total")
    return Counter({mode: counter.value(mode=mode) for mode in ("delta", "full", "fallback")})


def make_system(schedule: dict) -> CDStoreSystem:
    """Four in-memory clouds whose servers meter both users' usage."""
    tenants = TenantRegistry([TenantRecord(user, b"secret") for user in USERS])
    servers = [
        CDStoreServer(i, CloudProvider(f"cloud-{i}", Link(100.0), Link(100.0)), tenants=tenants)
        for i in range(4)
    ]
    return CDStoreSystem(n=4, k=3, salt=b"org", clouds=servers, **schedule)


def assert_recount(system: CDStoreSystem) -> None:
    """Every server's refcounts, and each metered user's usage, equal a
    recount of the recipes its file index names."""
    for server in system.servers:
        refs: dict[bytes, Counter] = {}
        for key, blob in server.index.items(PREFIX_FILE):
            user = key[len(PREFIX_FILE) :].partition(b"\x00")[0].decode()
            for entry in server._recipe_entries(FileEntry.unpack(blob)):
                refs.setdefault(entry.fingerprint, Counter())[user] += 1
        owned = Counter()
        for key, blob in server.index.items(PREFIX_SHARE):
            entry = ShareEntry.unpack(blob)
            assert entry.owners == dict(refs.pop(key[len(PREFIX_SHARE) :], {}))
            owned.update({user: entry.share_size for user in entry.owners})
        assert not refs  # no recipe names a share without an index entry
        if server.tenants is not None:
            for user in USERS:
                assert server.tenant_usage(user).bytes_stored == owned[user]


def _outage(*args, **kwargs):
    raise CloudUnavailableError("finalize lost")


def failed_overwrite(system, client, path: str, data: bytes, stale: set[int]) -> None:
    """Overwrite ``path`` while the ``stale`` clouds' finalize raises."""
    for index in stale:
        system.servers[index].finalize_file = _outage
    with pytest.raises(CloudUnavailableError):
        client.upload(path, data)
    for index in stale:
        del system.servers[index].finalize_file


class TestCopiedRuns:
    def test_unchanged_file_is_one_run(self):
        keys = [bytes([i]) for i in range(6)]
        assert copied_runs(keys, keys) == [(0, 0, 6)]

    def test_an_insertion_splits_the_run(self):
        base = [bytes([i]) for i in range(6)]
        keys = base[:2] + [b"new"] + base[3:]
        assert copied_runs(base, keys) == [(0, 0, 2), (3, 3, 3)]

    def test_each_base_chunk_is_copied_once(self):
        base = [b"a", b"b", b"a", b"b"]
        keys = [b"a", b"b", b"a", b"b", b"a", b"b"]
        assert copied_runs(base, keys) == [(0, 0, 4)]
        assert copied_runs([b"z"], [b"z", b"z", b"z"]) == [(0, 0, 1)]

    def test_moved_chunks_are_copied_from_where_they_were(self):
        base = [b"a", b"b", b"c", b"d"]
        assert copied_runs(base, [b"c", b"d", b"a", b"b"]) == [(0, 2, 2), (2, 0, 2)]
        assert copied_runs([], [b"a"]) == []


@pytest.mark.parametrize("schedule", SCHEDULES.values(), ids=SCHEDULES)
class TestDeltaFinalize:
    def test_recipes_equal_the_full_paths(self, schedule):
        """Per cloud and version, the recipe a delta builds is byte-equal to
        the one a full finalize builds from the same input."""
        data = versions(200_000, 4)
        recipes, moved = [], []
        for keep_history in (True, False):
            system = CDStoreSystem(n=4, k=3, salt=b"org", **schedule)
            client = system.client("alice")
            key = client._lookup_key("/f")
            before = finalizes()
            built = []
            for version in data:
                if not keep_history:
                    client.history = ChunkHistory()
                client.upload("/f", version)
                assert client.download("/f") == version
                built.append(
                    [
                        b"".join(entry.pack() for entry in server.get_recipe("alice", key))
                        for server in system.servers
                    ]
                )
            recipes.append(built)
            moved.append(finalizes() - before)
            system.close()
        assert recipes[0] == recipes[1]
        assert moved == [Counter(full=4, delta=12), Counter(full=16)]

    def test_refcounts_equal_a_recount(self, schedule):
        """After a delta, an overwrite of an overwrite, a stale cloud's
        fallback, a delete and garbage collection."""
        system = make_system(schedule)
        alice, bob = system.client("alice"), system.client("bob")
        data = versions(150_000, 5)
        bob.upload("/shared", data[1])  # bob co-owns shares of alice's versions
        alice.upload("/f", data[0])
        alice.upload("/g", data[0])
        before = finalizes()
        alice.upload("/f", data[1])
        assert_recount(system)
        alice.upload("/f", data[2])
        assert_recount(system)
        failed_overwrite(system, alice, "/f", data[3], stale={0})
        alice.upload("/f", data[4])  # cloud 0 still holds data[2]'s version
        assert finalizes() - before == Counter(delta=14, fallback=1)
        assert_recount(system)
        alice.delete("/g")
        for server in system.servers:
            server.collect_garbage()
        assert_recount(system)
        system.fail_cloud(3)  # a quorum that must include cloud 0
        assert alice.download("/f") == data[4]
        assert bob.download("/shared") == data[1]
        system.close()

    def test_wiped_cloud_falls_back(self, schedule):
        system = make_system(schedule)
        client = system.client("alice")
        old, new = versions(120_000, 2)
        client.upload("/f", old)
        system.wipe_cloud(0)
        before = finalizes()
        receipt = client.upload("/f", new)
        assert finalizes() - before == Counter(delta=3, fallback=1)
        # Cloud 0 got every share again; the others only the changed ones.
        assert receipt.wire_bytes_per_cloud[0] > 2 * max(receipt.wire_bytes_per_cloud[1:])
        assert_recount(system)
        system.fail_cloud(3)
        assert client.download("/f") == new
        system.recover_cloud(3)
        # The same bytes after another wipe: every secret is copied, so
        # only the wiped cloud is sent shares.
        system.wipe_cloud(2)
        before = finalizes()
        receipt = client.upload("/f", new)
        assert finalizes() - before == Counter(delta=3, fallback=1)
        assert [sent > 0 for sent in receipt.wire_bytes_per_cloud] == [False, False, True, False]
        assert_recount(system)
        system.fail_cloud(0)  # a quorum that must include cloud 2
        assert client.download("/f") == new
        system.close()

    def test_ledger_counts_copied_secrets(self, schedule):
        """Fig. 6's logical side counts every secret's ``n`` shares, copied
        or sent: a delta upload reports what a client without history
        reports for the same bytes."""
        old, new = versions(120_000, 2)
        ledgers = []
        for keep_history in (True, False):
            system = CDStoreSystem(n=4, k=3, salt=b"org", **schedule)
            client = system.client("alice")
            client.upload("/f", old)
            if not keep_history:
                client.history = ChunkHistory()
            before = finalizes()
            receipt = client.upload("/f", new)
            assert finalizes() - before == (Counter(delta=4) if keep_history else Counter(full=4))
            chunks = list(client.chunker.chunk_bytes(new))
            assert receipt.secret_count == len(chunks)
            assert receipt.logical_share_bytes == 4 * sum(
                client.dispersal.share_size(chunk.size) for chunk in chunks
            )
            ledgers.append((receipt, client.stats))
            system.close()
        assert ledgers[0] == ledgers[1]

    def test_second_client_overwriting_the_path(self, schedule):
        system = make_system(schedule)
        first = system.client("alice")
        second = CDStoreClient("alice", system.servers, k=3, salt=b"org", **schedule)
        data = versions(120_000, 3)
        first.upload("/f", data[0])
        before = finalizes()
        second.upload("/f", data[1])  # no history on this client: full
        first.upload("/f", data[2])  # its base is data[0]: every cloud is stale
        assert finalizes() - before == Counter(full=4, fallback=4)
        assert second.download("/f") == data[2]
        assert_recount(system)
        second.close()
        system.close()

    def test_delete_then_upload(self, schedule):
        system = make_system(schedule)
        client = system.client("alice")
        old, new = versions(120_000, 2)
        client.upload("/f", old)
        client.delete("/f")
        before = finalizes()
        client.upload("/f", new)
        assert finalizes() - before == Counter(fallback=4)
        for server in system.servers:
            server.collect_garbage()
        assert_recount(system)
        assert client.download("/f") == new
        system.close()

    def test_stale_clouds_encode_each_secret_once(self, schedule):
        """``test_delete_then_upload``'s sequence: every cloud is stale, so
        the upload encodes its sent secrets, then the whole file once for
        all four clouds, not once per cloud."""
        system = make_system(schedule)
        client = system.client("alice")
        old, new = versions(120_000, 2)
        client.upload("/f", old)
        client.delete("/f")
        encoded = []
        encode_batch = client.dispersal.encode_batch

        def counting(secrets):
            encoded.append(len(secrets))
            return encode_batch(secrets)

        client.dispersal.encode_batch = counting
        before = finalizes()
        receipt = client.upload("/f", new)
        assert finalizes() - before == Counter(fallback=4)
        keys = [
            client.dispersal.hash_keys([chunk.data for chunk in client.chunker.chunk_bytes(data)])
            for data in (old, new)
        ]
        sent = receipt.secret_count - sum(count for _, _, count in copied_runs(*keys))
        assert sum(encoded) == receipt.secret_count + sent == 16
        assert client.download("/f") == new
        system.close()

    def test_repaired_cloud_takes_the_next_delta(self, schedule):
        """Repair writes the quorum's version tag, so the repaired cloud
        holds the base the client's next upload names."""
        system = CDStoreSystem(n=4, k=3, salt=b"org", **schedule)
        client = system.client("alice")
        old, new = versions(120_000, 2)
        client.upload("/f", old)
        system.wipe_cloud(0)
        system.repair_cloud(0)
        key = client._lookup_key("/f")
        assert len({server.get_file_entry("alice", key).tag for server in system.servers}) == 1
        before = finalizes()
        client.upload("/f", new)
        assert finalizes() - before == Counter(delta=4)
        system.fail_cloud(3)
        assert client.download("/f") == new
        system.close()

    def test_rebuilt_recipe_takes_the_next_delta(self, schedule):
        """Scrub-repair rebuilds an unreadable recipe under the entry's
        own tag, and the next delta copies from the rebuilt recipe."""
        system = CDStoreSystem(n=4, k=3, salt=b"org", **schedule)
        client = system.client("alice")
        old, new = versions(120_000, 2)
        client.upload("/f", old)
        client.flush()
        assert client.download("/f") == old
        entry = system.servers[2].get_file_entry("alice", client._lookup_key("/f"))
        system.clouds[2].backend.delete_object(entry.recipe_ref.container_id)
        assert system.scrub_and_repair(2) == 1
        before = finalizes()
        client.upload("/f", new)
        assert finalizes() - before == Counter(delta=4)
        system.fail_cloud(0)
        assert client.download("/f") == new
        system.close()

    def test_entry_without_a_tag_lists_restores_and_is_overwritten(self, schedule):
        """An entry written before version tags decodes with tag zero: it
        lists and restores, and the next upload finalizes over it in full."""
        system = CDStoreSystem(n=4, k=3, salt=b"org", **schedule)
        client = system.client("alice")
        old, new = versions(60_000, 2)
        client.upload("/f", old)
        key = client._lookup_key("/f")
        for server in system.servers:
            file_key = server._file_key("alice", key)
            entry = replace(FileEntry.unpack(server.index.get(file_key)), tag=ZERO_TAG)
            server.index.put(file_key, entry.pack())
        assert client.list_files() == ["/f"]
        assert client.download("/f") == old
        before = finalizes()
        client.upload("/f", new)
        assert finalizes() - before == Counter(fallback=4)
        assert client.download("/f") == new
        system.close()


class TestCodecCompatibility:
    def test_records_without_tags_decode_with_tag_zero(self):
        manifest = FileManifest.unpack(V1_MANIFEST)
        assert manifest == FileManifest(b"lookup-key", b"path-share", 20000, 5)
        assert (manifest.tag, manifest.base, manifest.runs) == (ZERO_TAG, ZERO_TAG, ())
        assert manifest.pack() == V1_MANIFEST
        entry = FileEntry.unpack(V1_ENTRY)
        assert (entry.file_size, entry.secret_count, entry.tag) == (20000, 5, ZERO_TAG)
        assert entry.pack() == V1_ENTRY

    @pytest.mark.parametrize("extra", range(1, 16))
    def test_a_partial_tag_is_rejected(self, extra):
        stray = bytes(range(1, extra + 1))
        with pytest.raises(ProtocolError):
            FileManifest.unpack(V1_MANIFEST + stray)
        with pytest.raises(ProtocolError):
            FileEntry.unpack(V1_ENTRY + stray)

    def test_a_partial_base_or_run_is_rejected(self):
        tag = bytes(range(16))
        assert FileManifest.unpack(V1_MANIFEST + tag).tag == tag
        assert FileEntry.unpack(V1_ENTRY + tag).tag == tag
        with pytest.raises(ProtocolError):
            FileEntry.unpack(V1_ENTRY + tag + b"x")
        full = replace(FileManifest.unpack(V1_MANIFEST), tag=tag, base=tag, runs=((0, 1, 2),))
        blob = full.pack()
        assert FileManifest.unpack(blob) == full
        for cut in range(len(V1_MANIFEST) + 17, len(blob)):
            with pytest.raises(ProtocolError):
                FileManifest.unpack(blob[:cut])


class TestMalformedRuns:
    """Runs that overlap, run past either version, leave a gap or come
    without a base fail ``ProtocolError`` — a base the entry is not,
    ``StaleBaseError`` — before the server writes anything."""

    @pytest.fixture
    def stored(self):
        system = CDStoreSystem(n=4, k=3, salt=b"org")
        client = system.client("alice", chunker=FixedChunker(4096))
        server = system.servers[0]
        sent = []
        finalize = server.finalize_file

        def recording(user_id, manifest, metas):
            sent.append(metas)
            return finalize(user_id, manifest, metas)

        server.finalize_file = recording
        data = DRBG("runs").random_bytes(20_000)
        client.upload("/f", data)
        del server.finalize_file
        key = client._lookup_key("/f")
        yield server, key, sent[0], data, client
        system.close()

    @pytest.mark.parametrize(
        "runs, seqs",
        [
            pytest.param(((0, 0, 3), (2, 3, 2)), [], id="overlap"),
            pytest.param(((0, 0, 2), (2, 1, 2)), [4], id="overlap-in-base"),
            pytest.param(((2, 2, 3), (0, 0, 2)), [], id="out-of-order"),
            pytest.param(((0, 3, 3),), [3, 4], id="past-the-base"),
            pytest.param(((3, 0, 3),), [0, 1], id="past-the-file"),
            pytest.param(((0, 0, 2),), [3, 4, 5], id="gap"),
            pytest.param(((0, 0, 0),), [0, 1, 2, 3, 4], id="empty"),
        ],
    )
    def test_rejected_before_any_mutation(self, stored, runs, seqs):
        server, key, metas, data, client = stored
        entry = server.get_file_entry("alice", key)
        by_seq = {meta.secret_seq: meta for meta in metas}
        sent = [by_seq.get(seq) or replace(metas[-1], secret_seq=seq) for seq in seqs]
        manifest = FileManifest(key, entry.path_share, 20_000, 5, bytes(16), entry.tag, runs)
        self._assert_rejected(server, client, data, ProtocolError, manifest, sent)
        manifest = replace(manifest, base=ZERO_TAG, runs=((0, 0, 5),))
        self._assert_rejected(server, client, data, ProtocolError, manifest, [])
        manifest = replace(manifest, base=b"\x01" * 16)
        self._assert_rejected(server, client, data, StaleBaseError, manifest, [])

    @staticmethod
    def _assert_rejected(server, client, data, error, manifest, metas):
        before = list(server.index.items())
        with pytest.raises(error):
            server.finalize_file("alice", manifest, metas)
        assert list(server.index.items()) == before
        assert client.download("/f") == data


class TestServerDeltaEquivalence:
    """One server finalized by deltas, one in full, from the same recipes:
    their recipes, share refcounts and tenant usage stay equal."""

    POOL = [bytes([65 + i]) * (90 + 17 * i) for i in range(6)]

    @classmethod
    def make(cls) -> CDStoreServer:
        server = CDStoreServer(
            0,
            CloudProvider("c", Link(100.0), Link(100.0)),
            tenants=TenantRegistry([TenantRecord("alice", b"secret")]),
        )
        server.upload_shares(
            "alice",
            [
                ShareUpload(ShareMeta(fingerprint(share, "client"), len(share), 0, len(share)), share)
                for share in cls.POOL
            ],
        )
        return server

    @classmethod
    def metas(cls, recipe: list[int]) -> list[ShareMeta]:
        return [
            ShareMeta(fingerprint(cls.POOL[i], "client"), len(cls.POOL[i]), seq, len(cls.POOL[i]))
            for seq, i in enumerate(recipe)
        ]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=8), min_size=1, max_size=5))
    def test_delta_equals_full(self, recipes):
        full, delta = self.make(), self.make()
        last, tag = None, ZERO_TAG
        for number, recipe in enumerate(recipes, start=1):
            size = sum(len(self.POOL[i]) for i in recipe)
            manifest = FileManifest(b"k", b"p", size, len(recipe), tag=bytes([number]) * 16)
            full.finalize_file("alice", manifest, self.metas(recipe))
            runs = copied_runs([bytes([i]) for i in last], [bytes([i]) for i in recipe]) if last else []
            copied = {seq for start, _, count in runs for seq in range(start, start + count)}
            delta.finalize_file(
                "alice",
                replace(manifest, base=tag if runs else ZERO_TAG, runs=tuple(runs)),
                [meta for meta in self.metas(recipe) if meta.secret_seq not in copied],
            )
            last, tag = recipe, manifest.tag
            assert delta.get_recipe("alice", b"k") == full.get_recipe("alice", b"k")
            assert list(delta.index.items(PREFIX_SHARE)) == list(full.index.items(PREFIX_SHARE))
            assert delta.tenant_usage("alice") == full.tenant_usage("alice")
