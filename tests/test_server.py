"""CDStore server: two-stage dedup semantics, indices, restore, GC."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.network import Link
from repro.cloud.provider import CloudProvider
from repro.crypto.hashing import fingerprint
from repro.errors import CloudUnavailableError, NotFoundError, ProtocolError
from repro.server.index import DictIndex, LSMIndex
from repro.server.messages import FileManifest, ShareMeta, ShareUpload
from repro.server.server import CDStoreServer


def make_server(index=None) -> CDStoreServer:
    cloud = CloudProvider("test", Link(100.0), Link(100.0))
    return CDStoreServer(server_id=0, cloud=cloud, index=index)


def upload_of(data: bytes, seq: int = 0) -> ShareUpload:
    return ShareUpload(
        meta=ShareMeta(
            fingerprint=fingerprint(data, "client"),
            share_size=len(data),
            secret_seq=seq,
            secret_size=len(data),
        ),
        data=data,
    )


class TestIntraUserDedup:
    def test_unknown_shares_not_duplicates(self):
        server = make_server()
        fps = [fingerprint(b"a", "client"), fingerprint(b"b", "client")]
        assert server.query_duplicates("alice", fps) == [False, False]

    def test_uploaded_share_becomes_known(self):
        server = make_server()
        upload = upload_of(b"share-data" * 50)
        server.upload_shares("alice", [upload])
        assert server.query_duplicates("alice", [upload.meta.fingerprint]) == [True]

    def test_dedup_state_is_per_user(self):
        """Side-channel defence: bob's query must not reflect alice's data."""
        server = make_server()
        upload = upload_of(b"alice-owned" * 30)
        server.upload_shares("alice", [upload])
        assert server.query_duplicates("bob", [upload.meta.fingerprint]) == [False]


class TestInterUserDedup:
    def test_same_share_stored_once(self):
        server = make_server()
        data = b"common-bytes" * 100
        server.upload_shares("alice", [upload_of(data)])
        stored_after_alice = server.stats.physical_shares
        server.upload_shares("bob", [upload_of(data)])
        assert server.stats.physical_shares == stored_after_alice
        assert server.stats.transferred_shares == 2 * len(data)
        assert server.stats.shares_stored == 1

    def test_server_recomputes_fingerprints(self):
        """A forged client fingerprint cannot alias another share."""
        server = make_server()
        data_a, data_b = b"a" * 100, b"b" * 100
        # bob claims data_b carries data_a's client fingerprint
        forged = ShareUpload(
            meta=ShareMeta(fingerprint(data_a, "client"), 100, 0, 100), data=data_b
        )
        server.upload_shares("bob", [forged])
        # Both contents must be distinguishable server-side: storing the
        # real data_a later still stores new bytes.
        server.upload_shares("alice", [upload_of(data_a)])
        assert server.stats.shares_stored == 2

    def test_size_mismatch_rejected(self):
        server = make_server()
        bad = ShareUpload(meta=ShareMeta(b"f" * 32, 10, 0, 10), data=b"not ten!")
        with pytest.raises(ProtocolError):
            server.upload_shares("alice", [bad])


class TestFinalizeAndRestore:
    def _store_file(self, server, user, key, payloads):
        uploads = [upload_of(p, seq=i) for i, p in enumerate(payloads)]
        server.upload_shares(user, uploads)
        manifest = FileManifest(
            lookup_key=key,
            path_share=b"path-share",
            file_size=sum(len(p) for p in payloads),
            secret_count=len(payloads),
        )
        server.finalize_file(user, manifest, [u.meta for u in uploads])
        return uploads

    def test_recipe_roundtrip(self):
        server = make_server()
        payloads = [b"one" * 40, b"two" * 40, b"three" * 40]
        self._store_file(server, "alice", b"key1", payloads)
        recipe = server.get_recipe("alice", b"key1")
        assert len(recipe) == 3
        shares = server.fetch_shares([e.fingerprint for e in recipe])
        assert [shares[e.fingerprint] for e in recipe] == payloads

    def test_file_entry_fields(self):
        server = make_server()
        self._store_file(server, "alice", b"key1", [b"data" * 30])
        entry = server.get_file_entry("alice", b"key1")
        assert entry.file_size == 120
        assert entry.secret_count == 1
        assert entry.path_share == b"path-share"

    def test_authorisation_by_user(self):
        server = make_server()
        self._store_file(server, "alice", b"key1", [b"private" * 20])
        with pytest.raises(NotFoundError):
            server.get_file_entry("bob", b"key1")

    def test_finalize_without_upload_raises(self):
        server = make_server()
        manifest = FileManifest(b"k", b"p", 10, 1)
        meta = ShareMeta(b"f" * 32, 10, 0, 10)
        with pytest.raises(ProtocolError):
            server.finalize_file("alice", manifest, [meta])

    def test_fetch_unknown_share_raises(self):
        server = make_server()
        with pytest.raises(NotFoundError):
            server.fetch_shares([b"f" * 32])

    def test_refcounts_accumulate_per_reference(self):
        server = make_server()
        data = b"shared-chunk" * 30
        uploads = [upload_of(data, seq=0)]
        server.upload_shares("alice", uploads)
        # File references the same share twice (duplicate secrets in file).
        metas = [
            ShareMeta(uploads[0].meta.fingerprint, len(data), 0, len(data)),
            ShareMeta(uploads[0].meta.fingerprint, len(data), 1, len(data)),
        ]
        manifest = FileManifest(b"k", b"p", 2 * len(data), 2)
        server.finalize_file("alice", manifest, metas)
        recipe = server.get_recipe("alice", b"k")
        assert recipe[0].fingerprint == recipe[1].fingerprint


class TestAvailability:
    def test_operations_fail_when_cloud_down(self):
        server = make_server()
        server.cloud.fail()
        with pytest.raises(CloudUnavailableError):
            server.query_duplicates("alice", [b"f" * 32])
        with pytest.raises(CloudUnavailableError):
            server.upload_shares("alice", [upload_of(b"x" * 10)])
        with pytest.raises(CloudUnavailableError):
            server.get_file_entry("alice", b"k")


class TestDeletionAndGC:
    def test_delete_file_orphans_shares(self):
        server = make_server()
        uploads = [upload_of(b"doomed" * 50, seq=0)]
        server.upload_shares("alice", uploads)
        manifest = FileManifest(b"k", b"p", 300, 1)
        server.finalize_file("alice", manifest, [u.meta for u in uploads])
        orphaned = server.delete_file("alice", b"k")
        assert orphaned == 1
        with pytest.raises(NotFoundError):
            server.get_file_entry("alice", b"k")

    def test_shared_share_survives_one_users_delete(self):
        server = make_server()
        data = b"shared" * 50
        for user in ("alice", "bob"):
            uploads = [upload_of(data, seq=0)]
            server.upload_shares(user, uploads)
            manifest = FileManifest(b"k-" + user.encode(), b"p", 300, 1)
            server.finalize_file(user, manifest, [u.meta for u in uploads])
        assert server.delete_file("alice", b"k-alice") == 0  # bob still owns it
        recipe = server.get_recipe("bob", b"k-bob")
        assert server.fetch_shares([recipe[0].fingerprint])

    def test_gc_reclaims_orphaned_bytes(self):
        server = make_server()
        keep = upload_of(b"keep" * 100, seq=0)
        drop = upload_of(b"drop" * 100, seq=0)
        server.upload_shares("alice", [keep, drop])
        manifest = FileManifest(b"keeper", b"p", 400, 1)
        server.finalize_file("alice", manifest, [keep.meta])
        server.flush()
        freed = server.collect_garbage()
        assert freed >= 400
        # Kept file still restorable after container rewrite.
        recipe = server.get_recipe("alice", b"keeper")
        shares = server.fetch_shares([recipe[0].fingerprint])
        assert shares[recipe[0].fingerprint] == b"keep" * 100

    def test_gc_with_nothing_to_do(self):
        server = make_server()
        uploads = [upload_of(b"live" * 50, seq=0)]
        server.upload_shares("alice", uploads)
        manifest = FileManifest(b"k", b"p", 200, 1)
        server.finalize_file("alice", manifest, [u.meta for u in uploads])
        server.flush()
        assert server.collect_garbage() == 0


class TestRefcountEquivalence:
    """``finalize_file`` applies one net refcount delta per share; the
    result must equal a plain recount of the live recipes — per share,
    ``ShareEntry.owners``; per tenant, the bytes of distinct owned shares."""

    #: Shares of distinct sizes, so byte totals identify which are owned.
    POOL = [bytes([65 + i]) * (90 + 17 * i) for i in range(6)]
    USERS = ("alice", "bob")

    @classmethod
    def make(cls, quota=None) -> CDStoreServer:
        from repro.tenants import TenantQuota, TenantRecord, TenantRegistry

        records = [
            TenantRecord(user, b"secret", quota=quota or TenantQuota())
            for user in cls.USERS
        ]
        cloud = CloudProvider("test", Link(100.0), Link(100.0))
        return CDStoreServer(
            server_id=0, cloud=cloud, tenants=TenantRegistry(records)
        )

    @classmethod
    def backup(cls, server, user, path, recipe, upload=True):
        """Upload the recipe's distinct shares, then finalize ``path``."""
        if upload:
            distinct = sorted(set(recipe))
            server.upload_shares(
                user, [upload_of(cls.POOL[i], seq=n) for n, i in enumerate(distinct)]
            )
        metas = [
            ShareMeta(
                fingerprint(cls.POOL[i], "client"),
                len(cls.POOL[i]),
                seq,
                len(cls.POOL[i]),
            )
            for seq, i in enumerate(recipe)
        ]
        manifest = FileManifest(
            path, b"p", sum(len(cls.POOL[i]) for i in recipe), len(recipe)
        )
        server.finalize_file(user, manifest, metas)

    @classmethod
    def assert_matches(cls, server, live):
        """``live``: ``{(user, path): [pool index, ...]}``."""
        from collections import Counter

        from repro.server.index import PREFIX_SHARE, ShareEntry

        owners: dict[bytes, Counter] = {}
        for (user, _), recipe in live.items():
            for i in recipe:
                fp = fingerprint(cls.POOL[i], "server")
                owners.setdefault(fp, Counter())[user] += 1
        stored = {
            key[len(PREFIX_SHARE):]: ShareEntry.unpack(blob).owners
            for key, blob in server.index.items(PREFIX_SHARE)
        }
        for fp, counts in owners.items():
            assert stored[fp] == dict(counts)
        for fp, held in stored.items():
            if fp not in owners:
                assert held == {}
        for user in cls.USERS:
            distinct = {i for (u, _), recipe in live.items() if u == user for i in recipe}
            want = sum(len(cls.POOL[i]) for i in distinct)
            assert server.tenant_usage(user).bytes_stored == want
        for (user, path), recipe in live.items():
            got = [e.fingerprint for e in server.get_recipe(user, path)]
            assert got == [fingerprint(cls.POOL[i], "server") for i in recipe]

    _recipes = st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=6)
    _steps = st.lists(
        st.one_of(
            st.tuples(
                st.just("backup"),
                st.sampled_from(USERS),
                st.sampled_from([b"f1", b"f2"]),
                _recipes,
            ),
            st.tuples(
                st.just("delete"), st.sampled_from(USERS), st.sampled_from([b"f1", b"f2"])
            ),
            st.tuples(st.just("gc")),
        ),
        max_size=12,
    )

    @settings(max_examples=60, deadline=None)
    @given(_steps)
    def test_refcounts_equal_a_recount_after_every_step(self, steps):
        server = self.make()
        live: dict[tuple[str, bytes], list[int]] = {}
        for step in steps:
            if step[0] == "backup":
                _, user, path, recipe = step
                self.backup(server, user, path, recipe)
                live[(user, path)] = recipe
            elif step[0] == "delete":
                _, user, path = step
                if (user, path) not in live:
                    continue
                server.delete_file(user, path)
                del live[(user, path)]
            else:
                server.collect_garbage()
            self.assert_matches(server, live)

    def test_overwrite_repeating_a_fingerprint(self):
        server = self.make()
        self.backup(server, "alice", b"f", [0, 1, 1, 2])
        self.backup(server, "alice", b"f", [1, 1, 1, 3, 0, 0])
        self.assert_matches(server, {("alice", b"f"): [1, 1, 1, 3, 0, 0]})
        self.backup(server, "alice", b"f", [3])
        self.assert_matches(server, {("alice", b"f"): [3]})

    def test_overwrite_skips_an_old_share_whose_entry_is_missing(self):
        from repro.server.index import PREFIX_SHARE

        server = self.make()
        self.backup(server, "alice", b"f", [0, 1])
        gone = fingerprint(self.POOL[1], "server")
        with server._lock:
            server.index.delete(PREFIX_SHARE + gone)
        self.backup(server, "alice", b"f", [0, 2])
        assert server._get_share_entry(gone) is None
        kept = server._get_share_entry(fingerprint(self.POOL[0], "server"))
        added = server._get_share_entry(fingerprint(self.POOL[2], "server"))
        assert kept.owners == {"alice": 1}
        assert added.owners == {"alice": 1}
        # The vanished share cannot be released, so its charge stays.
        sizes = sum(len(self.POOL[i]) for i in (0, 1, 2))
        assert server.tenant_usage("alice").bytes_stored == sizes

    def test_overwrite_of_an_unreadable_old_recipe(self):
        server = self.make()
        self.backup(server, "alice", b"f", [0, 1])
        server.flush()
        recipe_cid = server.get_file_entry("alice", b"f").recipe_ref.container_id
        server.cloud.backend.delete_object(recipe_cid)
        server.containers._cache.clear()
        server.containers._footers.clear()
        self.backup(server, "alice", b"f", [1, 2])
        # Nothing of the old recipe can be released: its refs leak (never
        # a double release), the new recipe's refs are added.
        owners = {
            i: server._get_share_entry(fingerprint(self.POOL[i], "server")).owners
            for i in (0, 1, 2)
        }
        assert owners == {0: {"alice": 1}, 1: {"alice": 2}, 2: {"alice": 1}}
        sizes = sum(len(self.POOL[i]) for i in (0, 1, 2))
        assert server.tenant_usage("alice").bytes_stored == sizes
        got = [e.fingerprint for e in server.get_recipe("alice", b"f")]
        assert got == [fingerprint(self.POOL[i], "server") for i in (1, 2)]

    def test_a_failed_recipe_write_releases_nothing(self, monkeypatch):
        """The recipe append is finalize's last call that can fail: when
        its upload fails, the surviving old file keeps every reference,
        and GC afterwards keeps all of its shares."""
        from repro.errors import StorageError
        from repro.storage import container as container_mod

        server = self.make()
        self.backup(server, "alice", b"f", [0, 1])
        server.flush()
        server.upload_shares("alice", [upload_of(self.POOL[2], seq=0)])
        before = list(server.index.items())

        def failing_put(*args, **kwargs):
            raise StorageError("cloud write failed")

        # A cap of one byte sends the recipe down the solo path, which
        # seals (uploads) it inside the append.
        monkeypatch.setattr(container_mod, "CONTAINER_CAP", 1)
        monkeypatch.setattr(server.cloud.backend, "put_object", failing_put)
        with pytest.raises(StorageError):
            self.backup(server, "alice", b"f", [0, 2], upload=False)
        monkeypatch.undo()
        assert list(server.index.items()) == before
        self.assert_matches(server, {("alice", b"f"): [0, 1]})
        server.collect_garbage()
        old = [fingerprint(self.POOL[i], "server") for i in (0, 1)]
        assert server.fetch_shares(old) == dict(zip(old, self.POOL[:2]))

    def test_release_clamps_before_the_charge(self):
        """A tenant registered after its first backup was never charged
        for it; the overwrite's release clamps at zero *before* the new
        shares are charged, so they are not netted against it."""
        from repro.tenants import TenantRecord, TenantRegistry

        registry = TenantRegistry([TenantRecord("bob", b"secret")])
        cloud = CloudProvider("test", Link(100.0), Link(100.0))
        server = CDStoreServer(server_id=0, cloud=cloud, tenants=registry)
        self.backup(server, "alice", b"f", [0, 1])
        registry.add(TenantRecord("alice", b"secret"))
        self.backup(server, "alice", b"f", [0, 2])
        assert server.tenant_usage("alice").bytes_stored == len(self.POOL[2])

    def test_quota_rejected_finalize_leaves_the_index_untouched(self):
        from repro.errors import QuotaExceededError
        from repro.tenants import TenantQuota

        server = self.make(quota=TenantQuota(max_bytes=len(self.POOL[5]) + 50))
        # Alice's intra-user index still maps share 5 after the delete, so
        # a later recipe can name it without uploading (pending stays 0).
        self.backup(server, "alice", b"old", [5])
        server.delete_file("alice", b"old")
        self.backup(server, "alice", b"f", [0])
        before = list(server.index.items())
        usage = server.tenant_usage("alice")
        with pytest.raises(QuotaExceededError):
            self.backup(server, "alice", b"f", [0, 5], upload=False)
        assert list(server.index.items()) == before
        assert server.tenant_usage("alice") == usage
        self.assert_matches(server, {("alice", b"f"): [0]})


class TestLSMBackedIndex:
    def test_server_on_lsm_index(self, tmp_path):
        server = make_server(index=LSMIndex(tmp_path / "idx"))
        uploads = [upload_of(b"durable" * 40, seq=0)]
        server.upload_shares("alice", uploads)
        manifest = FileManifest(b"k", b"p", 280, 1)
        server.finalize_file("alice", manifest, [u.meta for u in uploads])
        recipe = server.get_recipe("alice", b"k")
        shares = server.fetch_shares([recipe[0].fingerprint])
        assert shares[recipe[0].fingerprint] == b"durable" * 40
        server.index.close()

    def test_dict_index_items_prefix(self):
        index = DictIndex()
        index.put(b"a1", b"x")
        index.put(b"b1", b"y")
        assert dict(index.items(b"a")) == {b"a1": b"x"}
        index.delete(b"a1")
        assert dict(index.items()) == {b"b1": b"y"}


class CountingIndex(DictIndex):
    """A DictIndex that counts share-index gets."""

    def __init__(self) -> None:
        super().__init__()
        self.share_gets: list[bytes] = []

    def get(self, key):
        if key.startswith(b"s"):
            self.share_gets.append(key[1:])
        return super().get(key)


class TestFetchBatches:
    """``iter_share_batches``: a batch is resolved and read as a unit,
    under one lock hold, and the lock is never held across a yield."""

    SHARE = 500

    def _server_with_file(self, monkeypatch, index=None, shares=24, doomed=0):
        """A server holding ``key1`` (``shares`` shares, ~4 per container)
        and, in the containers right behind it, ``key2`` (``doomed``)."""
        import repro.storage.container as container_mod

        monkeypatch.setattr(container_mod, "CONTAINER_CAP", 2048)
        server = make_server(index)
        store = TestFinalizeAndRestore()._store_file
        payloads = [bytes([i]) * self.SHARE for i in range(shares)]
        uploads = store(server, "alice", b"key1", payloads)
        if doomed:
            store(server, "alice", b"key2",
                  [bytes([0x80 + i]) * self.SHARE for i in range(doomed)])
        server.flush()
        fps = [fingerprint(u.data, "server") for u in uploads]
        return server, fps, dict(zip(fps, payloads))

    def test_one_index_get_per_share_even_when_batches_are_cut(self, monkeypatch):
        index = CountingIndex()
        server, fps, stored = self._server_with_file(monkeypatch, index=index)
        index.share_gets.clear()
        batches = list(server.iter_share_batches(fps, budget_bytes=3 * self.SHARE))
        assert len(batches) == 8
        assert sorted(index.share_gets) == sorted(fps)  # each exactly once
        assert dict(pair for batch in batches for pair in batch) == stored

    def test_duplicates_across_many_containers_served_once_within_budget(
        self, monkeypatch
    ):
        server, fps, stored = self._server_with_file(monkeypatch)
        containers = {
            server._get_share_entry(fp).ref.container_id for fp in fps
        }
        assert len(containers) >= 3
        request = fps[::-1] + fps[5:9] + [fps[0]] * 3

        def cost(fp, share_size):
            return share_size + 21

        budget = 4 * (self.SHARE + 21) + 7
        batches = list(server.iter_share_batches(request, budget_bytes=budget, cost=cost))
        served = [fp for batch in batches for fp, _ in batch]
        assert served == fps[::-1]  # request order, every share once
        for batch in batches:
            assert sum(cost(fp, len(data)) for fp, data in batch) <= budget
            assert all(stored[fp] == data for fp, data in batch)
        assert [len(batch) for batch in batches] == [4] * 6
        assert server.fetch_shares(request) == stored

    def test_oversized_share_gets_a_batch_of_its_own(self, monkeypatch):
        server, fps, stored = self._server_with_file(monkeypatch, shares=5)
        batches = list(server.iter_share_batches(fps, budget_bytes=self.SHARE - 1))
        assert [len(batch) for batch in batches] == [1] * 5
        assert list(server.iter_share_batches([])) == []
        with pytest.raises(ProtocolError):
            list(server.iter_share_batches(fps, budget_bytes=0))

    def test_lock_is_free_while_suspended_at_a_yield(self, monkeypatch):
        import threading

        server, fps, _ = self._server_with_file(monkeypatch)
        batches = server.iter_share_batches(fps, budget_bytes=2 * self.SHARE)
        next(batches)
        acquired = []

        def other_tenant():
            got = server._lock.acquire(timeout=5)
            acquired.append(got)
            if got:
                server._lock.release()

        thread = threading.Thread(target=other_tenant)
        thread.start()
        thread.join()
        assert acquired == [True]
        assert sum(len(batch) for batch in batches) == len(fps) - 2

    def test_share_moved_between_batches_is_still_served(self, monkeypatch):
        """GC and scrub repair move shares to fresh containers (and GC
        deletes the old ones); a suspended fetch resolves each batch in
        the same lock hold that reads it, so it follows them."""
        server, fps, stored = self._server_with_file(monkeypatch, shares=22, doomed=10)
        batches = server.iter_share_batches(fps, budget_bytes=5 * self.SHARE)
        got = dict(next(batches))
        before = {fp: server._get_share_entry(fp).ref for fp in fps}
        # key1's last container also holds shares of key2: deleting key2
        # makes GC rewrite it, moving key1's tail and deleting the original.
        server.delete_file("alice", b"key2")
        assert server.collect_garbage() > 0
        server.replace_share(fps[10], stored[fps[10]])  # a scrub repair
        moved = [
            fp for fp in fps if server._get_share_entry(fp).ref != before[fp]
        ]
        assert fps[10] in moved and fps[-1] in moved and not set(moved) & set(got)
        assert not server.cloud.backend.exists(before[fps[-1]].container_id)
        for batch in batches:
            got.update(batch)
        assert got == stored

    def test_ownership_revoked_between_batches_reads_as_unknown(self, monkeypatch):
        server, fps, _ = self._server_with_file(monkeypatch)
        with pytest.raises(NotFoundError) as unknown:
            server.fetch_shares([b"\x07" * 32], owner="alice")
        batches = server.iter_share_batches(
            fps, budget_bytes=4 * self.SHARE, owner="alice"
        )
        assert len(next(batches)) == 4
        server.delete_file("alice", b"key1")  # drops alice's references
        with pytest.raises(NotFoundError) as revoked:
            next(batches)

        def shape(exc):
            return str(exc.value).split("…")[1]

        assert shape(revoked) == shape(unknown)
        # A foreign tenant is told exactly the same, before and after.
        with pytest.raises(NotFoundError) as foreign:
            server.fetch_shares(fps[:1], owner="bob")
        assert shape(foreign) == shape(unknown)

    def test_cloud_failing_between_batches_stops_the_fetch(self, monkeypatch):
        server, fps, _ = self._server_with_file(monkeypatch)
        batches = server.iter_share_batches(fps, budget_bytes=4 * self.SHARE)
        next(batches)
        server.cloud.fail()
        with pytest.raises(CloudUnavailableError):
            next(batches)
        with pytest.raises(CloudUnavailableError):
            server.fetch_shares(fps)
        with pytest.raises(CloudUnavailableError):
            server.fetch_shares([])

    def test_entry_pointing_at_another_shares_bytes_is_not_found(self, monkeypatch):
        """Stored key == requested fingerprint: an index entry whose ref
        leads to some other share must never be served under this name."""
        server, fps, _ = self._server_with_file(monkeypatch)
        wrong = server._get_share_entry(fps[0])
        wrong.ref = server._get_share_entry(fps[1]).ref
        server.index.put(b"s" + fps[0], wrong.pack())
        with pytest.raises(NotFoundError, match="missing from container"):
            server.fetch_shares(fps[:3])
        dangling = server._get_share_entry(fps[2])
        dangling.ref = type(dangling.ref)("container-0000009999", 0)
        server.index.put(b"s" + fps[2], dangling.pack())
        with pytest.raises(NotFoundError):
            server.fetch_shares(fps[2:4])

    def test_payload_size_disagreeing_with_the_index_is_a_storage_error(
        self, monkeypatch
    ):
        from repro.errors import StorageError

        server, fps, _ = self._server_with_file(monkeypatch)
        entry = server._get_share_entry(fps[0])
        entry.share_size -= 1  # the batch is priced on this number
        server.index.put(b"s" + fps[0], entry.pack())
        with pytest.raises(StorageError):
            server.fetch_shares(fps[:2])

    def test_fetch_observes_two_stages_per_batch_and_counts_runs(self, monkeypatch):
        from repro.obs.registry import REGISTRY

        def totals():
            snap = REGISTRY.snapshot()
            stages = snap["histograms"].get("server_fetch_seconds", {})
            runs = snap["counters"].get("server_fetch_read_runs_total", {})
            return (
                stages.get("stage=resolve", {"count": 0})["count"],
                stages.get("stage=read", {"count": 0})["count"],
                sum(runs.values()),
            )

        server, fps, _ = self._server_with_file(monkeypatch)
        server.containers._cache.clear()  # sealed containers read cold
        resolve, read, runs = totals()
        batches = list(server.iter_share_batches(fps, budget_bytes=8 * self.SHARE))
        assert len(batches) == 3
        now = totals()
        assert (now[0] - resolve, now[1] - read) == (3, 3)
        assert now[2] - runs == server.containers.range_reads > 0
