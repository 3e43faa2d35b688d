"""Crash-only serving: boot-time recovery, and the kill -9 e2e.

The contract under test (README "Crash recovery"): nothing is acked on
the wire before the shares *and* the index mutations behind it are on
stable storage, kill -9 is the only shutdown, and every startup is a
recovery pass — reap temporaries, replay the container journal, drop
index entries whose containers never became durable.

The end-to-end test runs all four clouds of a real deployment in a
child process (`build_cloud_server`, the same path `repro serve` uses),
SIGKILLs it mid-backup, restarts the clouds in-process and proves that
everything acked before the kill restores byte-identically — and that a
second tenant's data is untouched and unreadable with the first
tenant's credentials.

The local-root tests hold every other command to the same contract: a
`repro backup` that opens the root itself (``from_config(root=…)``)
runs the same crash-only servers, so its death loses nothing acked and
leaves nothing unacked behind; and a root is opened by one process at a
time.
"""

from __future__ import annotations

import hashlib
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import build_cloud_server, main
from repro.config import ReproConfig
from repro.crypto.hashing import fingerprint
from repro.errors import AuthError, NotFoundError, StorageError
from repro.net.client import RemoteServerProxy
from repro.server.index import (
    PREFIX_FILE,
    PREFIX_INTRA,
    PREFIX_SHARE,
    FileEntry,
    ShareEntry,
)
from repro.server.messages import FileManifest, ShareMeta, ShareUpload
from repro.storage.container import ContainerRef
from repro.system.cdstore import CDStoreSystem
from repro.tenants import (
    ROLE_ADMIN,
    Credentials,
    TenantRecord,
    TenantRegistry,
)

REPO_SRC = Path(__file__).parent.parent / "src"

SECRETS = {"alice": b"alice-secret", "bob": b"bob-secret", "ops": b"ops-secret"}


def init_deployment(root: Path, n: int = 2, k: int = 1) -> Path:
    assert main(["init", "--root", str(root), "--n", str(n), "--k", str(k),
                 "--salt", "e2e"]) == 0
    return root


def make_upload(data: bytes) -> ShareUpload:
    meta = ShareMeta(
        fingerprint=hashlib.sha256(b"client:" + data).digest(),
        share_size=len(data),
        secret_seq=0,
        secret_size=len(data),
    )
    return ShareUpload(meta=meta, data=data)


# ---------------------------------------------------------------------------
# boot-time recovery, unit level
# ---------------------------------------------------------------------------


class TestBootRecovery:
    def test_first_boot_is_a_clean_recovery(self, tmp_path):
        root = init_deployment(tmp_path / "srv")
        tcp = build_cloud_server(root, 0)
        try:
            report = tcp.server.last_recovery
            assert report is not None and report.clean
        finally:
            tcp.server.close()

    def test_acked_state_survives_reopen_without_close(self, tmp_path):
        """An upload+finalize whose calls returned (= were acked) is
        readable after reopening the store with no graceful shutdown —
        durability came from the per-batch group commit, not close()."""
        root = init_deployment(tmp_path / "srv")
        data = os.urandom(5000)
        upload = make_upload(data)
        server = build_cloud_server(root, 0).server
        server.upload_shares("u", [upload])
        server.finalize_file(
            "u",
            FileManifest(b"name", b"", len(data), 1),
            [upload.meta],
        )
        # No flush(), no graceful anything: just drop the handles the way
        # a dead process would (the journal + WAL are already fsynced).
        server.close()

        reopened = build_cloud_server(root, 0).server
        try:
            report = reopened.last_recovery
            assert report is not None
            assert report.dangling_share_entries == 0
            assert report.dangling_file_entries == 0
            fp = fingerprint(data, domain="server")
            assert reopened.fetch_shares([fp]) == {fp: data}
            assert reopened.get_file_entry("u", b"name").file_size == len(data)
        finally:
            reopened.close()

    def test_dangling_index_entries_are_dropped(self, tmp_path):
        """Index entries pointing at containers that never became durable
        (unacked leftovers) are reaped on boot, in every index family."""
        root = init_deployment(tmp_path / "srv")
        server = build_cloud_server(root, 0).server
        gone = ContainerRef(container_id="zz-never-durable", entry_index=0)
        with server._lock:
            server.index.put(
                PREFIX_SHARE + b"\x07" * 32,
                ShareEntry(ref=gone, share_size=10).pack(),
            )
            server.index.put(
                PREFIX_FILE + b"u\x00lost",
                FileEntry(gone, b"", 10, 1).pack(),
            )
            # Intra mapping whose share entry does not exist.
            server.index.put(PREFIX_INTRA + b"u\x00" + b"\x08" * 32, b"\x07" * 32)
            server.index.sync()
        server.close()

        reopened = build_cloud_server(root, 0).server
        try:
            report = reopened.last_recovery
            assert report is not None
            assert report.dangling_share_entries == 1
            assert report.dangling_file_entries == 1
            assert report.dangling_intra_mappings == 1
            assert reopened.index.get(PREFIX_SHARE + b"\x07" * 32) is None
            with pytest.raises(NotFoundError):
                reopened.get_file_entry("u", b"lost")
        finally:
            reopened.close()

    def test_half_written_temporaries_are_reaped(self, tmp_path):
        root = init_deployment(tmp_path / "srv")
        junk = root / "cloud-0" / "half-written.tmp"
        junk.write_bytes(b"torn")
        server = build_cloud_server(root, 0).server
        try:
            report = server.last_recovery
            assert report is not None
            assert report.reaped_temporaries == ["half-written.tmp"]
            assert not junk.exists()
        finally:
            server.close()


# ---------------------------------------------------------------------------
# death inside a request (fork + os._exit: deterministic, no signals)
# ---------------------------------------------------------------------------

DIED_IN_REQUEST = 17


def die_in_request() -> None:
    os._exit(DIED_IN_REQUEST)


def run_in_child(body) -> int:
    """Run ``body`` in a forked child and return its exit code.

    ``body`` ends by calling :func:`die_in_request` from inside a server
    call: ``os._exit`` skips every buffer flush and ``finally``, which is
    what kill -9 does to a process.
    """
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child never returns
        try:
            body()
        finally:
            os._exit(1)
    # A child wedged on a lock some other thread held at fork time must
    # fail the test, not hang it.
    pidfd = os.pidfd_open(pid)
    try:
        exited, _, _ = select.select([pidfd], [], [], 120)
    finally:
        os.close(pidfd)
    if not exited:
        os.kill(pid, signal.SIGKILL)
    _, status = os.waitpid(pid, 0)
    assert exited, "forked request never finished"
    return os.waitstatus_to_exitcode(status)


def recount_owners(server) -> dict[bytes, dict[str, int]]:
    """Per-share owner counts recomputed from the live recipes."""
    counts: dict[bytes, dict[str, int]] = {}
    for user, lookup_key in server.list_backups():
        for entry in server.get_recipe(user, lookup_key):
            owners = counts.setdefault(entry.fingerprint, {})
            owners[user] = owners.get(user, 0) + 1
    return counts


class TestKilledInsideARequest:
    def test_unacked_shares_in_an_acked_open_container_are_forgotten(self, tmp_path):
        """An acked batch and an unacked one share an open container; the
        process dies before the second batch's journal commit.  None of
        its index records may survive: they would name container entries
        the journal never recorded."""
        root = init_deployment(tmp_path / "srv")
        acked = [make_upload(os.urandom(3000)) for _ in range(2)]
        unacked = [make_upload(os.urandom(500)) for _ in range(3)]

        def body():
            server = build_cloud_server(root, 0).server
            server.upload_shares("u", acked)
            server.containers.commit = die_in_request
            server.upload_shares("u", unacked)

        assert run_in_child(body) == DIED_IN_REQUEST
        server = build_cloud_server(root, 0).server
        try:
            fps = [upload.meta.fingerprint for upload in acked + unacked]
            assert server.query_duplicates("u", fps) == [True, True, False, False, False]
            assert server.scrub() == []
            for upload in acked:
                fp = fingerprint(upload.data, domain="server")
                assert server.fetch_shares([fp]) == {fp: upload.data}
        finally:
            server.close()

    def test_a_journal_write_cut_short_loses_no_later_acked_share(
        self, tmp_path, file_size_limit
    ):
        """The journal commit of a 20 000-byte share dies on a real EFBIG
        partway through its write (unacked); the next batch commits and
        is acked; then the process dies.  Every acked share restores: a
        torn record left in the journal would end replay before the acked
        one behind it."""
        root = init_deployment(tmp_path / "srv")
        first, big, after = (make_upload(os.urandom(size)) for size in (3000, 20_000, 3000))

        def body():
            server = build_cloud_server(root, 0).server
            server.upload_shares("u", [first])
            journal = server.containers.journal.path
            with file_size_limit(journal.stat().st_size + 10_000):
                with pytest.raises(OSError):
                    server.upload_shares("u", [big])
            server.upload_shares("u", [after])
            die_in_request()  # acked, never flushed

        assert run_in_child(body) == DIED_IN_REQUEST
        server = build_cloud_server(root, 0).server
        try:
            for upload in (first, after):
                fp = fingerprint(upload.data, domain="server")
                assert server.fetch_shares([fp]) == {fp: upload.data}
            assert server.scrub() == []
        finally:
            server.close()

    def test_death_inside_an_overwrite_keeps_the_acked_version(self, tmp_path):
        """v1 is acked; the process dies inside v2's finalize_file, after
        every index mutation and before the commit.  v1 must restore
        byte-identically and every refcount must equal a recount."""
        from repro.client.client import CDStoreClient

        root = init_deployment(tmp_path / "srv")
        v1 = os.urandom(40_000)
        v2 = v1[:20_000] + os.urandom(4_000) + v1[24_000:]

        def client_over(servers) -> CDStoreClient:
            return CDStoreClient("u", servers, k=1, salt=b"e2e", chunker="fixed")

        def body():
            servers = [build_cloud_server(root, i).server for i in range(2)]
            client = client_over(servers)
            client.upload("/f", v1)
            for server in servers:
                finalize = server.finalize_file

                def dying_finalize(*args, _server=server, _finalize=finalize):
                    _server.containers.commit = die_in_request
                    return _finalize(*args)

                server.finalize_file = dying_finalize
            client.upload("/f", v2)

        assert run_in_child(body) == DIED_IN_REQUEST
        servers = [build_cloud_server(root, i).server for i in range(2)]
        try:
            assert client_over(servers).download("/f") == v1
            for server in servers:
                recount = recount_owners(server)
                for key, blob in server.index.items(PREFIX_SHARE):
                    fp = key[len(PREFIX_SHARE):]
                    assert ShareEntry.unpack(blob).owners == recount.get(fp, {})
                assert server.scrub() == []
        finally:
            for server in servers:
                server.close()


# ---------------------------------------------------------------------------
# death of a process that opened the root itself (repro backup, restore, ...)
# ---------------------------------------------------------------------------


def open_local(root: Path) -> CDStoreSystem:
    """The system a local ``repro backup`` builds over ``root``."""
    return CDStoreSystem.from_config(ReproConfig.from_file(root), root=root)


def run_cli(capsys, *argv) -> tuple[int, str]:
    capsys.readouterr()
    code = main([str(arg) for arg in argv])
    return code, capsys.readouterr().out


class TestLocalRootDeath:
    @pytest.fixture
    def small_batches(self, monkeypatch):
        import repro.client.comm as comm

        # Several upload requests per cloud for a few hundred KB.
        monkeypatch.setattr(comm, "UPLOAD_BATCH_BYTES", 32 * 1024)

    def test_backup_killed_before_its_flush_restores(self, tmp_path, small_batches, capsys):
        """The upload returned — every request acked — and the process
        died before sealing its containers.  The acked file is listed,
        restores byte-identically, and the root is self-consistent."""
        root = init_deployment(tmp_path / "srv", n=4, k=3)
        data = os.urandom(300_000)

        def body():
            open_local(root).client("alice").upload("/big", data)
            die_in_request()  # where `repro backup` would flush and close

        assert run_in_child(body) == DIED_IN_REQUEST
        code, out = run_cli(capsys, "ls", "--root", root, "--user", "alice")
        assert code == 0 and "/big" in out.split()
        restored = tmp_path / "restored.bin"
        code, _ = run_cli(capsys, "restore", "--root", root, "--user", "alice",
                          "/big", "-o", restored)
        assert code == 0 and restored.read_bytes() == data
        servers = [build_cloud_server(root, i).server for i in range(4)]
        try:
            for server in servers:
                assert server.scrub() == []
                second = server.recover()
                assert second.dangling_share_entries == 0
                assert second.dangling_file_entries == 0
                assert second.dangling_intra_mappings == 0
                assert second.reaped_temporaries == []
        finally:
            for server in servers:
                server.close()

    def test_backup_killed_inside_a_request_leaves_no_unacked_trace(
        self, tmp_path, small_batches, capsys
    ):
        """The process dies inside an upload request after at least one
        acked batch.  Nothing unacked is listed or answers *duplicate*,
        so the next backup of the same file sends what was lost."""
        root = init_deployment(tmp_path / "srv", n=4, k=3)
        source = tmp_path / "big.bin"
        source.write_bytes(os.urandom(300_000))
        unacked_file = tmp_path / "unacked.fps"

        def body():
            system = open_local(root)
            server = system.servers[0]
            upload = server.upload_shares
            acked: list[bytes] = []

            def dies_in_the_second_request(user_id, uploads):
                if acked:
                    unacked_file.write_bytes(
                        b"".join(u.meta.fingerprint for u in uploads)
                    )
                    server.containers.commit = die_in_request
                result = upload(user_id, uploads)
                acked.extend(u.meta.fingerprint for u in uploads)
                return result

            server.upload_shares = dies_in_the_second_request
            system.client("alice").upload("/big", source.read_bytes())
            die_in_request()

        assert run_in_child(body) == DIED_IN_REQUEST
        code, out = run_cli(capsys, "ls", "--root", root, "--user", "alice")
        assert code == 0 and "/big" not in out.split()
        unacked = unacked_file.read_bytes()
        fps = [unacked[i:i + 32] for i in range(0, len(unacked), 32)]
        assert fps
        server = build_cloud_server(root, 0).server
        try:
            assert server.query_duplicates("alice", fps) == [False] * len(fps)
            assert server.scrub() == []
        finally:
            server.close()
        code, _ = run_cli(capsys, "backup", "--root", root, "--user", "alice",
                          source, "--name", "/big")
        assert code == 0
        restored = tmp_path / "restored.bin"
        code, _ = run_cli(capsys, "restore", "--root", root, "--user", "alice",
                          "/big", "-o", restored)
        assert code == 0 and restored.read_bytes() == source.read_bytes()


# ---------------------------------------------------------------------------
# garbage collection: commit before delete, and no mapping outlives its share
# ---------------------------------------------------------------------------


class TestCollectGarbage:
    @staticmethod
    def client_over(servers):
        from repro.client.client import CDStoreClient

        return CDStoreClient("u", servers, k=1, salt=b"e2e", chunker="fixed")

    def test_death_inside_the_sweep_loses_nothing_live(self, tmp_path):
        """Two containers each hold live shares and deleted ones, so GC
        re-packs the live shares and deletes both old containers.  The
        process dies right after the first delete: the committed index
        already names the re-packed copies, so nothing dangles, the live
        files restore from the swept cloud alone, and the next pass
        sweeps the old container that survived."""
        root = init_deployment(tmp_path / "srv")
        live = {f"/live{i}": os.urandom(40_000) for i in range(2)}
        servers = [build_cloud_server(root, i).server for i in range(2)]
        client = self.client_over(servers)
        for i, (path, data) in enumerate(live.items()):
            client.upload(path, data)
            client.upload(f"/dead{i}", os.urandom(40_000))
            client.flush()  # one share container per round
        client.delete("/dead0")
        client.delete("/dead1")
        for server in servers:
            server.close()

        def body():
            server = build_cloud_server(root, 0).server
            backend = server.cloud.backend
            delete = backend.delete_object

            def dies_after_the_first_delete(cid):
                delete(cid)
                die_in_request()

            backend.delete_object = dies_after_the_first_delete
            server.collect_garbage()

        assert run_in_child(body) == DIED_IN_REQUEST
        servers = [build_cloud_server(root, i).server for i in range(2)]
        try:
            report = servers[0].last_recovery
            assert report.dangling_share_entries == 0
            assert report.dangling_file_entries == 0
            servers[1].cloud.fail()  # restore from the swept cloud only
            for path, data in live.items():
                assert self.client_over(servers).download(path) == data
            servers[1].cloud.recover()
            assert servers[0].scrub() == []
            assert servers[0].collect_garbage() > 0  # the surviving old container
        finally:
            for server in servers:
                server.close()

    def test_reaped_shares_no_longer_answer_duplicate(self, tmp_path):
        """Back up, delete, collect: the user's intra-user mappings to the
        reaped shares go in the same commit, so the same content is sent
        again rather than finalized against shares that no longer exist."""
        root = init_deployment(tmp_path / "srv")
        data = os.urandom(40_000)
        servers = [build_cloud_server(root, i).server for i in range(2)]
        try:
            client = self.client_over(servers)
            client.upload("/f", data)
            fps = [
                key[len(PREFIX_INTRA) + 2:]
                for key, _ in servers[0].index.items(PREFIX_INTRA + b"u\x00")
            ]
            assert fps
            client.delete("/f")
            for server in servers:
                assert server.collect_garbage() > 0
            assert servers[0].query_duplicates("u", fps) == [False] * len(fps)
            client.upload("/f", data)
            client.flush()
            assert client.download("/f") == data
        finally:
            for server in servers:
                server.close()
        servers = [build_cloud_server(root, i).server for i in range(2)]
        try:
            for server in servers:
                assert server.last_recovery.dangling_intra_mappings == 0
            assert self.client_over(servers).download("/f") == data
        finally:
            for server in servers:
                server.close()


# ---------------------------------------------------------------------------
# one process per root
# ---------------------------------------------------------------------------


def tree_state(root: Path) -> dict[str, tuple[int, bytes]]:
    """Every file under ``root`` with its mtime and contents."""
    return {
        str(path.relative_to(root)): (path.stat().st_mtime_ns, path.read_bytes())
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestOneProcessPerRoot:
    def test_second_open_in_process_fails_until_close(self, tmp_path):
        root = init_deployment(tmp_path / "srv")
        holder = build_cloud_server(root, 0).server
        try:
            with pytest.raises(StorageError, match=str(root)):
                build_cloud_server(root, 0)
            with pytest.raises(StorageError, match=str(root)):
                open_local(root)
            # Another cloud of the same root is another server's state.
            build_cloud_server(root, 1).server.close()
        finally:
            holder.close()
        build_cloud_server(root, 0).server.close()

    def test_cli_against_a_held_root_fails_typed_and_touches_nothing(
        self, tmp_path, capsys
    ):
        root = init_deployment(tmp_path / "srv", n=4, k=3)
        source = tmp_path / "f.bin"
        source.write_bytes(os.urandom(50_000))
        assert main(["backup", "--root", str(root), "--user", "alice", str(source)]) == 0
        holder = build_cloud_server(root, 0).server
        try:
            # The holder's flush in flight: a second opener that opened the
            # index before failing on the lock would reap it.
            (root / "indices" / "server-0" / "sst-99999999.db.tmp").write_bytes(b"flushing")
            before = tree_state(root)
            capsys.readouterr()
            assert main(["ls", "--root", str(root), "--user", "alice"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and str(root) in err
            assert tree_state(root) == before
        finally:
            holder.close()
        assert main(["ls", "--root", str(root), "--user", "alice"]) == 0

    def test_a_failed_open_releases_the_clouds_it_opened(self, tmp_path):
        root = init_deployment(tmp_path / "srv", n=4, k=3)
        holder = build_cloud_server(root, 3).server
        try:
            with pytest.raises(StorageError):
                open_local(root)
            build_cloud_server(root, 0).server.close()
        finally:
            holder.close()

    def test_wiping_a_cloud_releases_its_server(self, tmp_path):
        """``wipe_cloud`` swaps in a fresh server; the one it replaces
        must not keep holding the root's lock."""
        root = init_deployment(tmp_path / "srv")
        with open_local(root) as system:
            system.wipe_cloud(0)
            build_cloud_server(root, 0).server.close()

    def test_the_lock_dies_with_its_holder(self, tmp_path):
        root = init_deployment(tmp_path / "srv")
        ready_r, ready_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child never returns
            try:
                build_cloud_server(root, 0)
                os.write(ready_w, b"held")
                time.sleep(120)
            finally:
                os._exit(1)
        os.close(ready_w)
        try:
            readable, _, _ = select.select([ready_r], [], [], 60)
            assert readable and os.read(ready_r, 4) == b"held"
            with pytest.raises(StorageError):
                build_cloud_server(root, 0)
        finally:
            os.close(ready_r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        build_cloud_server(root, 0).server.close()


# ---------------------------------------------------------------------------
# the kill -9 end-to-end
# ---------------------------------------------------------------------------

_SERVE_ALL = """\
import sys, time
sys.path.insert(0, {src!r})
from repro.cli import build_cloud_server

tcps = [build_cloud_server({root!r}, i).start() for i in range(4)]
for i, tcp in enumerate(tcps):
    print("PORT", i, tcp.address[1], flush=True)
while True:
    time.sleep(1)
"""


def _spawn_clouds(script: Path, root: Path) -> tuple[subprocess.Popen, list[str]]:
    script.write_text(_SERVE_ALL.format(src=str(REPO_SRC), root=str(root)))
    proc = subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    specs = []
    for _ in range(4):
        line = proc.stdout.readline()
        if not line.startswith("PORT"):
            proc.kill()
            raise AssertionError(
                f"serving child failed to come up: {line!r}\n{proc.stderr.read()}"
            )
        _tag, _i, port = line.split()
        specs.append(f"tcp://127.0.0.1:{port}")
    return proc, specs


class TestKillNineEndToEnd:
    def test_kill9_mid_backup_loses_nothing_acked(self, tmp_path, monkeypatch):
        import repro.client.comm as comm

        root = init_deployment(tmp_path / "srv", n=4, k=3)
        TenantRegistry(
            [
                TenantRecord("alice", SECRETS["alice"]),
                TenantRecord("bob", SECRETS["bob"]),
                TenantRecord("ops", SECRETS["ops"], role=ROLE_ADMIN),
            ]
        ).to_file(root / "tenants.json")

        proc, specs = _spawn_clouds(tmp_path / "serve_all.py", root)
        config = ReproConfig(
            n=4, k=3, salt="e2e", chunker="fixed", cloud_specs=specs
        )

        def system_for(tenant: str, cfg: ReproConfig = config) -> CDStoreSystem:
            return CDStoreSystem.from_config(
                cfg, credentials=Credentials(tenant, SECRETS[tenant])
            )

        bob_data = os.urandom(200_000)
        alice_data = os.urandom(300_000)
        big_data = os.urandom(4_000_000)
        failures: list[BaseException] = []
        try:
            # Phase 1: two tenants back up and get their acks.
            with system_for("bob") as system:
                client = system.client("bob")
                client.upload("/bob-file", bob_data)
                client.flush()

            alice_system = system_for("alice")
            alice = alice_system.client("alice")
            alice.upload("/acked", alice_data)
            alice.flush()

            # Phase 2: a big backup is under way — kill -9 the serving
            # process right after its first acked upload batch.
            monkeypatch.setattr(comm, "UPLOAD_BATCH_BYTES", 32 * 1024)
            first_ack = threading.Event()
            orig_upload = RemoteServerProxy.upload_shares
            orig_upload_async = RemoteServerProxy.upload_shares_async

            def spying_upload(self, user_id, uploads):
                result = orig_upload(self, user_id, uploads)
                first_ack.set()
                return result

            class SpyAckHandle:
                # The pipelined path acks when the handle resolves, not
                # when the request is sent — that is the durable ack.
                def __init__(self, inner):
                    self._inner = inner

                def result(self):
                    out = self._inner.result()
                    first_ack.set()
                    return out

            def spying_upload_async(self, user_id, uploads):
                return SpyAckHandle(orig_upload_async(self, user_id, uploads))

            monkeypatch.setattr(RemoteServerProxy, "upload_shares", spying_upload)
            monkeypatch.setattr(
                RemoteServerProxy, "upload_shares_async", spying_upload_async
            )

            def doomed_backup():
                try:
                    alice.upload("/big", big_data)
                    alice.flush()
                except BaseException as exc:  # noqa: BLE001 - recorded, asserted on
                    failures.append(exc)

            backup_thread = threading.Thread(target=doomed_backup, daemon=True)
            backup_thread.start()
            assert first_ack.wait(60), "no upload batch was ever acked"
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            backup_thread.join(timeout=120)
            assert not backup_thread.is_alive()
            assert failures, "the kill must land mid-backup, not after it"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            try:
                alice_system.close()
            except BaseException:  # noqa: BLE001 - sockets died with the child
                pass

        # Phase 3: restart every cloud (construction is recovery) and
        # verify the crash-only contract.
        tcps = [build_cloud_server(root, i).start() for i in range(4)]
        try:
            for tcp in tcps:
                assert tcp.server.last_recovery is not None
                # An immediate second pass finds nothing left to repair.
                second = tcp.server.recover()
                assert second.dangling_share_entries == 0
                assert second.dangling_file_entries == 0
                assert second.dangling_intra_mappings == 0
                assert second.reaped_temporaries == []
                # No corruption among the survivors, no torn temp files.
                assert tcp.server.scrub() == []
            assert list(root.rglob("*.tmp")) == []

            new_specs = [
                f"tcp://{tcp.address[0]}:{tcp.address[1]}" for tcp in tcps
            ]
            recovered = config.with_overrides(cloud_specs=new_specs)

            # Everything acked restores byte-identically.
            with system_for("alice", recovered) as system:
                client = system.client("alice")
                assert client.download("/acked") == alice_data
                # The interrupted file was never finalized: it simply
                # does not exist — no partial ghost.
                with pytest.raises(NotFoundError):
                    client.download("/big")

            # The second tenant's data is untouched...
            with system_for("bob", recovered) as system:
                assert system.client("bob").download("/bob-file") == bob_data

            # ...and unreadable with the first tenant's credentials.
            host, port = tcps[0].address
            with RemoteServerProxy(
                f"tcp://{host}:{port}",
                credentials=Credentials("alice", SECRETS["alice"]),
            ) as proxy:
                with pytest.raises(AuthError):
                    proxy.list_files("bob")

            # Durable per-tenant accounting survived the crash too.
            assert tcps[0].server.tenant_usage("alice").bytes_stored > 0
            assert tcps[0].server.tenant_usage("bob").bytes_stored > 0
        finally:
            for tcp in tcps:
                tcp.shutdown()
                tcp.server.close()
