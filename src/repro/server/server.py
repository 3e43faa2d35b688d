"""The CDStore server (§4).

One :class:`CDStoreServer` runs inside each cloud's co-locating VM
(Figure 1).  Responsibilities, each mapping to a module of Figure 4(b):

* **dedup module** — answers intra-user duplicate queries against the
  per-user index, and performs inter-user deduplication on received shares
  by recomputing fingerprints in the *server* domain (§3.3: the server
  "generates a fingerprint from each share (instead of using the one
  generated by the CDStore client)"), so fingerprint replay cannot claim
  ownership of another user's data;
* **index module** — file index, share index and intra-user index on an
  LSM/dict backend (§4.4);
* **container module** — packs unique shares and file recipes into 4 MB
  containers at the cloud backend, with per-user buffers (§4.5); reads
  go through the LSM block cache and the container offset-table cache,
  not a cache of whole containers;
* restore path — fetches recipes and shares for any authorised user.

Extensions beyond the prototype paper (its §4.7 future work): file
deletion with per-user reference counting, and container garbage
collection reclaiming orphaned shares.
"""

from __future__ import annotations

import fcntl
import functools
import os
import struct
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.annotations import guarded_by, requires_lock
from repro.cloud.provider import CloudProvider
from repro.compress import compress_recipe, decompress_recipe
from repro.crypto.hashing import HASH_SIZE, fingerprint
from repro.dedup.stats import DedupStats
from repro.errors import (
    NotFoundError,
    ParameterError,
    ProtocolError,
    QuotaExceededError,
    ReproError,
    StaleBaseError,
    StorageError,
)
from repro.server.index import (
    PREFIX_FILE,
    PREFIX_INTRA,
    PREFIX_SHARE,
    PREFIX_TENANT,
    DictIndex,
    FileEntry,
    IndexBackend,
    LSMIndex,
    ShareEntry,
)
from repro.obs.registry import REGISTRY
from repro.server.messages import ZERO_TAG, FileManifest, RecipeEntry, ShareMeta, ShareUpload
from repro.storage.container import (
    KIND_RECIPE,
    KIND_SHARE,
    ContainerManager,
)
from repro.storage.durable import RecordLog
from repro.tenants import TenantRegistry, TenantUsage

__all__ = ["CDStoreServer", "FETCH_BATCH_BYTES", "RecoveryReport"]

#: Default payload budget of one :meth:`CDStoreServer.iter_share_batches`
#: batch (and of one socket reply frame in :mod:`repro.net`).  4 MB — the
#: same unit as the upload batches and the container cap (§4.1/§4.5), so a
#: restore's server-side working set never exceeds one container's worth.
FETCH_BATCH_BYTES = 4 << 20

# Ack-latency decomposition (docs/OBSERVABILITY.md): the crash-only ack
# a client waits on is storage writes + the two group-commit fsyncs, so
# each stage gets its own histogram — "slow acks" become attributable to
# the journal fsync, the index WAL sync, or the container append itself.
_COMMIT_SECONDS = REGISTRY.histogram(
    "server_commit_seconds",
    "Group-commit stage latency, by stage (journal_fsync | index_sync)",
)
_STORAGE_WRITE_SECONDS = REGISTRY.histogram(
    "server_storage_write_seconds",
    "Container append latency for one ingested share",
)
#: One packed :class:`RecipeEntry`: server fingerprint, then secret size.
_RECIPE_ENTRY = struct.Struct(f">{HASH_SIZE}sI")

# Where a slow finalize went: reading the old recipe and resolving client
# fingerprints, the net refcount and usage writes, the recipe and file
# entry, or the commit.
_FINALIZE_SECONDS = REGISTRY.histogram(
    "server_finalize_seconds",
    "finalize_file latency, by stage (resolve | recipe | release | commit)",
)
# Where a restore window's server time went: index gets + owner checks,
# or the coalesced container reads (and how many of those it took).
_FETCH_SECONDS = REGISTRY.histogram(
    "server_fetch_seconds",
    "iter_share_batches latency per batch, by stage (resolve | read)",
)
_FETCH_READ_RUNS = REGISTRY.counter(
    "server_fetch_read_runs_total",
    "Ranged backend reads issued by fetches (one per contiguous container run)",
)
_RECOVERY_RUNS = REGISTRY.counter(
    "server_recovery_runs_total", "Boot-time recovery passes, by outcome"
)
_RECOVERY_REPAIRS = REGISTRY.counter(
    "server_recovery_repairs_total",
    "Items repaired by boot-time recovery, by kind",
)

#: The lock file a durable server holds in its ``durable_root``.
LOCK_FILE_NAME = "LOCK"


def _gaps(spans, limit: int):
    """The positions below ``limit`` that ``spans`` leave out, as one
    ``range`` before each ``(start, count)`` span and one after the last.
    The spans must be non-empty, in order, disjoint and below ``limit``."""
    end = 0
    for start, count in spans:
        if count < 1 or start < end or start + count > limit:
            raise ProtocolError("copied runs must be non-empty, ordered, disjoint and in range")
        yield range(end, start)
        end = start + count
    yield range(end, limit)


def _lock_durable_root(durable_root: Path) -> int:
    """Take the exclusive lock on ``durable_root``; return its fd.

    Recovery replays the journal, compacts the index (deleting SSTables a
    live server still reads by path) and truncates the WAL, so a second
    server over the same state must fail before touching anything, as
    LevelDB's ``LOCK`` file makes it.  The lock dies with its holder.
    """
    durable_root.mkdir(parents=True, exist_ok=True)
    fd = os.open(durable_root / LOCK_FILE_NAME, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        os.close(fd)
        raise StorageError(
            f"{durable_root} is held by another open server: a deployment "
            "root is opened by one process at a time (stop its `repro serve`)"
        ) from None
    return fd


def _locked(method):
    """Run ``method`` under the server's re-entrant lock."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return wrapper


@dataclass
class RecoveryReport:
    """What one boot-time recovery pass found and repaired."""

    reaped_temporaries: list[str] = field(default_factory=list)
    republished_containers: list[str] = field(default_factory=list)
    dangling_share_entries: int = 0
    dangling_file_entries: int = 0
    dangling_intra_mappings: int = 0

    @property
    def clean(self) -> bool:
        """True when the previous shutdown left nothing to repair."""
        return not (
            self.reaped_temporaries
            or self.republished_containers
            or self.dangling_share_entries
            or self.dangling_file_entries
            or self.dangling_intra_mappings
        )


class CDStoreServer:
    """CDStore server for one cloud.

    Parameters
    ----------
    server_id:
        The cloud index this server occupies (share ``i`` ↔ cloud ``i``).
    cloud:
        The simulated cloud hosting this server's VM and backend.
    index:
        Index backend; defaults to an in-memory :class:`DictIndex`.  Pass
        an :class:`~repro.server.index.LSMIndex` for the durable LevelDB
        equivalent, or the directory of one: the server then opens it
        itself, after taking the ``durable_root`` lock.
    durable_root:
        Directory for crash-only state (the container journal).  When
        set the server runs **crash-only**: every mutating call
        group-commits (journal + index WAL fsync) before returning — and
        the return *is* the wire ack — and construction locks the
        directory (one server per root until :meth:`close` or death) and
        runs a full :meth:`recover` pass (kill -9 is the only shutdown;
        every startup is recovery).  ``None`` (default) keeps the original
        buffer-until-flush behaviour for in-memory systems and tests.
    tenants:
        Optional :class:`~repro.tenants.TenantRegistry`.  When present
        the server meters per-tenant usage (bytes stored, containers)
        against each record's quota and rejects over-quota ingest with
        :class:`~repro.errors.QuotaExceededError`.  ``None`` disables
        accounting entirely.
    """

    #: Machine-checked lock discipline (``repro analyze``, LOCK-001):
    #: every index/container/stats mutation must run under ``self._lock``
    #: — via ``@_locked``, an explicit ``with self._lock:``, or a helper
    #: marked ``@requires_lock`` whose callers hold it.
    GUARDED_BY = guarded_by(index="_lock", containers="_lock", stats="_lock")

    def __init__(
        self,
        server_id: int,
        cloud: CloudProvider,
        index: IndexBackend | str | Path | None = None,
        recipe_compression: bool = True,
        durable_root: str | Path | None = None,
        tenants: TenantRegistry | None = None,
    ) -> None:
        self.server_id = server_id
        self.cloud = cloud
        self.stats = DedupStats()
        self.recipe_compression = recipe_compression
        self.tenants = tenants
        self.durable = durable_root is not None
        #: Serialises all index/container mutations on this server.  The
        #: multi-threaded client (and multiple concurrent clients, Figure 8)
        #: hit each server from several threads; a coarse per-server lock
        #: keeps ingest and index updates atomic while still letting the
        #: ``n`` clouds proceed in parallel.  Re-entrant because public
        #: methods nest (e.g. ``get_recipe`` → ``get_file_entry``).
        self._lock = threading.RLock()
        #: Bytes ingested via upload_shares but not yet finalized, per
        #: tenant.  In-memory only: after a crash these shares are
        #: ownerless orphans that GC reclaims, so the charge evaporates
        #: with the data.
        self._pending_bytes: dict[str, int] = {}
        self.last_recovery: RecoveryReport | None = None
        #: The ``durable_root`` lock's fd, held until :meth:`close`.
        self._root_lock = (
            _lock_durable_root(Path(durable_root)) if self.durable else None
        )
        try:
            if isinstance(index, (str, Path)):
                index = LSMIndex(index)
            self.index = index if index is not None else DictIndex()
            journal = (
                RecordLog(Path(durable_root) / "container-journal.log")
                if durable_root is not None
                else None
            )
            # Constructing the manager replays the journal (republishing
            # containers acked before a crash); the on_seal hook keeps the
            # per-tenant container counts honest, replay included.
            self.containers = ContainerManager(
                cloud.backend, journal=journal, on_seal=self._on_seal
            )
            if self.durable:
                self.recover()
        except BaseException:
            self._unlock_root()
            raise

    # ------------------------------------------------------------------
    # index helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _share_key(server_fp: bytes) -> bytes:
        return PREFIX_SHARE + server_fp

    @staticmethod
    def _intra_key(user_id: str, client_fp: bytes) -> bytes:
        return PREFIX_INTRA + user_id.encode("utf-8") + b"\x00" + client_fp

    @staticmethod
    def _file_key(user_id: str, lookup_key: bytes) -> bytes:
        return PREFIX_FILE + user_id.encode("utf-8") + b"\x00" + lookup_key

    def _get_share_entry(self, server_fp: bytes) -> ShareEntry | None:
        blob = self.index.get(self._share_key(server_fp))
        return ShareEntry.unpack(blob) if blob is not None else None

    @requires_lock("_lock")
    def _put_share_entry(self, server_fp: bytes, entry: ShareEntry) -> None:
        self.index.put(self._share_key(server_fp), entry.pack())

    # ------------------------------------------------------------------
    # crash-only durability + boot recovery
    # ------------------------------------------------------------------
    @requires_lock("_lock")
    def _commit_durable(self) -> None:
        """Group-commit this batch before the caller's return becomes an ack.

        The crash-only contract: a mutating method may only return (and
        the socket layer may only send its reply frame) once the shares
        *and* the index mutations of the batch are on stable storage.
        Two fsyncs per batch — container journal, then index WAL — in
        that order.  The index WAL holds the whole request's mutations
        until its ``sync()``, which writes them as one record, so an
        index record never reaches the OS before the container entry it
        names, and a request killed before this point leaves no index
        effect at all.

        A server without a journal still syncs its index: that is the
        boundary at which an LSM index flushes its memtable (a no-op for
        :class:`~repro.server.index.DictIndex`).
        """
        if not self.durable:
            self.index.sync()
            return
        clock = time.perf_counter()
        self.containers.commit()
        committed = time.perf_counter()
        _COMMIT_SECONDS.observe(committed - clock, stage="journal_fsync")
        self.index.sync()
        _COMMIT_SECONDS.observe(time.perf_counter() - committed, stage="index_sync")

    @_locked
    def recover(self) -> RecoveryReport:
        """Boot-time recovery: make the on-disk state self-consistent.

        Every startup is recovery (Candea & Fox): reap half-written
        backend temporaries, account the containers the journal replay
        republished, drop index entries whose containers never became
        durable (unacked work from the crash), and compact the replayed
        LSM state.  Safe to call on a clean store — it finds nothing.
        """
        report = RecoveryReport(
            reaped_temporaries=self.cloud.backend.reap_temporaries(),
            republished_containers=list(self.containers.recovered_containers),
        )
        # Index entries referencing a container that does not exist are
        # unacked leftovers: the journal would have republished anything
        # that was committed before the crash.
        exists: dict[str, bool] = {}

        def missing(cid: str) -> bool:
            if cid not in exists:
                exists[cid] = self.cloud.backend.exists(cid)
            return not exists[cid]

        for key, blob in list(self.index.items(PREFIX_SHARE)):
            if missing(ShareEntry.unpack(blob).ref.container_id):
                self.index.delete(key)
                report.dangling_share_entries += 1
        for key, blob in list(self.index.items(PREFIX_FILE)):
            if missing(FileEntry.unpack(blob).recipe_ref.container_id):
                self.index.delete(key)
                report.dangling_file_entries += 1
        for key, server_fp in list(self.index.items(PREFIX_INTRA)):
            if self.index.get(self._share_key(server_fp)) is None:
                self.index.delete(key)
                report.dangling_intra_mappings += 1
        self.index.compact()
        self.index.sync()
        self.last_recovery = report
        _RECOVERY_RUNS.inc(outcome="clean" if report.clean else "repaired")
        for kind, count in (
            ("reaped_temporaries", len(report.reaped_temporaries)),
            ("republished_containers", len(report.republished_containers)),
            ("dangling_share_entries", report.dangling_share_entries),
            ("dangling_file_entries", report.dangling_file_entries),
            ("dangling_intra_mappings", report.dangling_intra_mappings),
        ):
            if count:
                _RECOVERY_REPAIRS.inc(count, kind=kind)
        return report

    # ------------------------------------------------------------------
    # per-tenant accounting + quotas
    # ------------------------------------------------------------------
    def _usage_key(self, tenant_id: str) -> bytes:
        return PREFIX_TENANT + tenant_id.encode("utf-8")

    @_locked
    def tenant_usage(self, tenant_id: str) -> TenantUsage:
        """Durable usage counters for one tenant (zeroes if unknown)."""
        blob = self.index.get(self._usage_key(tenant_id))
        return TenantUsage.unpack(blob) if blob is not None else TenantUsage()

    @requires_lock("_lock")
    def _put_usage(self, tenant_id: str, usage: TenantUsage) -> None:
        self.index.put(self._usage_key(tenant_id), usage.pack())

    def _quota_for(self, tenant_id: str):
        if self.tenants is None:
            return None
        record = self.tenants.get(tenant_id)
        return record.quota if record is not None else None

    @requires_lock("_lock")
    def _check_ingest_quota(self, user_id: str, incoming_bytes: int) -> None:
        """Reject an ingest batch that would push ``user_id`` over quota.

        Checked *before* any mutation so a rejected batch leaves no
        partial state.  Finalized usage is durable; bytes uploaded but
        not yet finalized count via the in-memory pending ledger, so a
        tenant cannot stage unbounded data by never finalizing.
        """
        quota = self._quota_for(user_id)
        if quota is None:
            return
        if quota.max_bytes is not None:
            projected = (
                self.tenant_usage(user_id).bytes_stored
                + self._pending_bytes.get(user_id, 0)
                + incoming_bytes
            )
            if projected > quota.max_bytes:
                raise QuotaExceededError(
                    f"tenant {user_id!r} would store {projected} bytes, "
                    f"quota is {quota.max_bytes}"
                )
        if quota.max_containers is not None:
            if self.tenant_usage(user_id).containers >= quota.max_containers:
                raise QuotaExceededError(
                    f"tenant {user_id!r} reached its container quota "
                    f"({quota.max_containers})"
                )

    @requires_lock("_lock")
    def _on_seal(self, user_id: str, container_id: str, payload_bytes: int) -> None:
        """Container-seal accounting hook (normal operation and replay).

        Declared ``requires_lock`` because every seal site — append,
        flush, and the journal replay inside ``__init__`` before the
        server is shared — runs under the server lock or before any
        other thread can hold a reference.
        """
        if self.tenants is None or user_id not in self.tenants:
            return
        usage = self.tenant_usage(user_id)
        usage.containers += 1
        self._put_usage(user_id, usage)

    # ------------------------------------------------------------------
    # stage 1: intra-user deduplication (client-facing query)
    # ------------------------------------------------------------------
    @_locked
    def query_duplicates(self, user_id: str, fingerprints: list[bytes]) -> list[bool]:
        """Which of ``fingerprints`` has this user already uploaded?

        The reply is computed *only* from the querying user's own history
        (the intra-user index), so deduplication patterns leak nothing
        about other users (§3.3).
        """
        self.cloud.check_available()
        return [
            self.index.get(self._intra_key(user_id, fp)) is not None
            for fp in fingerprints
        ]

    # ------------------------------------------------------------------
    # stage 2: inter-user deduplication (share ingest)
    # ------------------------------------------------------------------
    @_locked
    def upload_shares(self, user_id: str, uploads: list[ShareUpload]) -> None:
        """Ingest unique-for-this-user shares.

        For each share the server recomputes the fingerprint in its own
        domain, consults the share index, stores only globally-unique
        shares into containers, and records the user's client-fingerprint
        mapping for future intra-user queries.
        """
        self.cloud.check_available()
        incoming = sum(len(upload.data) for upload in uploads)
        # Admission control and validation happen before any mutation: a
        # rejected batch must leave neither index entries nor container bytes.
        self._check_ingest_quota(user_id, incoming)
        for upload in uploads:
            if len(upload.data) != upload.meta.share_size:
                raise ProtocolError(
                    f"share size mismatch: meta {upload.meta.share_size}, "
                    f"data {len(upload.data)}"
                )
        for upload in uploads:
            data = upload.data
            self.stats.transferred_shares += len(data)
            self.stats.shares_transferred += 1
            server_fp = fingerprint(data, domain="server")
            entry = self._get_share_entry(server_fp)
            if entry is None:
                clock = time.perf_counter()
                ref = self.containers.append(
                    user_id, KIND_SHARE, server_fp, data
                )
                _STORAGE_WRITE_SECONDS.observe(time.perf_counter() - clock)
                entry = ShareEntry(ref=ref, share_size=len(data))
                self._put_share_entry(server_fp, entry)
                self.stats.physical_shares += len(data)
                self.stats.shares_stored += 1
            # Remember this user's client fingerprint → server fingerprint.
            self.index.put(self._intra_key(user_id, upload.meta.fingerprint), server_fp)
        if self.tenants is not None and user_id in self.tenants:
            self._pending_bytes[user_id] = (
                self._pending_bytes.get(user_id, 0) + incoming
            )
        # Returning *is* the ack: nothing above may become visible to the
        # client until shares and index mutations are on stable storage.
        self._commit_durable()

    # ------------------------------------------------------------------
    # file finalisation: recipe + file index (§4.3-4.4)
    # ------------------------------------------------------------------
    @_locked
    def finalize_file(
        self,
        user_id: str,
        manifest: FileManifest,
        share_metas: list[ShareMeta],
    ) -> None:
        """Build and store the file recipe; update indices and refcounts.

        ``share_metas`` covers every secret of the file the manifest's
        copied ``runs`` do not, in sequence order, including intra-user
        duplicates the client never uploaded; the server resolves each
        client fingerprint through the intra-user index.  A run's entries
        are spliced from the recipe being replaced, which must be the
        manifest's ``base`` version (else :class:`StaleBaseError`, before
        anything is written): that recipe already holds this tenant's
        references to them, so they cost no index read.  A manifest
        without runs is a full finalize.

        Overwriting an existing path releases the old recipe's per-user
        references — without this, re-uploading a path leaks refcounts and
        its shares can never be garbage-collected.  Everything is read and
        validated, and the new recipe appended, before the first index
        mutation: releasing the old references while the old file entry
        survives a failure would let GC reap shares that file still names.
        Then each share's refcount changes by its net delta (the resolved
        metas minus the old entries no run copies): only shares whose
        delta is non-zero are written, and the tenant is charged once.
        """
        self.cloud.check_available()
        started = time.perf_counter()
        runs = manifest.runs
        copied = sum(count for _, _, count in runs)
        if len(share_metas) + copied != manifest.secret_count:
            # Readers size the recipe from the file entry's secret count.
            raise ProtocolError(
                f"manifest names {manifest.secret_count} secrets, "
                f"{len(share_metas)} share metas were sent and {copied} copied"
            )
        if runs and manifest.base == ZERO_TAG:
            raise ProtocolError("copied runs need a base version")
        file_key = self._file_key(user_id, manifest.lookup_key)
        old_blob = self.index.get(file_key)
        base: bytes | None = b""  # the packed recipe being replaced
        old_tag = None
        if old_blob is not None:
            try:
                old = FileEntry.unpack(old_blob)
                old_tag, base = old.tag, self._recipe_blob(old)
            except ReproError:
                # Unreadable old recipe (corrupt container): nothing left
                # to release; the overwrite below drops the stale entry.
                base = None
        if manifest.base != ZERO_TAG and (base is None or old_tag != manifest.base):
            raise StaleBaseError(f"server {self.server_id} does not hold the base version")
        width = _RECIPE_ENTRY.size
        base = base or b""
        drops: Counter = Counter()
        for gap in _gaps(sorted((at, count) for _, at, count in runs), len(base) // width):
            drops.update(base[at * width : at * width + HASH_SIZE] for at in gap)
        metas = iter(sorted(share_metas, key=lambda m: m.secret_seq))
        parts: list[bytes] = []
        adds: Counter = Counter()
        gaps = list(_gaps([(seq, count) for seq, _, count in runs], manifest.secret_count))
        for gap, run in zip(gaps, (*runs, None)):
            for seq in gap:
                meta = next(metas)
                if meta.secret_seq != seq:
                    raise ProtocolError(f"secret {seq} is neither copied nor sent")
                server_fp = self.index.get(self._intra_key(user_id, meta.fingerprint))
                if server_fp is None:
                    raise ProtocolError(
                        f"share for secret {seq} was never uploaded by user {user_id!r}"
                    )
                adds[server_fp] += 1
                parts.append(_RECIPE_ENTRY.pack(server_fp, meta.secret_size))
            if run is not None:
                parts.append(base[run[1] * width : (run[1] + run[2]) * width])
        # Only a share whose reference count moves is decoded (to be
        # written back); for the rest — most of an incremental backup —
        # its size and this tenant's count are all finalize reads.
        share_entries: dict[bytes, ShareEntry] = {}
        unmoved: dict[bytes, tuple[int, int]] = {}
        for server_fp, added in adds.items():
            blob = self.index.get(self._share_key(server_fp))
            if blob is None:
                raise ProtocolError("intra-user index points at a missing share")
            if added != drops[server_fp]:
                share_entries[server_fp] = ShareEntry.unpack(blob)
            else:
                unmoved[server_fp] = ShareEntry.probe(blob, user_id)
        # Quota: shares this tenant will own for the first time become
        # durable charges; check before the first mutation.
        newly_owned_bytes = sum(
            entry.share_size
            for entry in share_entries.values()
            if user_id not in entry.owners
        ) + sum(size for size, held in unmoved.values() if not held)
        quota = self._quota_for(user_id)
        if quota is not None and quota.max_bytes is not None:
            projected = self.tenant_usage(user_id).bytes_stored + newly_owned_bytes
            if projected > quota.max_bytes:
                raise QuotaExceededError(
                    f"tenant {user_id!r} would own {projected} stored bytes, "
                    f"quota is {quota.max_bytes}"
                )
        resolved_at = time.perf_counter()
        recipe_blob = b"".join(parts)
        if self.recipe_compression:
            recipe_blob = compress_recipe(recipe_blob)
        # The append is the last call that can fail (journal record, a
        # sealed container's upload): it precedes every refcount change,
        # so a failure leaves the old file entry's references intact.
        recipe_ref = self.containers.append(
            user_id, KIND_RECIPE, manifest.lookup_key, recipe_blob
        )
        recipe_at = time.perf_counter()
        self._apply_ref_delta(
            user_id,
            adds=adds,
            drops=drops,
            share_entries=share_entries,
            charged_bytes=newly_owned_bytes,
            unmoved=unmoved,
        )
        if self.tenants is not None and user_id in self.tenants:
            pending = self._pending_bytes.get(user_id, 0)
            self._pending_bytes[user_id] = max(0, pending - newly_owned_bytes)
        file_entry = FileEntry(
            recipe_ref=recipe_ref,
            path_share=manifest.path_share,
            file_size=manifest.file_size,
            secret_count=manifest.secret_count,
            tag=manifest.tag,
        )
        self.index.put(file_key, file_entry.pack())
        released_at = time.perf_counter()
        self._commit_durable()
        _FINALIZE_SECONDS.observe(resolved_at - started, stage="resolve")
        _FINALIZE_SECONDS.observe(recipe_at - resolved_at, stage="recipe")
        _FINALIZE_SECONDS.observe(released_at - recipe_at, stage="release")
        _FINALIZE_SECONDS.observe(time.perf_counter() - released_at, stage="commit")

    @_locked
    def flush(self) -> None:
        """Seal open containers (end of a backup session)."""
        self.containers.flush()
        self._commit_durable()

    @_locked
    def close(self) -> None:
        """Release server resources and the root lock (idempotent; safe
        to call twice)."""
        try:
            self.index.close()
            if self.containers.journal is not None:
                self.containers.journal.close()
        finally:
            self._unlock_root()

    def _unlock_root(self) -> None:
        if self._root_lock is not None:
            fcntl.flock(self._root_lock, fcntl.LOCK_UN)
            os.close(self._root_lock)
            self._root_lock = None

    def __enter__(self) -> "CDStoreServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # restore path
    # ------------------------------------------------------------------
    @_locked
    def get_file_entry(self, user_id: str, lookup_key: bytes) -> FileEntry:
        """Fetch the file-index entry; authorisation is per (user, key)."""
        self.cloud.check_available()
        blob = self.index.get(self._file_key(user_id, lookup_key))
        if blob is None:
            raise NotFoundError(
                f"no file for user {user_id!r} under the given key "
                f"on server {self.server_id}"
            )
        return FileEntry.unpack(blob)

    @_locked
    def list_files(self, user_id: str) -> list[tuple[bytes, FileEntry]]:
        """All (lookup_key, entry) pairs stored by ``user_id``.

        Pathnames are not readable here: each entry carries only this
        server's secret-sharing share of the pathname (§4.3); a client
        combines ``k`` servers' shares to list real names.
        """
        self.cloud.check_available()
        prefix = PREFIX_FILE + user_id.encode("utf-8") + b"\x00"
        out = []
        for key, blob in self.index.items(prefix):
            out.append((key[len(prefix):], FileEntry.unpack(blob)))
        return out

    @_locked
    def list_backups(self) -> list[tuple[str, bytes]]:
        """Every ``(user_id, lookup_key)`` pair in the file index.

        The repair/scrub walk (`repro.system.cdstore`) enumerates a donor
        server's backups through this method instead of reaching into the
        index backend directly, so a donor behind a
        :class:`~repro.net.client.RemoteServerProxy` serves repairs too.
        """
        self.cloud.check_available()
        out: list[tuple[str, bytes]] = []
        for key, _ in self.index.items(PREFIX_FILE):
            user_id, _, lookup_key = key[len(PREFIX_FILE):].partition(b"\x00")
            out.append((user_id.decode("utf-8"), lookup_key))
        return out

    @_locked
    def get_recipe(self, user_id: str, lookup_key: bytes) -> list[RecipeEntry]:
        """Fetch and decode the file recipe (transparently decompressed)."""
        return self._recipe_entries(self.get_file_entry(user_id, lookup_key))

    def _recipe_blob(self, entry: FileEntry) -> bytes:
        """Read and decompress the recipe a file entry points at: exactly
        ``secret_count`` packed :class:`RecipeEntry` records."""
        [(_, blob)] = self.containers.read_entries([entry.recipe_ref])
        try:
            # The file entry says how long the recipe is, so a hostile
            # container cannot make the decompressor allocate past it.
            return decompress_recipe(
                blob, expected_size=entry.secret_count * _RECIPE_ENTRY.size
            )
        except ParameterError as exc:
            raise ProtocolError(f"recipe blob corrupt ({exc})") from exc

    def _recipe_entries(self, entry: FileEntry) -> list[RecipeEntry]:
        """Read and decode the recipe a file entry points at."""
        return [
            RecipeEntry(fingerprint, secret_size)
            for fingerprint, secret_size in _RECIPE_ENTRY.iter_unpack(
                self._recipe_blob(entry)
            )
        ]

    def fetch_shares(
        self, fingerprints: list[bytes], owner: str | None = None
    ) -> dict[bytes, bytes]:
        """Return share bytes for the given server fingerprints.

        All or nothing: every requested share, or the first error
        :meth:`iter_share_batches` raises.  The server-side working set
        stays bounded by :data:`FETCH_BATCH_BYTES` regardless of how many
        containers the request spans (only the reply dict itself grows
        with the request, and the windowed restore client bounds that).
        """
        out: dict[bytes, bytes] = {}
        for batch in self.iter_share_batches(fingerprints, owner=owner):
            out.update(batch)
        return out

    def iter_share_batches(
        self,
        fingerprints: list[bytes],
        budget_bytes: int = FETCH_BATCH_BYTES,
        cost=None,
        owner: str | None = None,
    ):
        """Yield ``[(fingerprint, payload), ...]`` batches for a fetch.

        The single fetch path shared by the in-process :meth:`fetch_shares`
        and the socket streaming layer (:mod:`repro.net`).  The request is
        walked in order (duplicates served once) and each batch is resolved
        and read **as a unit under one hold of the server lock**: every
        share's index entry is fetched once (its ``share_size`` prices it,
        so the batch is cut before anything is read), then
        :meth:`~repro.storage.container.ContainerManager.read_entries`
        reads the batch with one ranged read per contiguous container run
        — a restore window comes back the way backup wrote it (§4.5
        locality), and whole containers are never materialised.  Because
        resolve and read share a hold, a concurrent GC or scrub repair
        cannot move a share between the two.

        Each yielded batch is capped at ``budget_bytes`` (a single
        oversized share gets a batch of its own).  ``cost(fp, share_size)``
        prices one share against the budget — the default is its payload
        bytes; the socket layer passes its per-share wire cost so whole
        *reply frames* respect the budget.  The share that closes a batch
        by not fitting it is read in the same hold and leads the next
        batch, so the working set is one batch plus one share.

        The lock is **never held across a** ``yield``: a slow consumer (a
        socket draining frames) must not stall other tenants.  A hold
        covers one batch's resolve + read (at most ``budget_bytes``), not
        the generator's lifetime.

        ``owner`` scopes the fetch to one tenant: a share the tenant does
        not reference (no entry in its per-user refcounts) raises the
        *same* :class:`~repro.errors.NotFoundError` as a share that does
        not exist — a tenant cannot even probe whether another tenant's
        fingerprints are stored (the cross-tenant dedup side channel).
        ``None`` (in-process callers, admin connections) fetches freely.
        Shares are checked batch by batch, so a missing or foreign share
        (or one whose ownership was revoked mid-fetch) may surface after
        earlier batches were yielded.
        """
        if budget_bytes < 1:
            raise ProtocolError(f"batch budget must be >= 1, got {budget_bytes}")
        if cost is None:
            def cost(fp, share_size):
                return share_size
        pending = list(dict.fromkeys(fingerprints))
        done = 0
        # Carried across holds: the share that closed the previous batch
        # (already read) opens this one, with its cost already spent.
        batch: list[tuple[bytes, bytes]] = []
        spent = 0
        while True:
            with self._lock:
                self.cloud.check_available()
                clock = time.perf_counter()
                resolved: list[tuple[bytes, ShareEntry]] = []
                overflow = 0
                while done < len(pending) and not overflow:
                    fp = pending[done]
                    entry = self._get_share_entry(fp)
                    if entry is None or (
                        owner is not None and owner not in entry.owners
                    ):
                        raise NotFoundError(f"share {fp.hex()[:16]}… not on server")
                    share_cost = cost(fp, entry.share_size)
                    if (batch or resolved) and spent + share_cost > budget_bytes:
                        overflow = share_cost
                    else:
                        spent += share_cost
                    resolved.append((fp, entry))
                    done += 1
                read_clock = time.perf_counter()
                _FETCH_SECONDS.observe(read_clock - clock, stage="resolve")
                runs = self.containers.range_reads
                for (fp, entry), (key, payload) in zip(
                    resolved,
                    self.containers.read_entries([entry.ref for _, entry in resolved]),
                ):
                    if key != fp:
                        raise NotFoundError(
                            f"share {fp.hex()[:16]}… missing from container "
                            f"{entry.ref.container_id}"
                        )
                    if len(payload) != entry.share_size:
                        # The batch was cut on the index's sizes.
                        raise StorageError(
                            f"share {fp.hex()[:16]}… is {len(payload)} bytes in "
                            f"its container, {entry.share_size} in the index"
                        )
                    batch.append((fp, payload))
                _FETCH_READ_RUNS.inc(self.containers.range_reads - runs)
                _FETCH_SECONDS.observe(time.perf_counter() - read_clock, stage="read")
            if not overflow:
                if batch:
                    yield batch
                return
            closing = batch.pop()
            yield batch
            batch, spent = [closing], overflow

    # ------------------------------------------------------------------
    # extensions: integrity scrubbing
    # ------------------------------------------------------------------
    @_locked
    def scrub(self) -> list[bytes]:
        """Audit every stored share against its index fingerprint.

        Re-reads each live share from its container and recomputes the
        server-domain fingerprint; a mismatch means on-disk corruption
        (bit rot, a tampering cloud).  Returns the corrupt fingerprints —
        :meth:`repro.system.cdstore.CDStoreSystem.scrub_and_repair`
        regenerates those shares from the other clouds.
        """
        self.flush()
        corrupt: list[bytes] = []
        by_container: dict[str, list[tuple[bytes, ShareEntry]]] = {}
        for key, blob in self.index.items(PREFIX_SHARE):
            entry = ShareEntry.unpack(blob)
            fp = key[len(PREFIX_SHARE):]
            by_container.setdefault(entry.ref.container_id, []).append((fp, entry))
        for container_id, entries in by_container.items():
            try:
                stored = dict(self.containers.read_container(container_id).entries)
            except (StorageError, OSError):
                # Whole container unreadable: everything in it is corrupt.
                corrupt.extend(fp for fp, _ in entries)
                continue
            for fp, entry in entries:
                payload = stored.get(fp)
                if payload is None or fingerprint(payload, domain="server") != fp:
                    corrupt.append(fp)
        return corrupt

    @_locked
    def rebuild_recipe(
        self, user_id: str, lookup_key: bytes, entries: list[RecipeEntry]
    ) -> None:
        """Rewrite a file's recipe (scrub-repair of a corrupt recipe
        container); the file-index entry is preserved apart from the ref
        and the secret count readers size the recipe by."""
        file_entry = self.get_file_entry(user_id, lookup_key)
        file_entry.secret_count = len(entries)
        blob = b"".join(entry.pack() for entry in entries)
        if self.recipe_compression:
            blob = compress_recipe(blob)
        file_entry.recipe_ref = self.containers.append(
            user_id, KIND_RECIPE, lookup_key, blob
        )
        self.index.put(self._file_key(user_id, lookup_key), file_entry.pack())
        self._commit_durable()

    @_locked
    def replace_share(self, server_fp: bytes, data: bytes) -> None:
        """Re-ingest a regenerated share under its existing index entry."""
        entry = self._get_share_entry(server_fp)
        if entry is None:
            raise NotFoundError("cannot replace a share with no index entry")
        if fingerprint(data, domain="server") != server_fp:
            raise ProtocolError("replacement bytes do not match the fingerprint")
        entry.ref = self.containers.append("scrub", KIND_SHARE, server_fp, data)
        self._put_share_entry(server_fp, entry)
        self._commit_durable()

    # ------------------------------------------------------------------
    # extensions: deletion + garbage collection (paper §4.7 future work)
    # ------------------------------------------------------------------
    @_locked
    def delete_file(self, user_id: str, lookup_key: bytes) -> int:
        """Drop a file: decrement refcounts; returns orphaned share count."""
        recipe = self.get_recipe(user_id, lookup_key)
        orphaned = self._apply_ref_delta(
            user_id,
            adds=Counter(),
            drops=Counter(entry.fingerprint for entry in recipe),
            share_entries={},
        )
        self.index.delete(self._file_key(user_id, lookup_key))
        # Recipes are small; reclaiming their container space is left to GC.
        self._commit_durable()
        return orphaned

    @requires_lock("_lock")
    def _apply_ref_delta(
        self,
        user_id: str,
        adds: Counter,
        drops: Counter,
        share_entries: dict[bytes, ShareEntry],
        charged_bytes: int = 0,
        unmoved: dict[bytes, tuple[int, int]] | None = None,
    ) -> int:
        """Move ``user_id``'s references by ``adds - drops`` per share.

        The one place the last-reference rule lives (finalize and delete):
        a share whose held count reaches zero releases its bytes from the
        tenant's usage, which is clamped at zero *before* ``charged_bytes``
        is added.  ``share_entries`` may already hold loaded entries; the
        rest are read here, and every read precedes the first write, so
        once the index is mutated nothing but in-memory puts follow.  A
        share whose entry is gone has nothing left to drop.  ``unmoved``
        gives ``(share_size, held)`` of shares already read whose count
        does not move (``adds == drops``; they are never written).
        Returns how many dropped shares end up with no owner.
        """
        unmoved = unmoved or {}
        for server_fp in drops:
            if server_fp not in share_entries and server_fp not in unmoved:
                share_entry = self._get_share_entry(server_fp)
                if share_entry is not None:
                    share_entries[server_fp] = share_entry
        tenant = self.tenants is not None and user_id in self.tenants
        usage = self.tenant_usage(user_id) if tenant else None
        released_bytes = 0
        orphaned = 0
        for server_fp in {**adds, **drops}:
            share_entry = share_entries.get(server_fp)
            if share_entry is not None:
                share_size = share_entry.share_size
                held = share_entry.owners.get(user_id, 0)
            elif server_fp in unmoved:
                share_size, held = unmoved[server_fp]
            else:
                continue
            added, dropped = adds[server_fp], drops[server_fp]
            held += added
            if 1 <= held <= dropped:
                # The tenant's last reference goes with the dropped recipe.
                released_bytes += share_size
            if added == dropped:
                continue
            assert share_entry is not None
            if held > dropped:
                share_entry.owners[user_id] = held - dropped
            else:
                share_entry.owners.pop(user_id, None)
            if dropped and share_entry.orphaned:
                orphaned += 1
            self._put_share_entry(server_fp, share_entry)
        if usage is not None and (released_bytes or charged_bytes):
            usage.bytes_stored = (
                max(0, usage.bytes_stored - released_bytes) + charged_bytes
            )
            self._put_usage(user_id, usage)
        return orphaned

    @_locked
    def collect_garbage(self) -> int:
        """Rewrite containers to drop orphaned shares; returns bytes freed.

        Offline mark-and-sweep: live shares are re-packed into fresh
        containers (their index entries updated), orphaned shares, the
        intra-user mappings that name them and the old containers are
        deleted.  The index commits before the first old container goes,
        so a crash in between leaves only unreferenced containers, which
        the next pass sweeps.
        """
        self.flush()
        # Containers holding live recipes must never be swept: they are
        # referenced from the file index, not the share index.
        live_recipe_containers = {
            FileEntry.unpack(blob).recipe_ref.container_id
            for _, blob in self.index.items(PREFIX_FILE)
        }
        live: dict[bytes, ShareEntry] = {}
        reaped: set[bytes] = set()
        for key, blob in self.index.items(PREFIX_SHARE):
            entry = ShareEntry.unpack(blob)
            fp = key[len(PREFIX_SHARE):]
            if entry.orphaned:
                self.index.delete(key)
                reaped.add(fp)
                self.stats.physical_shares -= entry.share_size
                self.stats.shares_stored -= 1
            else:
                live[fp] = entry
        # A mapping to a reaped share would answer "duplicate" for a
        # share that no longer exists.
        for key, server_fp in list(self.index.items(PREFIX_INTRA)):
            if server_fp in reaped:
                self.index.delete(key)
        freed = 0
        rewritten: set[str] = set()
        # Identify containers that contain at least one dead share.
        container_live: dict[str, list[bytes]] = {}
        for fp, entry in live.items():
            container_live.setdefault(entry.ref.container_id, []).append(fp)
        for container_id in self.cloud.backend.list_keys("container-"):
            if container_id in live_recipe_containers:
                continue
            live_fps = set(container_live.get(container_id, []))
            try:
                container = self.containers.read_container(container_id)
            except (StorageError, OSError):
                # Unreadable (corrupt) container: if nothing live points at
                # it — e.g. scrubbing already relocated its shares — sweep
                # it whole; otherwise leave it for scrub_and_repair.
                if live_fps:
                    continue
                freed += self.cloud.backend.object_size(container_id)
                rewritten.add(container_id)
                continue
            if container.kind != KIND_SHARE:
                continue
            dead = [key for key, _ in container.entries if key not in live_fps]
            if not dead:
                continue
            for fp in container_live.get(container_id, []):
                entry = live[fp]
                [(_, payload)] = container.pick(container_id, [entry.ref.entry_index])
                new_ref = self.containers.append("gc", KIND_SHARE, fp, payload)
                entry.ref = new_ref
                self._put_share_entry(fp, entry)
            freed += sum(
                len(payload)
                for key, payload in container.entries
                if key not in live_fps
            )
            rewritten.add(container_id)
        self.containers.flush()
        self._commit_durable()
        for container_id in rewritten:
            self.cloud.backend.delete_object(container_id)
        return freed

    @property
    def stored_bytes(self) -> int:
        """Bytes at this cloud's backend (containers + recipes)."""
        return self.cloud.stored_bytes
