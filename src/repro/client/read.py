"""The read path: one agreement rule, :class:`RestorePlan` and :class:`ReadSession`.

Every reader agrees on a backup by one rule, :func:`quorum`: servers are
described (:func:`describe`: file entry and recipe) in order — the first
``k``, then spares only while fewer than ``k`` agree — until ``k`` report
the same ``(file_size, secret_count, tag)``; a stale or failed minority is
skipped like an outage.  Restore (:class:`DirectReadSession`), listing
(:meth:`CDStoreClient.list_files`) and the gateway's resolution
(:mod:`repro.gateway.service`) all call it, so a path is listed, and
served by a gateway, iff a direct restore of it resolves.

A restore is two steps: **resolve** (construct a session; the quorum and
window planning happen once and are exposed as an immutable
:class:`RestorePlan`), then **read** (stream the planned windows, decode
each as it lands, return the joined, size-checked bytes).

* :class:`DirectReadSession` — ``k`` concurrent per-cloud fetches through
  the :class:`~repro.client.comm.CommEngine`, window-granular spare
  failover, and the §3.2 share-pool widening as the last resort.  Cloud
  repair (:mod:`repro.system.cdstore`) decodes through it too.
* :class:`GatewayReadSession` — the same steps against a ``repro
  gateway`` (:mod:`repro.gateway`): resolution is one round-trip, windows
  arrive as per-replica shard frames from its hot-container cache.  It
  performs **no** failover: any fetch/decode failure propagates, and
  :meth:`CDStoreClient.download` falls back to a fresh
  :class:`DirectReadSession`.
"""
from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.analysis.annotations import guarded_by, requires_lock
from repro.client.workers import plan_windows
from repro.errors import (
    CloudUnavailableError,
    CodingError,
    InsufficientCloudsError,
    IntegrityError,
    ProtocolError,
    StorageError,
)
from repro.obs.registry import REGISTRY
from repro.server.index import FileEntry
from repro.server.messages import ZERO_TAG, RecipeEntry

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.client.client import CDStoreClient
    from repro.server.server import CDStoreServer

__all__ = [
    "FETCH_ERRORS",
    "GATEWAY_FALLBACK_ERRORS",
    "Description",
    "DirectReadSession",
    "GatewayReadSession",
    "ReadSession",
    "RestorePlan",
    "describe",
    "quorum",
]

# Restore-stage timings (docs/OBSERVABILITY.md): one observation per
# window slot fetch and one per window decode, so the two histograms
# show whether fetch or decode bounds a restore.
_WINDOW_RESTORE_SECONDS = REGISTRY.histogram(
    "client_window_restore_seconds",
    "Wall time fetching one restore window's shares from one cloud",
)
_WINDOW_DECODE_SECONDS = REGISTRY.histogram(
    "client_window_decode_seconds",
    "Wall time decoding one restore window's secrets from their shares",
)
_FAILOVERS = REGISTRY.counter(
    "client_failovers_total",
    "Restore slots that replaced a failed cloud with a promoted spare",
)

#: Errors meaning "this server cannot currently supply usable data" — an
#: outage, missing objects (NotFoundError is a StorageError), a corrupt
#: container, or a malformed recipe.  The restore fails over to a spare
#: cloud or skips the server rather than aborting the download.
FETCH_ERRORS = (CloudUnavailableError, ProtocolError, StorageError)

#: Errors on the gateway read path that mean "this path failed, the
#: direct quorum may still succeed": transport/storage failures
#: (``FETCH_ERRORS`` — the same classes the direct session fails over on)
#: plus decode failures (``IntegrityError``/``CodingError``), which the
#: direct path can survive via k-subset retry and §3.2 widening but the
#: gateway path cannot (it holds exactly k shards per window).
GATEWAY_FALLBACK_ERRORS = (*FETCH_ERRORS, IntegrityError, CodingError)

#: What :func:`describe` learns of one server: its file entry and its
#: recipe (share fingerprints are per cloud).  A listing describes a
#: server by its file entry alone, a one-item tuple.
Description = tuple[FileEntry, list[RecipeEntry]]


def describe(server, user_id: str, lookup_key: bytes) -> Description | Exception:
    """``server``'s file entry and recipe of one backup — the restore and
    gateway paths' only reads of either — or the error that makes it
    unusable."""
    try:
        entry = server.get_file_entry(user_id, lookup_key)
        recipe = server.get_recipe(user_id, lookup_key)
    except FETCH_ERRORS as exc:
        return exc
    if len(recipe) != entry.secret_count:
        return IntegrityError(
            f"recipe of {len(recipe)} secrets, file entry says {entry.secret_count}"
        )
    return entry, recipe


def quorum(
    servers: Sequence,
    k: int,
    describe: Callable[..., tuple | Exception],
    described: dict,
    map_servers: Callable = map,
    agree_with: tuple | None = None,
) -> tuple[list, list]:
    """The first ``k`` of ``servers`` that agree on one file entry.

    The one agreement rule of every read: a server is usable when its
    description reports the ``(file_size, secret_count, tag)`` that ``k``
    servers report (that of ``agree_with``, when a reader already
    resolved one).  The first ``k`` servers are described, the rest in
    order only while fewer than ``k`` agree, ``k`` minus the agreeing
    count at a time, each batch by ``map_servers(describe, batch)``.
    ``described`` memoizes descriptions: a server in it is not described
    again, and every new description lands in it.

    Returns the agreeing servers, in order, and the servers never
    consulted.  Raises :class:`IntegrityError` when servers disagree and
    no ``k`` agree, else the first server's own error (an unknown file
    stays :class:`~repro.errors.NotFoundError`).
    """
    if len(servers) < k:
        raise InsufficientCloudsError(f"only {len(servers)} clouds reachable; need k={k}")
    consulted: list = []
    batch, spares = list(servers[:k]), list(servers[k:])
    while True:
        fresh = [server for server in batch if server not in described]
        described.update(zip(fresh, map_servers(describe, fresh)))
        consulted += batch
        shapes = Counter(_shape(described[server]) for server in consulted)
        shapes.pop(None, None)
        agreed = _shape(agree_with) if agree_with else max(shapes, key=shapes.get, default=None)
        if shapes[agreed] >= k:
            return [s for s in consulted if _shape(described[s]) == agreed], spares
        if not spares:
            if set(shapes) - {agreed}:
                raise IntegrityError("no k servers agree on the file's version")
            raise next(d for d in map(described.get, consulted) if isinstance(d, Exception))
        batch, spares = spares[: k - shapes[agreed]], spares[k - shapes[agreed] :]


def _shape(description: tuple | Exception) -> tuple[int, int, bytes] | None:
    """The ``(file_size, secret_count, tag)`` a server reported; None if
    it could not describe the file.  The version tag tells apart two
    uploads of one path that happen to share a size and secret count."""
    if isinstance(description, Exception):
        return None
    entry = description[0]
    return entry.file_size, entry.secret_count, entry.tag


@dataclass(frozen=True)
class RestorePlan:
    """The resolved, immutable shape of one restore.

    Produced once per session at construction (resolution happens
    exactly once per restore); ``read()`` only executes it.
    """

    #: File-index key (``sha256(user_id \0 path)``, §4.4).
    lookup_key: bytes
    #: Cross-checked plaintext byte size of the file.
    file_size: int
    #: Cross-checked number of secrets (chunks).
    secret_count: int
    #: Per-secret plaintext sizes, in sequence order.
    secret_sizes: tuple[int, ...]
    #: Contiguous ``(start, end)`` secret ranges fetched/decoded as units.
    windows: tuple[tuple[int, int], ...]
    #: Which path produced the plan: ``"direct"`` or ``"gateway"``.
    via: str
    #: The agreed version tag (zero when the gateway resolved the plan).
    tag: bytes = ZERO_TAG


class ReadSession:
    """One in-flight restore: a :class:`RestorePlan` plus the machinery
    to execute it.

    Subclasses set :attr:`plan` during construction (resolution) and
    implement :meth:`read`.  Sessions are context managers; ``close()``
    is idempotent and releases any per-session resources.
    """

    plan: RestorePlan

    def read(self) -> bytes:
        raise NotImplementedError

    def close(self) -> None:
        """Release session resources (idempotent; default: nothing)."""

    def __enter__(self) -> "ReadSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _finish(self, parts: list[bytes]) -> bytes:
        """Join decoded windows and enforce the recorded file size."""
        result = b"".join(parts)
        if len(result) != self.plan.file_size:
            raise IntegrityError(
                f"restored size {len(result)} != recorded size "
                f"{self.plan.file_size}"
            )
        return result


class DirectReadSession(ReadSession):
    """Quorum restore of one backup from any ``k`` of ``servers``.

    The session owns the restore's quorum: a server is usable when its
    description (:func:`describe`, once per server) agrees with the
    ``(file_size, secret_count, tag)`` that ``k`` servers report.  That one
    rule picks a server in all three places one is picked:

    * resolution, :func:`quorum` over ``servers`` — the reachable clouds
      for a restore, every available cloud but the one being rebuilt for
      a repair; those it never consults are the spare pool;
    * a slot whose fetch fails in window ``i`` gets the next usable spare
      for that window onward (:meth:`_promote`);
    * a secret no ``k``-subset decodes draws a share from each usable
      spare (§3.2 widening, :meth:`_widen`).

    :meth:`decode_windows` streams windows through the comm engine:
    decoding of window ``i`` overlaps the fetch of the next
    ``pipeline_depth`` windows (an inline engine fetches and decodes them
    one at a time).
    """

    #: Lock discipline (``repro analyze``, LOCK-001): window fetches on the
    #: cloud workers promote spares while the caller's decode widens from
    #: them.  Both are rare, and hold the lock across their describe and
    #: fetch RPCs so a slot swap is atomic with respect to its readers.
    GUARDED_BY = guarded_by(_slots="_lock", _spares="_lock", _described="_lock")

    def __init__(
        self, client: "CDStoreClient", lookup_key: bytes, servers: list["CDStoreServer"]
    ) -> None:
        self.client = client
        self._describe = partial(describe, user_id=client.user_id, lookup_key=lookup_key)
        self._lock = threading.Lock()
        self._described: dict[CDStoreServer, Description | Exception] = {}
        self._slots, self._spares = quorum(
            servers, client.k, self._describe, self._described, client.comm.map_servers
        )
        promoted = sum(server not in servers[: client.k] for server in self._slots)
        if promoted:
            _FAILOVERS.inc(promoted)

        entry, recipe = self._described[self._slots[0]]
        windows = plan_windows(
            [client.dispersal.share_size(item.secret_size) for item in recipe],
            client.restore_window_bytes,
        )
        self.plan = RestorePlan(
            lookup_key=lookup_key,
            file_size=entry.file_size,
            secret_count=entry.secret_count,
            secret_sizes=tuple(item.secret_size for item in recipe),
            windows=tuple(windows),
            via="direct",
            tag=entry.tag,
        )

    @requires_lock("_lock")
    def _usable(self, server: "CDStoreServer") -> Description | None:
        """``server``'s description, described at most once per session,
        if it agrees with the plan's; None if not."""
        if server not in self._described:
            self._described[server] = self._describe(server)
        description = self._described[server]
        if _shape(description) != (self.plan.file_size, self.plan.secret_count, self.plan.tag):
            return None
        return description

    def path_shares(self) -> dict[int, bytes]:
        """The read clouds' pathname shares (§4.3), by cloud index."""
        with self._lock:
            return {
                server.server_id: self._described[server][0].path_share
                for server in self._slots
            }

    def read(self) -> bytes:
        windows = self.decode_windows(self.plan.windows)
        return self._finish([secret for secrets in windows for secret in secrets])

    def decode_windows(self, windows: Sequence[tuple[int, int]]) -> Iterator[list[bytes]]:
        """Fetch and decode ``windows`` (some of :attr:`plan`'s, in order),
        yielding each window's secrets as it is decoded."""
        dispersal = self.client.dispersal
        sizes = self.plan.secret_sizes
        stream = self.client.comm.stream_windows(windows, list(self._slots), self._fetch)
        try:
            for (start, end), slots in zip(windows, stream):
                requests = [
                    ({server_id: shares[i] for server_id, shares in slots}, sizes[seq])
                    for i, seq in enumerate(range(start, end))
                ]
                # Batched happy path: secrets decoded from the same k-subset
                # share one inverse-matrix multiply; on integrity failure the
                # dispersal retries per secret and widens only the ones that
                # still fail.
                clock = time.perf_counter()
                secrets = dispersal.decode_batch(
                    requests,
                    fallback=lambda i, shares, size, start=start: self._widen(
                        start + i, shares, size
                    ),
                )
                _WINDOW_DECODE_SECONDS.observe(time.perf_counter() - clock)
                yield secrets
        finally:
            stream.close()

    def _fetch(self, slot: int, window: tuple[int, int]) -> tuple[int, list[bytes]]:
        """Slot ``slot``'s cloud index and shares of ``window``.

        A failed fetch hands the slot to a spare (:meth:`_promote`) and
        retries the same window against the spare's own recipe — windows
        already decoded are unaffected, later ones go to the spare.
        """
        clock = time.perf_counter()
        while True:
            with self._lock:
                server = self._slots[slot]
                _, recipe = self._described[server]
            fingerprints = [recipe[seq].fingerprint for seq in range(*window)]
            try:
                shares = server.fetch_shares(fingerprints)
            except FETCH_ERRORS:
                if not self._promote(slot, server):
                    raise
                continue
            _WINDOW_RESTORE_SECONDS.observe(time.perf_counter() - clock)
            return server.server_id, [shares[fp] for fp in fingerprints]

    def _promote(self, slot: int, failed: "CDStoreServer") -> bool:
        """Replace ``failed`` in ``slot`` with the next usable spare (unless
        a concurrent fetch already did); False when the spares ran out."""
        with self._lock:
            while self._slots[slot] is failed:
                if not self._spares:
                    return False
                spare = self._spares.pop(0)
                if self._usable(spare) is not None:
                    self._slots[slot] = spare
                    _FAILOVERS.inc()
            return True

    def _widen(self, seq: int, shares: dict[int, bytes], secret_size: int) -> bytes:
        """Last resort for secret ``seq``: widen its share pool (§3.2).

        The fetched shares could not decode even with the k-subset brute
        force, so draw this secret's share from each usable spare and
        retry.  A spare that is unreachable, disagrees or fails the fetch
        leaves the pool: one bad spare must not abort a restore the other
        shares can still satisfy, nor be probed again for later secrets
        (for a remote cloud ``available`` is a network PING).
        """
        widened = dict(shares)
        with self._lock:
            for spare in list(self._spares):
                description = spare.cloud.available and self._usable(spare)
                if description:
                    fingerprint = description[1][seq].fingerprint
                    try:
                        fetched = spare.fetch_shares([fingerprint])
                        widened[spare.server_id] = fetched[fingerprint]
                        continue
                    except FETCH_ERRORS:
                        pass
                self._spares.remove(spare)
        return self.client.dispersal.decode(widened, secret_size)


class GatewayReadSession(ReadSession):
    """Restore through a ``repro gateway``.

    Construction resolves the backup in one round-trip
    (``resolve_backup``: the gateway's :func:`quorum`, windows planned
    with *its* window size so every client shares its hot-cache entries).
    :meth:`read` decodes each window from the ``k`` shards the gateway
    sends (``iter_window_shards``).  No failover runs here: a failed
    fetch or decode raises, and the caller falls back to a
    :class:`DirectReadSession`.
    """

    def __init__(self, client: "CDStoreClient", lookup_key: bytes, gateway) -> None:
        self.client = client
        self.gateway = gateway
        resolved = gateway.resolve_backup(client.user_id, lookup_key)
        file_size, secret_sizes, windows = resolved
        self.plan = RestorePlan(
            lookup_key=lookup_key,
            file_size=file_size,
            secret_count=len(secret_sizes),
            secret_sizes=tuple(secret_sizes),
            windows=tuple(windows),
            via="gateway",
        )

    def _window_requests(
        self, index: int, start: int, end: int
    ) -> Iterator[tuple[dict[int, bytes], int]]:
        """Decode requests for window ``index``, built from its shards."""
        count = end - start
        shards: dict[int, list[bytes]] = {}
        for server_id, shares in self.gateway.iter_window_shards(
            self.client.user_id, self.plan.lookup_key, index
        ):
            if len(shares) != count:
                raise IntegrityError(
                    f"gateway shard from replica {server_id} has "
                    f"{len(shares)} shares, window {index} spans {count}"
                )
            shards[server_id] = shares
        for offset in range(count):
            yield (
                {sid: shares[offset] for sid, shares in shards.items()},
                self.plan.secret_sizes[start + offset],
            )

    def read(self) -> bytes:
        parts: list[bytes] = []
        for index, (start, end) in enumerate(self.plan.windows):
            requests = list(self._window_requests(index, start, end))
            clock = time.perf_counter()
            parts.extend(self.client.dispersal.decode_batch(requests))
            _WINDOW_DECODE_SECONDS.observe(time.perf_counter() - clock)
        return self._finish(parts)
