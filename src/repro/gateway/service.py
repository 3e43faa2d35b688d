"""The gateway service: resolve once, shard fetches, cache hot windows.

One :class:`GatewayService` sits behind an async mux front-end
(:class:`~repro.net.async_server.AsyncCDStoreTCPServer` with
``server=None, gateway=...``) and answers the two gateway frames for
every multiplexed client connection concurrently:

* **resolve** (``T_GW_RESOLVE``): fetch the backup's file entry from
  ``k`` ring-preferred replicas, cross-check the replicated metadata
  (a lying minority cannot spoof size or secret count), pull one
  reference recipe, and plan the restore windows with the *gateway's*
  window size — every client therefore shares the same window
  boundaries, which is what makes the hot cache converge.  Resolutions
  are cached with a TTL (``recipe_ttl=0`` revalidates on every
  resolve).
* **window** (``T_GW_WINDOW``): for each of the ``k`` replicas the
  consistent-hash ring prefers for this ``(backup, window)``, serve the
  window's shares from the hot-container cache or fetch them from the
  replica on miss.  Cache keys are content-addressed by the window's
  share fingerprints, so an overwritten backup can never hit its old
  bytes (see :mod:`repro.gateway.cache`).

Failure philosophy — **the gateway never fails over**.  A replica dying
behind a cache miss raises the replica's typed error straight to the
client, which falls back to the direct quorum restore where the real
failover machinery (window-granular spare promotion, §3.2 widening)
lives.  Duplicating that machinery here would mean two divergent
failover paths to keep correct; routing all degraded traffic through
one path keeps the gateway a pure, disposable accelerator.  The single
exception is the overwrite race: a ``NotFoundError`` from a replica
mid-window usually means the cached resolution went stale, so the
service invalidates the backup and retries **once** before letting the
error out.
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass, field
from threading import Lock
from typing import Callable, Iterable, Iterator

from repro.analysis.annotations import guarded_by
from repro.client.workers import plan_windows
from repro.errors import IntegrityError, NotFoundError, ParameterError
from repro.gateway.cache import HotContainerCache
from repro.gateway.ring import HashRing
from repro.obs.registry import REGISTRY

__all__ = ["GATEWAY_WINDOW_BYTES", "GatewayService"]

_RESOLUTIONS = REGISTRY.counter(
    "gateway_resolutions_total",
    "Backup resolutions served, by source (cache | fresh)",
)

#: Default restore-window budget, in plaintext bytes per window.  One
#: window is the unit of caching and of ``T_GW_WINDOW`` transfer.
GATEWAY_WINDOW_BYTES = 4 << 20


@dataclass
class _Resolution:
    """One cached backup resolution (the gateway-side RestorePlan)."""

    expires: float
    file_size: int
    secret_sizes: tuple[int, ...]
    windows: tuple[tuple[int, int], ...]
    #: Digest of the reference recipe's fingerprints: two resolutions
    #: with different digests describe different backup versions.
    digest: bytes
    #: Lazily-fetched per-replica recipes (replica id -> recipe).
    recipes: dict = field(default_factory=dict)


class GatewayService:
    """Sharded, caching read service over a set of serving replicas.

    Parameters
    ----------
    replicas:
        Server-surface objects (:class:`~repro.net.client.
        RemoteServerProxy` in production, in-process servers in tests)
        with distinct ``server_id`` values.
    k:
        Decode threshold: shards per window, replicas cross-checked per
        resolve.
    own_replicas:
        When True, :meth:`close` closes the replicas too (the ``repro
        gateway`` process owns its proxies; an embedding system shares
        them and keeps the default False).
    clock:
        Monotonic-seconds source for the resolution TTL (injectable for
        deterministic tests).
    """

    #: Lock discipline (``repro analyze``, LOCK-001): the resolution
    #: cache is shared by every connection the front-end multiplexes.
    #: Replica I/O never runs under the lock — only lookups/inserts do.
    GUARDED_BY = guarded_by(_resolutions="_lock")

    def __init__(
        self,
        replicas: Iterable,
        k: int,
        cache_bytes: int = 256 << 20,
        recipe_ttl: float = 30.0,
        shard_count: int = 64,
        window_bytes: int = GATEWAY_WINDOW_BYTES,
        own_replicas: bool = False,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        replica_list = list(replicas)
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        if len(replica_list) < k:
            raise ParameterError(
                f"gateway needs at least k={k} replicas, got {len(replica_list)}"
            )
        if recipe_ttl < 0:
            raise ParameterError(f"recipe_ttl must be >= 0, got {recipe_ttl}")
        if window_bytes < 1:
            raise ParameterError(f"window_bytes must be >= 1, got {window_bytes}")
        self._replicas = {replica.server_id: replica for replica in replica_list}
        if len(self._replicas) != len(replica_list):
            raise ParameterError("replicas must have distinct server ids")
        self.k = k
        self.recipe_ttl = float(recipe_ttl)
        self.window_bytes = window_bytes
        self.ring = HashRing(sorted(self._replicas), vnodes=shard_count)
        self.cache = HotContainerCache(cache_bytes)
        self._own_replicas = own_replicas
        self._clock = clock
        self._lock = Lock()
        self._resolutions: dict[tuple[str, bytes], _Resolution] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # wire surface
    # ------------------------------------------------------------------
    def resolve_backup(
        self, user_id: str, lookup_key: bytes
    ) -> tuple[int, list[int], list[tuple[int, int]]]:
        """The restore plan: ``(file_size, secret_sizes, windows)``."""
        res = self._resolution(user_id, lookup_key)
        return res.file_size, list(res.secret_sizes), list(res.windows)

    def iter_window_shards(
        self, user_id: str, lookup_key: bytes, window_index: int
    ) -> Iterator[tuple[int, list[bytes]]]:
        """Yield ``(replica id, shares)`` for one window, ``k`` shards.

        All shards are collected *before* the first yield so the
        overwrite-race retry happens before any frame reaches the wire:
        a stream that has started never restarts mid-flight.
        """
        try:
            shards = self._window_shards(user_id, lookup_key, window_index)
        except NotFoundError:
            # Stale resolution (the backup was overwritten or deleted
            # after we cached it): drop everything we believed about it
            # and retry once against fresh metadata.  A genuinely
            # deleted backup fails the retry with the same error.
            self.invalidate_backup(user_id, lookup_key)
            shards = self._window_shards(user_id, lookup_key, window_index)
        yield from shards

    def invalidate_backup(self, user_id: str, lookup_key: bytes) -> int:
        """Forget one backup (resolution + hot windows); returns entries
        dropped from the hot cache.  Called on overwrite/delete races
        and available to operators via the service stats surface."""
        backup = (user_id, bytes(lookup_key))
        with self._lock:
            self._resolutions.pop(backup, None)
        return self.cache.invalidate(backup)

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def _resolution(self, user_id: str, lookup_key: bytes) -> _Resolution:
        backup = (user_id, bytes(lookup_key))
        now = self._clock()
        with self._lock:
            cached = self._resolutions.get(backup)
            if cached is not None and now < cached.expires:
                _RESOLUTIONS.inc(source="cache")
                return cached
        fresh = self._resolve_fresh(user_id, lookup_key)
        _RESOLUTIONS.inc(source="fresh")
        with self._lock:
            self._resolutions[backup] = fresh
        if cached is not None and cached.digest != fresh.digest:
            # The backup changed under its TTL: the content-addressed
            # hot keys already can't serve the new version, but the old
            # version's bytes are dead weight — reclaim them now.
            self.cache.invalidate(backup)
        return fresh

    def _resolve_fresh(self, user_id: str, lookup_key: bytes) -> _Resolution:
        chosen = self.ring.preferred(bytes(lookup_key))[: self.k]
        entries = [
            self._replicas[server_id].get_file_entry(user_id, lookup_key)
            for server_id in chosen
        ]
        sizes = {entry.file_size for entry in entries}
        counts = {entry.secret_count for entry in entries}
        if len(sizes) != 1 or len(counts) != 1:
            raise IntegrityError(
                "replicas disagree on file entry (file size / secret count)"
            )
        file_size = sizes.pop()
        secret_count = counts.pop()
        reference = self._replicas[chosen[0]].get_recipe(user_id, lookup_key)
        if len(reference) != secret_count:
            raise IntegrityError(
                f"replica {chosen[0]} recipe has {len(reference)} entries, "
                f"file entry records {secret_count} secrets"
            )
        secret_sizes = tuple(entry.secret_size for entry in reference)
        windows = (
            tuple(plan_windows(list(secret_sizes), self.window_bytes))
            if secret_count
            else ()
        )
        digest = hashlib.sha256(
            b"".join(entry.fingerprint for entry in reference)
        ).digest()
        return _Resolution(
            expires=self._clock() + self.recipe_ttl,
            file_size=file_size,
            secret_sizes=secret_sizes,
            windows=windows,
            digest=digest,
            recipes={chosen[0]: reference},
        )

    # ------------------------------------------------------------------
    # window serving
    # ------------------------------------------------------------------
    def _window_shards(
        self, user_id: str, lookup_key: bytes, window_index: int
    ) -> list[tuple[int, list[bytes]]]:
        res = self._resolution(user_id, lookup_key)
        if not 0 <= window_index < len(res.windows):
            raise ParameterError(
                f"window index {window_index} out of range "
                f"({len(res.windows)} windows)"
            )
        start, end = res.windows[window_index]
        backup = (user_id, bytes(lookup_key))
        window_key = bytes(lookup_key) + struct.pack(">I", window_index)
        shards: list[tuple[int, list[bytes]]] = []
        for server_id in self.ring.preferred(window_key)[: self.k]:
            recipe = self._replica_recipe(res, server_id, user_id, lookup_key)
            fingerprints = [recipe[seq].fingerprint for seq in range(start, end)]
            cache_key = (
                *backup,
                window_index,
                server_id,
                hashlib.sha256(b"".join(fingerprints)).digest(),
            )
            shares = self.cache.get(cache_key)
            if shares is None:
                fetched = self._replicas[server_id].fetch_shares(fingerprints)
                try:
                    shares = [fetched[fp] for fp in fingerprints]
                except KeyError as exc:
                    raise NotFoundError(
                        f"replica {server_id} no longer holds a share of "
                        f"window {window_index}"
                    ) from exc
                self.cache.put(cache_key, shares)
            shards.append((server_id, shares))
        return shards

    def _replica_recipe(
        self, res: _Resolution, server_id: int, user_id: str, lookup_key: bytes
    ):
        with self._lock:
            recipe = res.recipes.get(server_id)
        if recipe is not None:
            return recipe
        recipe = self._replicas[server_id].get_recipe(user_id, lookup_key)
        if len(recipe) != len(res.secret_sizes) or any(
            entry.secret_size != size
            for entry, size in zip(recipe, res.secret_sizes)
        ):
            # The replica describes a different version than the cached
            # resolution: surface it as the overwrite race so the
            # retry-once path re-resolves instead of decoding garbage.
            raise NotFoundError(
                f"replica {server_id} recipe disagrees with the cached "
                f"resolution (backup overwritten?)"
            )
        with self._lock:
            res.recipes[server_id] = recipe
        return recipe

    # ------------------------------------------------------------------
    # lifecycle & observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counters for the bench/CLI surface (the hit ratio is what
        ``benchmarks/out/fig10_replay.txt`` pins).

        A thin view: the canonical counters live in the process metrics
        registry (``gateway_cache_*``, ``gateway_resolutions_total``);
        the cache fields here come from one consistent
        :meth:`~repro.gateway.cache.HotContainerCache.stats_snapshot`
        read rather than per-field locking.
        """
        with self._lock:
            resolutions = len(self._resolutions)
        cache = self.cache.stats_snapshot()
        return {
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
            "cache_hit_ratio": cache["hit_rate"],
            "cache_bytes": cache["size_bytes"],
            "cache_entries": cache["entries"],
            "resolutions": resolutions,
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._own_replicas:
            for replica in self._replicas.values():
                replica.close()

    def __enter__(self) -> "GatewayService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
