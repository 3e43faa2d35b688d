"""The unified read-path API: :class:`RestorePlan` + :class:`ReadSession`.

Before this module existed the restore surface was a grab-bag —
``CDStoreClient.download`` held the whole pipeline inline,
``restore_window_bytes`` and ``plan_windows`` configured it from the
side, and nothing else could reuse the window/decode machinery.  Now a
restore is two explicit steps shared by every read path:

1. **resolve** — construct a session; resolution (file entry + recipe
   cross-check, window planning) happens once, up front, and is exposed
   as an immutable :class:`RestorePlan`;
2. **read** — stream the planned windows, decode each as it lands, and
   return the joined, size-checked bytes.

Two sessions implement the surface:

* :class:`DirectReadSession` — the original quorum restore: ``k``
  concurrent per-cloud fetches through the
  :class:`~repro.client.comm.CommEngine`, window-granular spare
  failover, and the §3.2 share-pool widening as the last resort.  Cloud
  repair (:mod:`repro.system.cdstore`) decodes through it too.
* :class:`GatewayReadSession` — the same plan/read steps against a
  ``repro gateway`` (:mod:`repro.gateway`): resolution is one
  round-trip, windows arrive as per-replica shard frames served from
  the gateway's hot-container cache.  The session performs **no**
  failover of its own — any fetch/decode failure propagates so
  :meth:`CDStoreClient.download` falls back to a fresh
  :class:`DirectReadSession`, where the existing window-granular spare
  failover (and widening) runs unchanged.

``CDStoreClient.download()`` stays as a thin wrapper over
``open_read(path).read()``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.client.comm import FETCH_ERRORS
from repro.client.workers import plan_windows
from repro.errors import (
    CodingError,
    InsufficientCloudsError,
    IntegrityError,
)
from repro.obs.registry import REGISTRY
from repro.server.messages import RecipeEntry

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.client.client import CDStoreClient
    from repro.server.server import CDStoreServer

__all__ = [
    "GATEWAY_FALLBACK_ERRORS",
    "DirectReadSession",
    "GatewayReadSession",
    "ReadSession",
    "RestorePlan",
]

# The decode stage of a restore (docs/OBSERVABILITY.md), beside the
# per-cloud fetch timings of client/comm.py: one observation per window.
_WINDOW_DECODE_SECONDS = REGISTRY.histogram(
    "client_window_decode_seconds",
    "Wall time decoding one restore window's secrets from their shares",
)

#: Errors on the gateway read path that mean "this path failed, the
#: direct quorum may still succeed": transport/storage failures
#: (``FETCH_ERRORS`` — the same classes the comm engine fails over on)
#: plus decode failures (``IntegrityError``/``CodingError``), which the
#: direct path can survive via k-subset retry and §3.2 widening but the
#: gateway path cannot (it holds exactly k shards per window).
GATEWAY_FALLBACK_ERRORS = (*FETCH_ERRORS, IntegrityError, CodingError)


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

    Construction performs resolution over the caller's server list — the
    reachable clouds for a restore, every available cloud but the one
    being rebuilt for a repair: the first ``k`` are read, the rest are
    the spare pool.  All ``k`` file entries and recipes are fetched and
    cross-checked — a lying minority cannot spoof the file size or
    secret count unnoticed — and the windows planned.
    :meth:`decode_windows` then streams windows through the comm engine:
    decoding of window ``i`` overlaps the fetch of the next
    ``pipeline_depth`` windows (an inline engine fetches and decodes them
    one at a time), and a cloud failing in window ``i`` is replaced by a
    spare for that window onward only.
    """

    def __init__(
        self, client: "CDStoreClient", lookup_key: bytes, servers: list["CDStoreServer"]
    ) -> None:
        self.client = client
        if len(servers) < client.k:
            raise InsufficientCloudsError(
                f"only {len(servers)} of {client.n} clouds reachable; "
                f"need k={client.k}"
            )
        # Shared, mutable failover pool: the comm engine pops spares it
        # promotes to chosen sources, so the §3.2 widening below never
        # treats a promoted spare as extra decode material.
        self._spare_pool = list(servers[client.k :])
        self._sources = client.comm.fetch_sources(
            client.user_id, lookup_key, servers[: client.k], self._spare_pool
        )

        # Cross-check the replicated (non-sensitive) metadata across all
        # k servers instead of trusting whichever answered last.
        sizes = {source.entry.file_size for source in self._sources}
        counts = {source.entry.secret_count for source in self._sources}
        if len(sizes) != 1 or len(counts) != 1:
            raise IntegrityError(
                "servers disagree on file entry (file size / secret count)"
            )
        file_size = sizes.pop()
        secret_count = counts.pop()
        lengths = {len(source.recipe) for source in self._sources}
        if len(lengths) != 1 or lengths.pop() != secret_count:
            raise IntegrityError("servers disagree on recipe length")

        reference = self._sources[0].recipe
        windows = plan_windows(
            [client.dispersal.share_size(entry.secret_size) for entry in reference],
            client.restore_window_bytes,
        )
        self.plan = RestorePlan(
            lookup_key=lookup_key,
            file_size=file_size,
            secret_count=secret_count,
            secret_sizes=tuple(entry.secret_size for entry in reference),
            windows=tuple(windows),
            via="direct",
        )

    def path_shares(self) -> dict[int, bytes]:
        """The read clouds' pathname shares (§4.3), by cloud index."""
        return {
            source.server.server_id: source.entry.path_share
            for source in self._sources
        }

    def read(self) -> bytes:
        windows = self.decode_windows(self.plan.windows)
        return self._finish([secret for secrets in windows for secret in secrets])

    def decode_windows(self, windows: Sequence[tuple[int, int]]) -> Iterator[list[bytes]]:
        """Fetch and decode ``windows`` (some of :attr:`plan`'s, in order),
        yielding each window's secrets as it is decoded."""
        client = self.client
        plan = self.plan
        reference = self._sources[0].recipe

        #: §3.2 widening state, shared across windows: each spare's
        #: recipe is fetched at most once per call, and a spare that
        #: fails is skipped for all later secrets in any window.
        spare_recipes: dict[int, list[RecipeEntry]] = {}
        dead_spares: set[int] = set()

        stream = client.comm.stream_share_windows(
            client.user_id,
            plan.lookup_key,
            self._sources,
            list(windows),
            self._spare_pool,
            expect=(plan.file_size, plan.secret_count),
        )
        try:
            for window in stream:
                requests: list[tuple[dict[int, bytes], int]] = []
                for seq in range(window.start, window.end):
                    shares = {
                        slot.server.server_id: slot.shares[
                            slot.recipe[seq].fingerprint
                        ]
                        for slot in window.slots
                    }
                    requests.append((shares, reference[seq].secret_size))

                used_ids = {slot.server.server_id for slot in window.slots}

                def widen_with_spares(
                    index: int,
                    shares: dict[int, bytes],
                    secret_size: int,
                    _window=window,
                    _used=used_ids,
                ) -> bytes:
                    """Last resort for one secret: widen its share pool (§3.2).

                    The fetched shares could not decode even with the k-subset
                    brute force, so pull this secret's share from each
                    remaining reachable spare cloud and retry.  A spare that
                    fails is skipped (and not retried for later secrets) — one
                    bad spare must not abort a restore that the remaining
                    shares can still satisfy.
                    """
                    seq = _window.start + index
                    widened = dict(shares)
                    for server in list(self._spare_pool):
                        if (
                            server.server_id in _used
                            or server.server_id in dead_spares
                        ):
                            continue
                        if not server.cloud.available:
                            # Remember the failed probe: for a remote cloud
                            # `available` is a network PING, and repeating
                            # it per secret would stall the widening loop
                            # on an unresponsive host.
                            dead_spares.add(server.server_id)
                            continue
                        try:
                            recipe = spare_recipes.get(server.server_id)
                            if recipe is None:
                                recipe = server.get_recipe(
                                    client.user_id, plan.lookup_key
                                )
                                spare_recipes[server.server_id] = recipe
                            fetched = server.fetch_shares(
                                [recipe[seq].fingerprint]
                            )
                        except (*FETCH_ERRORS, IndexError):
                            # IndexError: the spare's recipe is shorter than
                            # the agreed secret count — as unusable as corrupt.
                            dead_spares.add(server.server_id)
                            continue
                        widened[server.server_id] = fetched[
                            recipe[seq].fingerprint
                        ]
                    return client.dispersal.decode(widened, secret_size)

                # Batched happy path: secrets decoded from the same k-subset
                # share one inverse-matrix multiply; on integrity failure the
                # dispersal retries per secret and widens only the ones that
                # still fail.
                clock = time.perf_counter()
                secrets = client.dispersal.decode_batch(
                    requests, fallback=widen_with_spares
                )
                _WINDOW_DECODE_SECONDS.observe(time.perf_counter() - clock)
                yield secrets
        finally:
            stream.close()


class GatewayReadSession(ReadSession):
    """Restore through a ``repro gateway``.

    Construction resolves the backup in one round-trip
    (``resolve_backup``); the gateway plans the windows with *its*
    window size so every client shares the same hot-cache entries.
    :meth:`read` fetches each window's per-replica shards
    (``iter_window_shards``) and decodes from exactly the ``k`` shards
    the gateway's consistent-hash ring chose.  No failover runs here by
    design: a dead replica behind a cache miss (or a decode failure)
    raises, and the caller falls back to a :class:`DirectReadSession`
    where the quorum machinery — window-granular spare promotion plus
    §3.2 widening — handles it.
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
