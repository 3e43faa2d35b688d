"""Index backends for the CDStore server (§4.4).

The server keeps three logical indices:

* the **file index** — lookup key → file entry (recipe container ref);
* the **share index** — server fingerprint → share entry (container ref,
  share size, per-user reference counts);
* the **intra-user index** — (user, client fingerprint) → server
  fingerprint, which answers the client's intra-user dedup queries without
  ever comparing across users (the side-channel defence of §3.3).

All three live in one key-value namespace with a one-byte prefix.  Two
backends implement that namespace: :class:`LSMIndex` on the from-scratch
LSM store (the LevelDB analogue the paper uses) and :class:`DictIndex`
(in-memory, for large simulated runs and tests).
"""

from __future__ import annotations

import abc
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.analysis.annotations import EXTERNAL, guarded_by
from repro.errors import ProtocolError
from repro.lsm.db import LSMStore, prefix_upper_bound
from repro.storage.container import ContainerRef

__all__ = [
    "IndexBackend",
    "DictIndex",
    "LSMIndex",
    "ShareEntry",
    "FileEntry",
    "PREFIX_FILE",
    "PREFIX_SHARE",
    "PREFIX_INTRA",
    "PREFIX_TENANT",
]

PREFIX_FILE = b"f"
PREFIX_SHARE = b"s"
PREFIX_INTRA = b"u"
#: Per-tenant durable usage counters (quota accounting) — packed
#: :class:`repro.tenants.TenantUsage` records keyed by tenant id.
PREFIX_TENANT = b"q"


class IndexBackend(abc.ABC):
    """Minimal key-value API the server index needs."""

    @abc.abstractmethod
    def get(self, key: bytes) -> bytes | None: ...

    @abc.abstractmethod
    def put(self, key: bytes, value: bytes) -> None: ...

    @abc.abstractmethod
    def delete(self, key: bytes) -> None: ...

    @abc.abstractmethod
    def items(self, prefix: bytes = b"") -> Iterator[tuple[bytes, bytes]]: ...

    def sync(self) -> None:  # pragma: no cover - optional
        """Force every mutation so far to stable storage (default: nothing).

        The crash-only server calls this once per acknowledged batch;
        volatile backends (tests, simulations) have nothing to do.
        """

    def compact(self) -> None:  # pragma: no cover - optional
        """Fold log-structured state down (boot-time recovery hook)."""

    def close(self) -> None:  # pragma: no cover - optional
        """Release resources (default: nothing)."""

    def __enter__(self) -> "IndexBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class DictIndex(IndexBackend):
    """In-memory index for simulations and tests."""

    #: Index backends own no lock: every access is serialised one layer up
    #: by ``CDStoreServer._lock`` (which declares ``index`` guarded).  The
    #: EXTERNAL declaration keeps that contract visible and machine-read.
    GUARDED_BY = guarded_by(_data=EXTERNAL)

    def __init__(self) -> None:
        self._data: dict[bytes, bytes] = {}

    def get(self, key: bytes) -> bytes | None:
        return self._data.get(key)

    def put(self, key: bytes, value: bytes) -> None:
        self._data[key] = value

    def delete(self, key: bytes) -> None:
        self._data.pop(key, None)

    def items(self, prefix: bytes = b"") -> Iterator[tuple[bytes, bytes]]:
        for key in sorted(self._data):
            if key.startswith(prefix):
                yield key, self._data[key]


class LSMIndex(IndexBackend):
    """LSM-store-backed index (the paper's LevelDB role)."""

    #: Serialised by ``CDStoreServer._lock`` — see :class:`DictIndex`.
    GUARDED_BY = guarded_by(_db=EXTERNAL)

    def __init__(self, directory: str | Path, **lsm_kwargs) -> None:
        self._db = LSMStore(directory, **lsm_kwargs)

    def get(self, key: bytes) -> bytes | None:
        return self._db.get(key)

    def put(self, key: bytes, value: bytes) -> None:
        self._db.put(key, value)

    def delete(self, key: bytes) -> None:
        self._db.delete(key)

    def items(self, prefix: bytes = b"") -> Iterator[tuple[bytes, bytes]]:
        # Push the prefix bounds into the LSM iterator so prefix scans
        # (repair, scrub, listings) touch only the matching key range
        # instead of filtering a full-store scan in Python.
        if not prefix:
            yield from self._db.items()
            return
        yield from self._db.items(lower=prefix, upper=prefix_upper_bound(prefix))

    def sync(self) -> None:
        # One WAL batch record + fsync covers every put/delete since the
        # last sync — the group-commit half of the never-ack-before-durable
        # rule; the memtable flushes here too, never mid-request.
        self._db.sync()

    def compact(self) -> None:
        # Boot-time recovery folds the replayed WAL + accumulated
        # SSTables into one table, so repeated crash/restart cycles
        # cannot pile up log-structured debris.
        self._db.flush()
        self._db.compact()

    def close(self) -> None:
        self._db.close()

    @property
    def store(self) -> LSMStore:
        """The underlying LSM store (for snapshots and stats)."""
        return self._db


# ---------------------------------------------------------------------------
# entry codecs
# ---------------------------------------------------------------------------


class ShareEntry:
    """Share-index entry: container location + per-user refcounts (§4.4)."""

    def __init__(
        self,
        ref: ContainerRef,
        share_size: int,
        owners: dict[str, int] | None = None,
    ) -> None:
        self.ref = ref
        self.share_size = share_size
        self.owners = owners or {}

    # ------------------------------------------------------------------
    def add_owner(self, user_id: str) -> None:
        self.owners[user_id] = self.owners.get(user_id, 0) + 1

    def drop_owner(self, user_id: str) -> None:
        count = self.owners.get(user_id, 0)
        if count <= 1:
            self.owners.pop(user_id, None)
        else:
            self.owners[user_id] = count - 1

    @property
    def orphaned(self) -> bool:
        """True when no user references the share (GC candidate)."""
        return not self.owners

    # ------------------------------------------------------------------
    def pack(self) -> bytes:
        ref_blob = self.ref.pack()
        parts = [struct.pack(">IH", self.share_size, len(ref_blob)), ref_blob]
        parts.append(struct.pack(">I", len(self.owners)))
        for user, count in sorted(self.owners.items()):
            ub = user.encode("utf-8")
            parts.append(struct.pack(">HI", len(ub), count) + ub)
        return b"".join(parts)

    @classmethod
    def unpack(cls, blob: bytes) -> "ShareEntry":
        from repro.errors import StorageError

        try:
            share_size, ref_len = struct.unpack_from(">IH", blob, 0)
            pos = 6
            ref = ContainerRef.unpack(blob[pos : pos + ref_len])
            pos += ref_len
            (count,) = struct.unpack_from(">I", blob, pos)
            pos += 4
            owners = {}
            for _ in range(count):
                ulen, refcount = struct.unpack_from(">HI", blob, pos)
                pos += 6
                owners[blob[pos : pos + ulen].decode("utf-8")] = refcount
                pos += ulen
        except (struct.error, UnicodeDecodeError, StorageError) as exc:
            raise ProtocolError(f"bad ShareEntry: {exc}") from exc
        return cls(ref=ref, share_size=share_size, owners=owners)


@dataclass
class FileEntry:
    """File-index entry: a reference to the file recipe (§4.4)."""

    recipe_ref: ContainerRef
    path_share: bytes
    file_size: int
    secret_count: int

    def pack(self) -> bytes:
        ref_blob = self.recipe_ref.pack()
        return (
            struct.pack(">H", len(ref_blob))
            + ref_blob
            + struct.pack(">I", len(self.path_share))
            + self.path_share
            + struct.pack(">QQ", self.file_size, self.secret_count)
        )

    @classmethod
    def unpack(cls, blob: bytes) -> "FileEntry":
        from repro.errors import StorageError

        try:
            (ref_len,) = struct.unpack_from(">H", blob, 0)
            pos = 2
            ref = ContainerRef.unpack(blob[pos : pos + ref_len])
            pos += ref_len
            (share_len,) = struct.unpack_from(">I", blob, pos)
            pos += 4
            path_share = blob[pos : pos + share_len]
            pos += share_len
            file_size, secret_count = struct.unpack_from(">QQ", blob, pos)
        except (struct.error, StorageError) as exc:
            raise ProtocolError(f"bad FileEntry: {exc}") from exc
        if pos + 16 != len(blob):
            raise ProtocolError(f"{len(blob) - pos - 16} trailing bytes after FileEntry")
        return cls(ref, path_share, file_size, secret_count)
