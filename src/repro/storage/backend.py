"""Object-storage backends.

The storage backend plays the role of S3/Google Cloud Storage/Azure Blob in
the paper's architecture (Figure 1): a flat keyspace of immutable objects
(containers, index snapshots).  Two implementations:

* :class:`MemoryBackend` — dict-backed; used by the simulated clouds and
  most tests.  Supports failure injection (see
  :meth:`MemoryBackend.corrupt`) for integrity experiments.
* :class:`LocalDirBackend` — one file per object under a directory; the
  LAN-testbed equivalent ("each CDStore server mounts the storage backend
  on a local hard disk", §5.1).
"""

from __future__ import annotations

import abc
import os
from pathlib import Path

from repro.errors import NotFoundError, StorageError
from repro.storage.durable import fsync_dir, publish

__all__ = ["StorageBackend", "MemoryBackend", "LocalDirBackend"]


class StorageBackend(abc.ABC):
    """Flat immutable-object store with byte-counting for cost analysis."""

    def __init__(self) -> None:
        self.bytes_written = 0
        self.bytes_read = 0
        self.put_ops = 0
        self.get_ops = 0

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _put(self, key: str, data: bytes) -> None: ...

    @abc.abstractmethod
    def _get(self, key: str) -> bytes: ...

    @abc.abstractmethod
    def _delete(self, key: str) -> None: ...

    @abc.abstractmethod
    def _exists(self, key: str) -> bool: ...

    @abc.abstractmethod
    def list_keys(self, prefix: str = "") -> list[str]:
        """All object keys beginning with ``prefix``, sorted."""

    # ------------------------------------------------------------------
    def put_object(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key`` (overwriting any prior object)."""
        self._put(key, bytes(data))
        self.bytes_written += len(data)
        self.put_ops += 1

    def get_object(self, key: str) -> bytes:
        """Fetch the object at ``key``; raises :class:`NotFoundError`."""
        data = self._get(key)
        self.bytes_read += len(data)
        self.get_ops += 1
        return data

    def get_range(self, key: str, offset: int, length: int) -> bytes:
        """Fetch ``length`` bytes of the object at ``key`` from ``offset``.

        The S3/GCS/Azure ranged-GET analogue: the restore path reads
        runs of adjacent container entries without materialising the whole
        4 MB container server-side.  Reading past the end of the object raises
        :class:`StorageError` (a short range means the caller's offset
        table is stale or corrupt — never silently truncate).
        """
        if offset < 0 or length < 0:
            raise StorageError(f"bad range [{offset}, +{length}) for {key!r}")
        data = self._get_range(key, offset, length)
        if len(data) != length:
            raise StorageError(
                f"short ranged read on {key!r}: wanted {length} bytes at "
                f"{offset}, got {len(data)}"
            )
        self.bytes_read += len(data)
        self.get_ops += 1
        return data

    def _get_range(self, key: str, offset: int, length: int) -> bytes:
        """Default ranged read: slice a whole fetch (backends override)."""
        return self._get(key)[offset : offset + length]

    def delete_object(self, key: str) -> None:
        """Delete the object at ``key``; raises :class:`NotFoundError`."""
        self._delete(key)

    def exists(self, key: str) -> bool:
        return self._exists(key)

    @property
    def stored_bytes(self) -> int:
        """Total bytes currently stored (for cost/saving accounting)."""
        return sum(self.object_size(key) for key in self.list_keys())

    @abc.abstractmethod
    def object_size(self, key: str) -> int:
        """Size in bytes of one stored object."""

    def reap_temporaries(self) -> list[str]:
        """Remove half-written temporaries left by a crash; return them.

        Crash-only startup calls this before anything else: a temp file
        is by definition unpublished (its rename never happened), so no
        acked data can live there.  Backends without a temp-write
        staging area have nothing to reap.
        """
        return []


class MemoryBackend(StorageBackend):
    """Dict-backed object store with corruption injection for tests."""

    def __init__(self) -> None:
        super().__init__()
        self._objects: dict[str, bytes] = {}

    def _put(self, key: str, data: bytes) -> None:
        self._objects[key] = data

    def _get(self, key: str) -> bytes:
        try:
            return self._objects[key]
        except KeyError:
            raise NotFoundError(f"object {key!r} not found") from None

    def _delete(self, key: str) -> None:
        if key not in self._objects:
            raise NotFoundError(f"object {key!r} not found")
        del self._objects[key]

    def _exists(self, key: str) -> bool:
        return key in self._objects

    def list_keys(self, prefix: str = "") -> list[str]:
        return sorted(k for k in self._objects if k.startswith(prefix))

    def object_size(self, key: str) -> int:
        try:
            return len(self._objects[key])
        except KeyError:
            raise NotFoundError(f"object {key!r} not found") from None

    # ------------------------------------------------------------------
    def corrupt(self, key: str, offset: int = 0, flips: int = 1) -> None:
        """Flip bits inside a stored object (failure injection)."""
        data = bytearray(self._get(key))
        if not data:
            raise StorageError(f"object {key!r} is empty; nothing to corrupt")
        for i in range(flips):
            pos = (offset + i) % len(data)
            data[pos] ^= 0xFF
        self._objects[key] = bytes(data)


class LocalDirBackend(StorageBackend):
    """One file per object under ``root`` (keys are sanitised to paths)."""

    def __init__(self, root: str | Path) -> None:
        super().__init__()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        safe = key.replace("/", "_")
        if not safe or safe.startswith("."):
            raise StorageError(f"invalid object key {key!r}")
        return self.root / safe

    def _put(self, key: str, data: bytes) -> None:
        # A crash never surfaces a torn object under the final key, and a
        # power cut cannot forget the publish after the ack went out.
        with publish(self._path(key)) as handle:
            handle.write(data)

    def reap_temporaries(self) -> list[str]:
        reaped = []
        for path in self.root.iterdir():
            if path.is_file() and path.suffix == ".tmp":
                path.unlink()
                reaped.append(path.name)
        if reaped:
            fsync_dir(self.root)
        return sorted(reaped)

    def _get(self, key: str) -> bytes:
        try:
            return self._path(key).read_bytes()
        except FileNotFoundError:
            raise NotFoundError(f"object {key!r} not found") from None

    def _get_range(self, key: str, offset: int, length: int) -> bytes:
        # One path walk and one positioned read: checking for the file
        # first would let a concurrent delete_object turn the typed
        # NotFoundError into a raw FileNotFoundError.
        try:
            fd = os.open(self._path(key), os.O_RDONLY)
            try:
                return os.pread(fd, length, offset)
            finally:
                os.close(fd)
        except FileNotFoundError:
            raise NotFoundError(f"object {key!r} not found") from None

    def _delete(self, key: str) -> None:
        try:
            self._path(key).unlink()
        except FileNotFoundError:
            raise NotFoundError(f"object {key!r} not found") from None

    def _exists(self, key: str) -> bool:
        return self._path(key).exists()

    def list_keys(self, prefix: str = "") -> list[str]:
        safe_prefix = prefix.replace("/", "_")
        return sorted(
            p.name for p in self.root.iterdir()
            if p.is_file() and not p.suffix == ".tmp" and p.name.startswith(safe_prefix)
        )

    def object_size(self, key: str) -> int:
        try:
            return self._path(key).stat().st_size
        except FileNotFoundError:
            raise NotFoundError(f"object {key!r} not found") from None
