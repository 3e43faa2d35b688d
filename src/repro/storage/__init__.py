"""Storage substrate: backends and container management (§4.5).

Each CDStore server packs globally-unique shares into *share containers*
and file recipes into *recipe containers*, capped at 4 MB, and writes them
to the cloud's storage backend.  This package provides:

* :mod:`repro.storage.backend` — the object-store abstraction
  (:class:`MemoryBackend` for tests and simulation,
  :class:`LocalDirBackend` for on-disk runs);
* :mod:`repro.storage.container` — the container format and the
  :class:`ContainerManager` with per-user write buffers, ranged entry
  reads and the crash-only container journal;
* :mod:`repro.storage.durable` — the crash-only file layer: the redo log
  under the journal and the index WAL, and the one atomic ``publish``.
"""

from repro.storage.backend import LocalDirBackend, MemoryBackend, StorageBackend
from repro.storage.container import (
    CONTAINER_CAP,
    Container,
    ContainerManager,
    ContainerRef,
)

__all__ = [
    "CONTAINER_CAP",
    "Container",
    "ContainerManager",
    "ContainerRef",
    "LocalDirBackend",
    "MemoryBackend",
    "StorageBackend",
]
