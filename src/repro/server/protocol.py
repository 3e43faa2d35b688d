"""The formal server API surface, as a :class:`typing.Protocol`.

Before this existed, :class:`repro.net.client.RemoteServerProxy` merely
duck-typed :class:`repro.server.server.CDStoreServer` — nothing stopped
one surface from drifting from the other.  :class:`CDStoreServerAPI` is
now the single declared contract:

* both implementations are checked against it in the test suite
  (``isinstance`` via ``runtime_checkable``);
* every method declared here is carried by a row of the frame table in
  :mod:`repro.net.wire` (``METHOD_FRAMES``) or named in
  ``LOCAL_ONLY_METHODS``, and no row carries a method this class does
  not declare — a test holds the two sets equal, so adding a server
  method without deciding its wire mapping fails tier-1.  A row's field
  names are the method's parameter names: the dispatcher calls by
  keyword.
"""

from __future__ import annotations

from typing import Iterator, Protocol, runtime_checkable

from repro.dedup.stats import DedupStats
from repro.server.index import FileEntry
from repro.server.messages import FileManifest, RecipeEntry, ShareMeta, ShareUpload

__all__ = ["CDStoreServerAPI"]


@runtime_checkable
class CDStoreServerAPI(Protocol):
    """Everything a CDStore cloud server exposes to clients.

    Implemented in-process by :class:`~repro.server.server.CDStoreServer`
    and over TCP by :class:`~repro.net.client.RemoteServerProxy`; the
    comm engine and the repair/scrub walks program against this surface
    only, so a cloud can be local or remote interchangeably.
    """

    server_id: int

    # -- two-stage dedup ingest -------------------------------------------
    def query_duplicates(
        self, user_id: str, fingerprints: list[bytes]
    ) -> list[bool]: ...

    def upload_shares(self, user_id: str, uploads: list[ShareUpload]) -> None: ...

    def finalize_file(
        self,
        user_id: str,
        manifest: FileManifest,
        share_metas: list[ShareMeta],
    ) -> None: ...

    # -- restore ----------------------------------------------------------
    def get_file_entry(self, user_id: str, lookup_key: bytes) -> FileEntry: ...

    def get_recipe(self, user_id: str, lookup_key: bytes) -> list[RecipeEntry]: ...

    def list_files(self, user_id: str) -> list[tuple[bytes, FileEntry]]: ...

    def list_backups(self) -> list[tuple[str, bytes]]: ...

    def fetch_shares(
        self, fingerprints: list[bytes], owner: str | None = None
    ) -> dict[bytes, bytes]: ...

    def iter_share_batches(
        self,
        fingerprints: list[bytes],
        budget_bytes: int = ...,
        cost=None,
        owner: str | None = None,
    ) -> Iterator[list[tuple[bytes, bytes]]]: ...

    # -- maintenance ------------------------------------------------------
    def scrub(self) -> list[bytes]: ...

    def rebuild_recipe(
        self, user_id: str, lookup_key: bytes, entries: list[RecipeEntry]
    ) -> None: ...

    def replace_share(self, server_fp: bytes, data: bytes) -> None: ...

    def delete_file(self, user_id: str, lookup_key: bytes) -> int: ...

    def collect_garbage(self) -> int: ...

    def flush(self) -> None: ...

    # -- observability ----------------------------------------------------
    @property
    def stats(self) -> DedupStats: ...

    @property
    def stored_bytes(self) -> int: ...

    # -- lifecycle (never crosses the wire: LOCAL_ONLY_METHODS) -----------
    def close(self) -> None: ...
