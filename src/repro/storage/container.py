"""Container management (§4.5).

The container module maintains two kinds of containers at the storage
backend: *share containers* holding globally-unique shares and *recipe
containers* holding file recipes.  Containers are capped at 4 MB — except
that an oversized file recipe is kept whole in its own container rather
than split, "to reduce I/Os".

Two I/O optimisations from the paper are implemented:

* **per-user write buffers** — shares/recipes are buffered per user so
  "each container contains only the data of a single user", retaining the
  spatial locality deduplicated restores rely on [62];
* an **LRU container cache** holding the most recently accessed containers
  to cut backend reads.

Container wire format::

    u32 magic | u8 kind | u32 count | count * (u32 keylen | u32 len | key | payload)
    | count * u32 entry_offset | u32 entries_end | u32 count | u32 footer_magic

The trailing **offset footer** (one ``u32`` per entry plus a 12-byte
trailer) lets readers locate any entry, and any run of adjacent entries,
with a single ranged backend read — the restore path serves a window of
shares the way backup wrote it, one read per contiguous run, without ever
materialising a whole 4 MB container in server memory (see
:meth:`ContainerManager.read_entries`).  Deserialisation accepts
footer-less blobs for compatibility with containers written before the
footer existed.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

from repro.errors import NotFoundError, ParameterError, StorageError
from repro.lsm.cache import LRUCache
from repro.storage.backend import StorageBackend
from repro.storage.journal import ContainerJournal

__all__ = ["CONTAINER_CAP", "Container", "ContainerManager", "ContainerRef"]

#: Maximum container payload (4 MB, §4.5).
CONTAINER_CAP = 4 << 20

_MAGIC = 0xCD57043E
_HEADER = struct.Struct(">IBI")
_ENTRY = struct.Struct(">II")
_FOOTER_MAGIC = 0xCD5700F7
#: Footer trailer: entries_end | entry count | footer magic.
_TRAILER = struct.Struct(">III")

KIND_SHARE = 1
KIND_RECIPE = 2
_KINDS = {KIND_SHARE, KIND_RECIPE}


@dataclass(frozen=True)
class ContainerRef:
    """Location of one entry inside a container.

    The share index stores one of these per unique share (§4.4: each entry
    "stores the reference to the container that holds the share").
    """

    container_id: str
    entry_index: int

    def pack(self) -> bytes:
        cid = self.container_id.encode("ascii")
        return struct.pack(">HI", len(cid), self.entry_index) + cid

    @classmethod
    def unpack(cls, blob: bytes) -> "ContainerRef":
        if len(blob) < 6:
            raise StorageError("ContainerRef blob truncated")
        cid_len, entry = struct.unpack_from(">HI", blob)
        if len(blob) < 6 + cid_len:
            raise StorageError("ContainerRef id truncated")
        try:
            cid = blob[6 : 6 + cid_len].decode("ascii")
        except UnicodeDecodeError as exc:
            raise StorageError(f"ContainerRef id not ASCII: {exc}") from exc
        return cls(container_id=cid, entry_index=entry)


class Container:
    """An in-memory container: an ordered list of (key, payload) entries."""

    def __init__(self, kind: int) -> None:
        if kind not in _KINDS:
            raise ParameterError(f"unknown container kind {kind}")
        self.kind = kind
        self.entries: list[tuple[bytes, bytes]] = []
        self.payload_bytes = 0

    def add(self, key: bytes, payload: bytes) -> int:
        """Append an entry; returns its index within the container."""
        self.entries.append((key, payload))
        self.payload_bytes += len(key) + len(payload)
        return len(self.entries) - 1

    @property
    def full(self) -> bool:
        return self.payload_bytes >= CONTAINER_CAP

    def serialize(self) -> bytes:
        parts = [_HEADER.pack(_MAGIC, self.kind, len(self.entries))]
        offsets: list[int] = []
        pos = _HEADER.size
        for key, payload in self.entries:
            offsets.append(pos)
            parts.append(_ENTRY.pack(len(key), len(payload)))
            parts.append(key)
            parts.append(payload)
            pos += _ENTRY.size + len(key) + len(payload)
        parts.append(struct.pack(f">{len(offsets)}I", *offsets))
        parts.append(_TRAILER.pack(pos, len(offsets), _FOOTER_MAGIC))
        return b"".join(parts)

    @classmethod
    def deserialize(cls, blob: bytes) -> "Container":
        if len(blob) < _HEADER.size:
            raise StorageError("container blob truncated")
        magic, kind, count = _HEADER.unpack_from(blob)
        if magic != _MAGIC:
            raise StorageError("bad container magic")
        container = cls(kind)
        pos = _HEADER.size
        for _ in range(count):
            if pos + _ENTRY.size > len(blob):
                raise StorageError("container entry header truncated")
            keylen, paylen = _ENTRY.unpack_from(blob, pos)
            pos += _ENTRY.size
            if pos + keylen + paylen > len(blob):
                raise StorageError("container entry body truncated")
            key = blob[pos : pos + keylen]
            pos += keylen
            payload = blob[pos : pos + paylen]
            pos += paylen
            container.add(key, payload)
        # Trailing bytes must be a valid offset footer (or absent entirely,
        # for blobs written before the footer existed): a truncated or
        # garbled footer means the blob cannot be trusted.
        if pos != len(blob):
            parse_footer(blob[pos:], entries_end=pos, count=count)
        return container


def parse_footer(
    footer: bytes, entries_end: int, count: int | None = None
) -> list[int]:
    """Validate an offset footer; returns the per-entry start offsets.

    ``entries_end`` is the absolute offset where the footer begins (i.e.
    where the last entry ends); ``count``, when known, is cross-checked
    against the footer's own entry count.  Raises :class:`StorageError` on
    any disagreement — ranged readers must fail loudly rather than slice
    at stale offsets.
    """
    if len(footer) < _TRAILER.size:
        raise StorageError("container footer truncated")
    end, footer_count, magic = _TRAILER.unpack_from(footer, len(footer) - _TRAILER.size)
    if magic != _FOOTER_MAGIC:
        raise StorageError("bad container footer magic")
    if end != entries_end:
        raise StorageError(
            f"container footer end {end} != entry region end {entries_end}"
        )
    if count is not None and footer_count != count:
        raise StorageError(
            f"container footer counts {footer_count} entries, header {count}"
        )
    if len(footer) != _TRAILER.size + 4 * footer_count:
        raise StorageError("container footer size mismatch")
    offsets = list(struct.unpack_from(f">{footer_count}I", footer))
    bounds = offsets + [entries_end]
    if any(a >= b for a, b in zip(bounds, bounds[1:])) or (
        offsets and offsets[0] != _HEADER.size
    ):
        raise StorageError("container footer offsets not monotonic")
    return offsets


def _pick(
    container_id: str, entries: list[tuple[bytes, bytes]], indices: list[int]
) -> list[tuple[bytes, bytes]]:
    """Entries ``indices`` of a container already held as an entry list."""
    for index in indices:
        if not 0 <= index < len(entries):
            raise NotFoundError(f"entry {index} not in container {container_id}")
    return [entries[index] for index in indices]


def _slice_entries(
    container_id: str, span: bytes, base: int, bounds: list[int], indices: list[int]
) -> list[tuple[bytes, bytes]]:
    """Cut entries ``indices`` out of ``span``, which starts at container
    offset ``base``; each payload is copied once, out of a memoryview.

    An entry header that disagrees with its footer span is corruption:
    fail loudly rather than slice at stale offsets.
    """
    view = memoryview(span)
    out = []
    for index in indices:
        start, stop = bounds[index] - base, bounds[index + 1] - base
        body = start + _ENTRY.size
        # A span too short for its own header fails the same comparison.
        keylen, paylen = _ENTRY.unpack_from(view, start) if body <= stop else (0, 0)
        if body + keylen + paylen != stop:
            raise StorageError(
                f"entry {index} of {container_id} disagrees with its footer span"
            )
        key_end = body + keylen
        out.append((bytes(view[body:key_end]), bytes(view[key_end:stop])))
    return out


class ContainerManager:
    """Buffers, writes, caches and reads containers at one backend.

    Two ways to read: :meth:`read_container` / :meth:`read_entry`
    materialise a whole container and keep it in the LRU cache (recipes,
    scrub, GC); :meth:`read_entries` is the restore path — any set of
    entries, one ranged backend read per run of adjacent ones, nothing
    cached but the containers' offset tables.  The manager owns no lock:
    the server serialises every call under its own.

    Parameters
    ----------
    backend:
        The cloud's object store.
    cache_bytes:
        Capacity of the LRU container cache (default 32 MB).
    journal:
        Optional :class:`~repro.storage.journal.ContainerJournal`.  When
        present the manager runs in **crash-only** mode: every append is
        journaled before it is buffered, :meth:`commit` makes a batch of
        appends durable (the server calls it before each wire ack), and
        construction replays the journal — republishing every journaled
        container under its original id, so acked ``ContainerRef``\\ s
        stay valid across kill -9.
    on_seal:
        Optional callback ``(user_id, container_id, payload_bytes)``
        invoked whenever a user's container is sealed (accounting hook;
        solo oversized recipes report the owning user too).
    """

    def __init__(
        self,
        backend: StorageBackend,
        cache_bytes: int = 32 << 20,
        journal: ContainerJournal | None = None,
        on_seal=None,
    ) -> None:
        self.backend = backend
        self.journal = journal
        self.on_seal = on_seal
        self._cache = LRUCache(cache_bytes, size_of=len)
        # Offset tables for ranged entry reads: container id -> entry
        # start offsets + entry-region end.  A table is ~4 bytes per
        # entry, so 1 MB caches tables for hundreds of 4 MB containers.
        self._footers = LRUCache(1 << 20, size_of=lambda bounds: 4 * len(bounds))
        # Per-(user, kind) open write buffers: single-user containers (§4.5).
        self._buffers: dict[tuple[str, int], Container] = {}
        self._buffer_ids: dict[tuple[str, int], str] = {}
        #: Ranged entry reads issued to the backend by :meth:`read_entries`
        #: — one per contiguous run, however many entries the run carries.
        self.range_reads = 0
        self._next_id = 0
        self._restore_next_id()
        # Replay *before* the first append: journaled ids must be
        # republished (and counted) before _new_container_id could
        # re-allocate one of them.
        self.recovered_containers: list[str] = (
            self._recover() if journal is not None else []
        )

    def _restore_next_id(self) -> None:
        keys = self.backend.list_keys("container-")
        for key in keys:
            try:
                self._next_id = max(self._next_id, int(key.split("-")[1]) + 1)
            except (IndexError, ValueError):
                continue

    def _new_container_id(self) -> str:
        cid = f"container-{self._next_id:010d}"
        self._next_id += 1
        return cid

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, user_id: str, kind: int, key: bytes, payload: bytes) -> ContainerRef:
        """Buffer one entry for ``user_id``; returns its future location.

        The entry lands in the user's open container, which is sealed and
        written to the backend once it reaches the 4 MB cap.  An oversized
        recipe bypasses the cap and is written alone in its own container
        (§4.5 "we keep the file recipe in a single container and allow the
        container to go beyond 4MB").
        """
        if kind not in _KINDS:
            raise ParameterError(f"unknown container kind {kind}")
        if kind == KIND_RECIPE and len(payload) >= CONTAINER_CAP:
            solo = Container(kind)
            solo.add(key, payload)
            # Sealed (published durably) right here, so the solo path
            # needs no journal record to survive a crash.
            cid = self._seal(solo, user_id=user_id)
            return ContainerRef(container_id=cid, entry_index=0)
        buf_key = (user_id, kind)
        container = self._buffers.get(buf_key)
        if container is None:
            container = Container(kind)
            self._buffers[buf_key] = container
            self._buffer_ids[buf_key] = self._new_container_id()
        entry = container.add(key, payload)
        ref = ContainerRef(
            container_id=self._buffer_ids[buf_key], entry_index=entry
        )
        if self.journal is not None:
            self.journal.record(
                ref.container_id, ref.entry_index, kind, user_id, key, payload
            )
        if container.full:
            self._seal(container, self._buffer_ids[buf_key], user_id=user_id)
            del self._buffers[buf_key]
            del self._buffer_ids[buf_key]
            if not self._buffers and self.journal is not None:
                # Every journaled entry now lives in a published
                # container; start the journal over instead of letting
                # it shadow-copy the whole session.
                self.journal.reset()
        return ref

    def commit(self) -> None:
        """Make every append so far crash-durable (one fsync, batched).

        The serving layer calls this once per upload batch *before* the
        wire ack — the crash-only contract that an acked share is never
        RAM-only.  A no-op without a journal (in-process systems keep
        their original buffer-until-flush behaviour).
        """
        if self.journal is not None:
            self.journal.commit()

    def _seal(
        self, container: Container, cid: str | None = None, user_id: str | None = None
    ) -> str:
        cid = cid or self._new_container_id()
        blob = container.serialize()
        self.backend.put_object(cid, blob)
        self._cache.put(cid, blob)
        if self.on_seal is not None and user_id is not None:
            self.on_seal(user_id, cid, container.payload_bytes)
        return cid

    def flush(self) -> None:
        """Seal and write every open buffer (end of an upload session)."""
        for buf_key, container in list(self._buffers.items()):
            self._seal(container, self._buffer_ids[buf_key], user_id=buf_key[0])
            del self._buffers[buf_key]
            del self._buffer_ids[buf_key]
        if self.journal is not None:
            # All journaled entries are now inside published containers.
            self.journal.reset()

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def _recover(self) -> list[str]:
        """Republish every journaled container missing from the backend.

        Runs at construction (crash-only: every startup is recovery).
        Entries are regrouped by container id and written at their
        journaled indices, so every ``ContainerRef`` handed out before
        the crash resolves to identical bytes.  Containers that already
        exist were sealed before the crash and are skipped.  Ends with a
        journal reset: recovery leaves no half-state behind.
        """
        assert self.journal is not None
        pending: dict[str, dict[int, tuple[int, str, bytes, bytes]]] = {}
        for rec in self.journal.replay():
            pending.setdefault(rec.container_id, {})[rec.entry_index] = (
                rec.kind,
                rec.user_id,
                rec.key,
                rec.payload,
            )
        republished: list[str] = []
        for cid in sorted(pending):
            try:
                self._next_id = max(self._next_id, int(cid.split("-")[1]) + 1)
            except (IndexError, ValueError):
                pass
            if self.backend.exists(cid):
                continue  # sealed before the crash
            entries = pending[cid]
            container = Container(next(iter(entries.values()))[0])
            for index in range(len(entries)):
                if index not in entries:
                    raise StorageError(
                        f"journal for {cid} is missing entry {index}; "
                        "cannot reconstruct acked references"
                    )
                kind, user_id, key, payload = entries[index]
                container.add(key, payload)
            self._seal(container, cid, user_id=entries[0][1])
            republished.append(cid)
        self.journal.reset()
        return republished

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _open_buffer(self, container_id: str) -> Container | None:
        """The unflushed write buffer that will become ``container_id``."""
        for buf_key, cid in self._buffer_ids.items():
            if cid == container_id:
                return self._buffers[buf_key]
        return None

    def _load(self, container_id: str) -> bytes:
        blob = self._cache.get(container_id)
        if blob is None:
            try:
                blob = self.backend.get_object(container_id)
            except NotFoundError:
                # The entry may still sit in an unflushed buffer.
                buffered = self._open_buffer(container_id)
                if buffered is None:
                    raise
                return buffered.serialize()
            self._cache.put(container_id, blob)
        return blob

    def read_entry(
        self, ref: ContainerRef, bypass_cache: bool = False
    ) -> tuple[bytes, bytes]:
        """Fetch one ``(key, payload)`` entry by reference."""
        container = self.read_container(ref.container_id, bypass_cache=bypass_cache)
        return _pick(ref.container_id, container.entries, [ref.entry_index])[0]

    # ------------------------------------------------------------------
    # ranged reading (bounded server memory)
    # ------------------------------------------------------------------
    def _entry_bounds(self, container_id: str, blob: bytes | None) -> list[int] | None:
        """Offset table of ``container_id``: entry ``i`` spans
        ``bounds[i]:bounds[i + 1]``.

        Parsed from ``blob`` when the caller already holds the container
        (a cache hit), else read via two ranged backend reads (trailer,
        then the table); cached either way — the table is ~4 bytes per
        entry, three orders of magnitude smaller than the container it
        indexes.  Returns None for a container written before the footer
        existed (no footer magic): legacy blobs are readable, just not
        rangeable.  A *present but inconsistent* footer still raises —
        that is corruption, not age.
        """
        bounds = self._footers.get(container_id)
        if bounds is not None:
            return bounds
        if blob is not None:
            size = len(blob)

            def read(offset: int, length: int) -> bytes:
                return blob[offset : offset + length]
        else:
            size = self.backend.object_size(container_id)
            read = functools.partial(self.backend.get_range, container_id)
        if size < _HEADER.size + _TRAILER.size:
            return None  # too small to carry a footer: legacy or empty
        end, count, magic = _TRAILER.unpack(read(size - _TRAILER.size, _TRAILER.size))
        if magic != _FOOTER_MAGIC:
            return None  # pre-footer container
        footer_size = _TRAILER.size + 4 * count
        if end != size - footer_size:
            raise StorageError(f"container {container_id} footer inconsistent")
        footer = read(end, footer_size)
        bounds = parse_footer(footer, entries_end=end, count=count) + [end]
        self._footers.put(container_id, bounds)
        return bounds

    def read_entries(self, refs: list[ContainerRef]) -> list[tuple[bytes, bytes]]:
        """Fetch many ``(key, payload)`` entries, in the order of ``refs``,
        *without* materialising their containers.

        The one ranged-read path.  Refs are grouped by container and
        sorted by entry index; each container is then served, in
        preference order, from the whole-container LRU cache (already in
        memory; one lookup per container, not per entry), an unflushed
        write buffer, or the backend — **one ranged read per run of
        adjacent entries**, sliced apart at the footer offsets.  Only
        adjacent entries merge (a gap splits a run), so no byte is read
        that was not asked for, and the cold path holds one run plus the
        container's offset table, never the 4 MB blob; the whole-container
        cache is never populated.  Each entry's header must agree with
        its footer span (:class:`StorageError` otherwise — never slice at
        stale offsets); an index past the container's count raises
        :class:`NotFoundError`; nothing partial is returned.  A container
        written before the offset footer existed falls back to one
        whole-container read — old backups stay restorable.
        """
        out: list = [None] * len(refs)
        slots_by_container: dict[str, list[int]] = {}
        for slot, ref in enumerate(refs):
            slots_by_container.setdefault(ref.container_id, []).append(slot)
        for container_id, slots in slots_by_container.items():
            slots.sort(key=lambda slot: refs[slot].entry_index)
            entries = self._read_sorted(
                container_id, [refs[slot].entry_index for slot in slots]
            )
            for slot, entry in zip(slots, entries):
                out[slot] = entry
        return out

    def _read_sorted(
        self, container_id: str, indices: list[int]
    ) -> list[tuple[bytes, bytes]]:
        """Entries ``indices`` (ascending) of one container."""
        blob = self._cache.get(container_id)
        if blob is None:
            buffered = self._open_buffer(container_id)
            if buffered is not None:
                return _pick(container_id, buffered.entries, indices)
        bounds = self._entry_bounds(container_id, blob)
        if bounds is None:  # legacy footer-less container
            return _pick(
                container_id, self.read_container(container_id).entries, indices
            )
        if indices[0] < 0 or indices[-1] >= len(bounds) - 1:
            raise NotFoundError(
                f"entry {indices[-1]} not in container {container_id}"
            )
        if blob is not None:
            return _slice_entries(container_id, blob, 0, bounds, indices)
        out: list[tuple[bytes, bytes]] = []
        first = 0
        for last in range(len(indices)):
            if last + 1 < len(indices) and indices[last + 1] <= indices[last] + 1:
                continue  # the next entry is adjacent (or the same): extend the run
            start, stop = bounds[indices[first]], bounds[indices[last] + 1]
            span = self.backend.get_range(container_id, start, stop - start)
            self.range_reads += 1
            out += _slice_entries(
                container_id, span, start, bounds, indices[first : last + 1]
            )
            first = last + 1
        return out

    def read_container(self, container_id: str, bypass_cache: bool = False) -> Container:
        """Fetch a whole container (restore path: spatial locality).

        ``bypass_cache=True`` forces a backend read and refreshes the
        cache — integrity scrubbing must see the bytes actually stored,
        not a cached pre-corruption copy.
        """
        if bypass_cache:
            blob = self.backend.get_object(container_id)
            self._cache.put(container_id, blob)
            return Container.deserialize(blob)
        return Container.deserialize(self._load(container_id))

    @property
    def cache_stats(self) -> tuple[int, int]:
        """(hits, misses) of the container cache."""
        return self._cache.hits, self._cache.misses
