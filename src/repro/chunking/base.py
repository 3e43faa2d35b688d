"""Chunker interface and the :class:`Chunk` value object."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

__all__ = ["Chunk", "Chunker", "RESYNC_SPAN"]

#: Bytes :meth:`Chunker.resync` scans at a time from a cut where the
#: previous version's chunks stopped matching; doubled while a span holds
#: no complete chunk or ends without finding one of them again.
RESYNC_SPAN = 64 << 10


@dataclass(frozen=True)
class Chunk:
    """One secret produced by chunking.

    Attributes
    ----------
    data:
        Chunk contents (the *secret* fed to convergent dispersal).
    offset:
        Byte offset of the chunk within the source file.
    seq:
        Sequence number within the file (the "sequence number of the input
        secret" stored in share metadata, §4.3).
    """

    data: bytes
    offset: int
    seq: int

    @property
    def size(self) -> int:
        return len(self.data)


class Chunker(abc.ABC):
    """Splits byte streams into chunks deterministically.

    Determinism matters twice: identical files must produce identical
    chunks for deduplication to work, and content-defined boundaries must
    survive insertions (variable-size chunking's whole point).
    """

    def spec(self):
        """The :class:`~repro.chunking.registry.ChunkerSpec` this chunker
        was built from, or None for hand-constructed instances."""
        return getattr(self, "_spec", None)

    def segments(self, size: int) -> int:
        """How many segments the cut scan of a ``size``-byte input runs in
        (:mod:`repro.chunking.scan` spreads them over the CPUs); 1 for a
        chunker without a parallel scan."""
        return 1

    @abc.abstractmethod
    def chunk_bytes(self, data: bytes) -> Iterator[Chunk]:
        """Yield the chunks of ``data`` in order."""

    def resync(
        self,
        data: bytes,
        sizes: Sequence[int],
        keys: Sequence[bytes],
        hash_keys: Callable[[Sequence[bytes]], list[bytes]],
    ) -> tuple[list[Chunk], list[bytes], int]:
        """Chunk ``data`` exactly as :meth:`chunk_bytes` does, reusing the
        cut points of a previous version instead of scanning for them.

        ``sizes`` and ``keys`` are the previous version's chunk sizes and
        hash keys, ``hash_keys`` the batch function that derived the keys
        (the dispersal's ``h = H(salt || X)``, Eq. 1).  At each cut the
        bytes where the next old chunk would lie are hashed; on a match
        that chunk is emitted unscanned.  Otherwise a span from the cut is
        scanned with :meth:`chunk_bytes` and every chunk but its truncated
        tail kept, until a kept chunk's key is one of the old chunks' again.

        The cuts equal a full scan's: a chunk that does not end the input
        is a function of its own bytes (rabin and gear keep ``min_size >=
        window``, fixed has no window), so bytes that formed one before
        form the same chunk from any cut, and a span's chunks before its
        tail are the input's.  The old last chunk ended at EOF and proves
        nothing, so it is never matched.

        Returns ``(chunks, chunk keys, bytes found by hashing)``.
        """
        trusted = len(sizes) - 1
        index: dict[bytes, int] = {}
        for i in range(trusted):
            index.setdefault(keys[i], i)
        chunks: list[Chunk] = []
        found_keys: list[bytes] = []
        reused = 0
        size = len(data)
        pos = 0
        # The old chunk expected at ``pos`` (None: scan until one recurs).
        expect: int | None = 0 if trusted > 0 else None
        span = RESYNC_SPAN
        while pos < size:
            if expect is not None and expect < trusted:
                end = pos + sizes[expect]
                if end <= size:
                    piece = data[pos:end]
                    (key,) = hash_keys([piece])
                    if key == keys[expect]:
                        chunks.append(Chunk(data=piece, offset=pos, seq=len(chunks)))
                        found_keys.append(key)
                        reused += end - pos
                        pos = end
                        expect += 1
                        continue
                expect = None
            end = min(pos + span, size)
            scanned = list(self.chunk_bytes(data[pos:end]))
            span *= 2
            if end < size:
                if len(scanned) < 2:
                    continue
                scanned.pop()
            scanned_keys = hash_keys([chunk.data for chunk in scanned])
            for chunk in scanned:
                chunks.append(
                    Chunk(data=chunk.data, offset=pos + chunk.offset, seq=len(chunks))
                )
            found_keys.extend(scanned_keys)
            pos = chunks[-1].offset + chunks[-1].size
            expect = index.get(scanned_keys[-1])
            if expect is not None:
                expect += 1
                span = RESYNC_SPAN
        return chunks, found_keys, reused

    def chunk_stream(self, blocks: Iterable[bytes]) -> Iterator[Chunk]:
        """Chunk a stream of byte blocks as one logical file.

        Default implementation buffers the stream; subclasses with rolling
        state may override for true streaming.
        """
        data = b"".join(blocks)
        yield from self.chunk_bytes(data)
