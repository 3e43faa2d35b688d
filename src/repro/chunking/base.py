"""Chunker interface and the :class:`Chunk` value object."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = ["Chunk", "Chunker"]


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

    def chunk_stream(self, blocks: Iterable[bytes]) -> Iterator[Chunk]:
        """Chunk a stream of byte blocks as one logical file.

        Default implementation buffers the stream; subclasses with rolling
        state may override for true streaming.
        """
        data = b"".join(blocks)
        yield from self.chunk_bytes(data)
