"""Chunking substrate (§4.2): a registry of selectable chunkers.

A CDStore client splits each backup file into *secrets* (chunks) before
convergent dispersal.  Variable-size chunking — content-defined boundaries
from a rolling fingerprint — is the default because it is robust to
content shifting; the paper configures average/min/max chunk sizes of
8 KB / 2 KB / 16 KB (§4.2), which every variable-size chunker here keeps.

Three chunkers are registered (see :mod:`repro.chunking.registry` for the
``name:key=value,...`` spec-string grammar used by the CLI and benchmarks);
:data:`DEFAULT_CHUNKER` is the one place the default is named:

* ``rabin`` (default) — the paper's Rabin-fingerprint chunker [49];
* ``gear`` — FastCDC-style gear chunker: the boundary robustness of
  ``rabin`` at about three times the ingest throughput (normalized masks,
  a 16-byte window on the :mod:`~repro.chunking.scan` kernel both share),
  for under one percentage point of dedup saving;
* ``fixed`` — fixed-size chunks (§4.2's simpler alternative, used by the
  VM dataset).
"""

from repro.chunking.base import Chunk, Chunker
from repro.chunking.fixed import FixedChunker
from repro.chunking.gear import GEAR_WINDOW, GearChunker
from repro.chunking.rabin import RabinChunker
from repro.chunking.registry import (
    DEFAULT_CHUNKER,
    ChunkerSpec,
    chunker_names,
    create_chunker,
    register_chunker,
)

__all__ = [
    "Chunk",
    "Chunker",
    "ChunkerSpec",
    "DEFAULT_CHUNKER",
    "FixedChunker",
    "GEAR_WINDOW",
    "GearChunker",
    "RabinChunker",
    "chunker_names",
    "create_chunker",
    "register_chunker",
]
