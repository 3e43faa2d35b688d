"""Recipe compression (§4.7 "open issues").

The paper defers two storage-efficiency features to future work:
"Compression also effectively reduces storage space of both data [58] and
metadata (e.g., file recipes [41])."  *Share* payloads are encrypted
(AONT output ≈ uniformly random) and do not compress, so CDStore
compresses only the metadata: file recipes, whose fingerprint entries
repeat across versions (Meister et al. [41]).

:mod:`repro.compress.codec` is a thin, bounded wrapper over the stdlib
``zlib``: a self-describing method byte (stored, or DEFLATE when that is
smaller), typed errors on hostile input, and the ``RCPZ``-framed recipe
helpers the CDStore server uses unless constructed with
``recipe_compression=False``.
"""

from repro.compress.codec import (
    compress,
    compress_recipe,
    decompress,
    decompress_recipe,
)

__all__ = [
    "compress",
    "compress_recipe",
    "decompress",
    "decompress_recipe",
]
