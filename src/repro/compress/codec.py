"""Recipe codec: stored-or-zlib behind a self-describing method byte.

Format: 1 method byte | body.

* method 0 — stored (incompressible input; never expands data by more
  than the one-byte header);
* method 3 — zlib (DEFLATE), chosen only when smaller than stored.

Bytes 1 and 2 named the retired hand-rolled LZSS / LZSS+Huffman coders;
they are rejected like any unknown method, so an old blob fails typed
instead of mis-decoding.

:func:`compress_recipe` / :func:`decompress_recipe` wrap the codec for
file recipes, the metadata the paper highlights as compressible [41]:
recipes are runs of 36-byte entries whose fingerprints repeat across
versions, which DEFLATE folds into back-references.
"""

from __future__ import annotations

import zlib

from repro.errors import ParameterError

__all__ = ["compress", "decompress", "compress_recipe", "decompress_recipe"]

METHOD_STORED = 0
METHOD_ZLIB = 3


def compress(data: bytes) -> bytes:
    """Compress ``data``, falling back to stored when zlib does not shrink it."""
    packed = zlib.compress(data)
    if len(packed) < len(data):
        return bytes([METHOD_ZLIB]) + packed
    return bytes([METHOD_STORED]) + data


def decompress(blob: bytes, expected_size: int | None = None) -> bytes:
    """Invert :func:`compress`.

    Hostile input fails with :class:`ParameterError`.  With
    ``expected_size`` the output must be exactly that long, and a zlib
    body is never inflated past it — a small blob cannot allocate
    without bound.
    """
    if not blob:
        raise ParameterError("empty compressed blob")
    method, body = blob[0], blob[1:]
    if method == METHOD_STORED:
        return _sized(body, expected_size)
    if method == METHOD_ZLIB:
        return _sized(_inflate(body, expected_size), expected_size)
    raise ParameterError(f"unknown compression method byte {method}")


def _sized(out: bytes, expected_size: int | None) -> bytes:
    if expected_size is not None and len(out) != expected_size:
        raise ParameterError(f"blob holds {len(out)} bytes, expected {expected_size}")
    return out


def _inflate(body: bytes, expected_size: int | None) -> bytes:
    inflater = zlib.decompressobj()
    # One byte of slack: an over-long stream then stops short of its end
    # without being inflated any further.  0 means unbounded.
    max_length = 0 if expected_size is None else expected_size + 1
    try:
        out = inflater.decompress(body, max_length)
    except zlib.error as exc:
        raise ParameterError(f"corrupt zlib body: {exc}") from exc
    if not inflater.eof:
        raise ParameterError("zlib body is truncated or longer than expected")
    if inflater.unused_data:
        raise ParameterError("trailing bytes after the zlib stream")
    return out


_RECIPE_MAGIC = b"RCPZ"


def compress_recipe(recipe_blob: bytes) -> bytes:
    """Compress a file-recipe blob (magic-framed so readers can detect it)."""
    return _RECIPE_MAGIC + compress(recipe_blob)


def decompress_recipe(blob: bytes, expected_size: int | None = None) -> bytes:
    """Transparently decompress a recipe blob (pass through unframed blobs).

    ``expected_size`` bounds and checks the output as in :func:`decompress`.
    """
    if blob.startswith(_RECIPE_MAGIC):
        return decompress(blob[len(_RECIPE_MAGIC):], expected_size)
    return _sized(blob, expected_size)
