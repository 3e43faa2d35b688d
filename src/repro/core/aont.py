"""All-or-nothing transforms: Rivest's package transform and OAEP-based AONT.

An AONT is an unkeyed, invertible transform with the property that *every*
output byte is needed to recover *any* input byte [53].  AONT-RS uses it so
that fewer than ``k`` Reed-Solomon shares reveal nothing (§2).

Two constructions are implemented:

``rivest_aont_encode`` / ``rivest_aont_decode``
    Rivest's package transform [53] as described in §2 of the paper: the
    input (plus a canary word for integrity) is split into 16-byte words;
    word ``i`` is masked with ``E(key, i)`` — one block-cipher invocation
    per word; the tail is ``key XOR H(masked words)``.  The per-word
    encryptions are the performance weakness CAONT-RS removes.

``oaep_aont_encode`` / ``oaep_aont_decode``
    The OAEP-based AONT [11, 20] of §3.2: the whole input is masked in one
    pass, ``Y = X XOR G(key)`` (Eq. 2) with ``G(key) = E(key, C)`` (Eq. 3),
    and the tail is ``t = key XOR H(Y)`` (Eq. 4).  Boyko [20] shows OAEP
    provides no worse security than any AONT.

Both take the key as an argument: a random key yields the classical
transforms; the convergent hash ``h = H(X)`` yields the deduplicable
variants.  Keys and tails are 32 bytes (AES-256 / SHA-256).  The masks of
the two constructions come from the same CTR stream, so the performance
comparison isolates exactly the call-granularity difference the paper
measures in Figure 5.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.crypto.ciphers import AesCtr, mask_block, mask_stack
from repro.crypto.hashing import HASH_SIZE, sha256
from repro.errors import CryptoError, IntegrityError

__all__ = [
    "CANARY",
    "CANARY_SIZE",
    "oaep_aont_encode",
    "oaep_aont_decode",
    "rivest_aont_encode",
    "rivest_aont_encode_batch",
    "rivest_aont_decode",
    "rivest_package_size",
]

#: Rivest's AONT appends a known canary word so decoders can detect
#: corruption (§2: "adds an extra canary word for integrity checking").
CANARY_SIZE = 16
CANARY = b"\xc4\x0a\x12\xee" * 4

_WORD = 16  # AES block size; Rivest's AONT masks word-by-word


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings (big ints when short, numpy for bulk)."""
    if len(a) != len(b):
        raise CryptoError(f"xor length mismatch: {len(a)} vs {len(b)}")
    if len(a) <= 64:
        return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(
            len(a), "big"
        )
    return (
        np.frombuffer(a, dtype=np.uint8) ^ np.frombuffer(b, dtype=np.uint8)
    ).tobytes()


# ---------------------------------------------------------------------------
# OAEP-based AONT (CAONT-RS's transform, §3.2)
# ---------------------------------------------------------------------------


def oaep_aont_encode(secret: bytes, key: bytes) -> bytes:
    """Transform ``(secret, key)`` into the package ``Y || t``.

    ``Y = secret XOR G(key)`` and ``t = key XOR H(Y)`` (Eq. 2-4).  The
    package is ``len(secret) + 32`` bytes.
    """
    if len(key) != HASH_SIZE:
        raise CryptoError(f"AONT key must be {HASH_SIZE} bytes, got {len(key)}")
    head = _xor_bytes(secret, mask_block(key, len(secret)))
    tail = _xor_bytes(key, sha256(head))
    return head + tail


def oaep_aont_decode(package: bytes) -> tuple[bytes, bytes]:
    """Invert :func:`oaep_aont_encode`; returns ``(secret, key)``.

    The caller is responsible for integrity verification against the key
    (CAONT-RS checks ``H(secret) == key``; AONT-RS cannot, its key being
    random, and relies on the canary of the Rivest variant or share-level
    fingerprints).
    """
    if len(package) < HASH_SIZE:
        raise CryptoError(
            f"package too short ({len(package)} bytes) to contain a tail"
        )
    head, tail = package[:-HASH_SIZE], package[-HASH_SIZE:]
    key = _xor_bytes(tail, sha256(head))
    secret = _xor_bytes(head, mask_block(key, len(head)))
    return secret, key


# ---------------------------------------------------------------------------
# Rivest's package transform (AONT-RS's transform, §2)
# ---------------------------------------------------------------------------


def rivest_package_size(secret_size: int) -> int:
    """Package size for a ``secret_size``-byte input (canary + padding + tail)."""
    body = secret_size + CANARY_SIZE
    body += (-body) % _WORD
    return body + HASH_SIZE


def rivest_aont_encode(secret: bytes, key: bytes, per_word: bool = True) -> bytes:
    """Rivest's package transform of ``secret`` under ``key``.

    The secret plus canary is padded to 16-byte words; word ``i`` is
    XOR-masked with ``E(key, i)``.  The tail is ``key XOR H(masked words)``.
    Package layout: ``masked_words || tail``, with the canary and padding
    inside the masked region (stripped by the decoder from the original
    length, which AONT-RS carries in share metadata).

    ``per_word=True`` (default) performs one cipher invocation per 16-byte
    word, faithfully reproducing the cost profile that makes Rivest's AONT
    slower than OAEP (Figure 5).  ``per_word=False`` batches the mask
    generation — identical output bytes, for callers that want the Rivest
    *format* without the per-word overhead.
    """
    if len(key) != HASH_SIZE:
        raise CryptoError(f"AONT key must be {HASH_SIZE} bytes, got {len(key)}")
    body = secret + CANARY
    body += b"\0" * ((-len(body)) % _WORD)
    ctr = AesCtr(key)
    if per_word:
        out = bytearray(len(body))
        view = memoryview(body)
        for i, mask in enumerate(ctr.word_stream(len(body) // _WORD)):
            start = i * _WORD
            word = int.from_bytes(view[start : start + _WORD], "little")
            word ^= int.from_bytes(mask, "little")
            out[start : start + _WORD] = word.to_bytes(_WORD, "little")
        masked = bytes(out)
    else:
        masked = _xor_bytes(body, ctr.keystream(len(body)))
    tail = _xor_bytes(key, sha256(masked))
    return masked + tail


def rivest_aont_encode_batch(secrets, keys) -> np.ndarray:
    """Bulk-mask Rivest transform of equal-length secrets; ``(B, pkg)`` stack.

    Row ``b`` equals ``rivest_aont_encode(secrets[b], keys[b])`` — the
    per-word and bulk paths produce identical bytes — but the canary/pad
    assembly and the masking XOR run once over the whole stack.  Masks stay
    per-secret (each key starts its own CTR stream).  This is the fast path
    for ``per_word=False`` codecs; ``per_word=True`` callers keep the
    per-word loop because the call granularity *is* the cost model that
    Figure 5 measures.
    """
    if len(secrets) != len(keys):
        raise CryptoError(
            f"got {len(secrets)} secrets but {len(keys)} keys"
        )
    if not secrets:
        return np.zeros((0, rivest_package_size(0)), dtype=np.uint8)
    size = len(secrets[0])
    body_size = rivest_package_size(size) - HASH_SIZE
    batch = len(secrets)
    canary = np.frombuffer(CANARY, dtype=np.uint8)
    out = np.zeros((batch, body_size + HASH_SIZE), dtype=np.uint8)
    bodies = out[:, :body_size]
    for key in keys:
        if len(key) != HASH_SIZE:
            raise CryptoError(
                f"AONT key must be {HASH_SIZE} bytes, got {len(key)}"
            )
    for row, secret in enumerate(secrets):
        bodies[row, :size] = np.frombuffer(secret, dtype=np.uint8)
        bodies[row, size : size + CANARY_SIZE] = canary
    # Per-secret masks via the batched ECB-of-counters kernel, one XOR pass.
    np.bitwise_xor(bodies, mask_stack(list(keys), body_size), out=bodies)
    for row, key in enumerate(keys):
        digest = hashlib.sha256(bodies[row]).digest()
        tail = int.from_bytes(key, "big") ^ int.from_bytes(digest, "big")
        out[row, body_size:] = np.frombuffer(
            tail.to_bytes(HASH_SIZE, "big"), dtype=np.uint8
        )
    return out


def rivest_aont_decode(package: bytes, secret_size: int) -> tuple[bytes, bytes]:
    """Invert :func:`rivest_aont_encode`; returns ``(secret, key)``.

    Verifies the embedded canary and raises :class:`IntegrityError` on
    mismatch (the "extra canary word for integrity checking" of §2).
    Decoding uses the bulk mask path; the paper reports decoding speeds
    mirror encoding, so only encode models the per-word cost.
    """
    if len(package) < HASH_SIZE + _WORD:
        raise CryptoError(f"package too short ({len(package)} bytes)")
    masked, tail = package[:-HASH_SIZE], package[-HASH_SIZE:]
    if len(masked) % _WORD:
        raise CryptoError("Rivest package body not word-aligned")
    if secret_size > len(masked) - CANARY_SIZE:
        raise CryptoError(
            f"secret_size {secret_size} too large for package body {len(masked)}"
        )
    key = _xor_bytes(tail, sha256(masked))
    body = _xor_bytes(masked, AesCtr(key).keystream(len(masked)))
    secret, trailer = body[:secret_size], body[secret_size:]
    if trailer[:CANARY_SIZE] != CANARY:
        raise IntegrityError("Rivest AONT canary mismatch: corrupt package")
    return secret, key
