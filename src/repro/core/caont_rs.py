"""CAONT-RS: the paper's new convergent-dispersal instantiation (§3.2).

Encoding (Figure 3, Eq. 1-4):

1. ``h = H(salt || X)`` — a deterministic hash key instead of a random key;
2. ``Y = X' XOR G(h)`` with ``G(h) = E(h, C)`` — a *single* bulk encryption
   of a constant block (OAEP-based AONT), where ``X'`` is ``X`` zero-padded
   so the package divides evenly into ``k`` pieces;
3. ``t = h XOR H(Y)``;
4. the package ``(Y, t)`` is divided into ``k`` pieces and encoded into
   ``n`` shares with a systematic Reed-Solomon code; share ``i`` goes to
   cloud ``i`` so identical secrets deduplicate per cloud.

Decoding retrieves any ``k`` shares, rebuilds ``(Y, t)``, deduces
``h = t XOR H(Y)`` and ``X' = Y XOR G(h)``, strips the padding, and
verifies integrity by re-deriving ``H(X)`` and comparing with ``h``.

Deterministic: identical secrets (same salt) yield identical shares —
the property that enables CDStore's two-stage deduplication.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from repro.core.aont import oaep_aont_decode, oaep_aont_encode
from repro.core.package_codec import PackageRSCodec
from repro.crypto.ciphers import mask_spans, mask_stack
from repro.crypto.hashing import HASH_SIZE, hash_key
from repro.errors import IntegrityError

__all__ = ["CAONTRS"]


class CAONTRS(PackageRSCodec):
    """(n, k) CAONT-RS — CDStore's default codec.

    Parameters
    ----------
    n, k:
        Dispersal parameters: any ``k`` of ``n`` shares reconstruct, no
        ``k - 1`` reveal anything (computationally).
    salt:
        Optional organisation-wide salt mixed into the hash key (§3.2
        "optionally salted"); scopes deduplication and blunts offline
        dictionary attacks by outsiders.
    """

    name = "caont-rs"
    deterministic = True

    def __init__(
        self, n: int, k: int, salt: bytes = b"", rs_matrix: str = "vandermonde"
    ) -> None:
        super().__init__(n, k, rs_matrix=rs_matrix)
        self.salt = bytes(salt)

    # ------------------------------------------------------------------
    def _padded_secret_size(self, secret_size: int) -> int:
        """Pad X so that len(X') + HASH_SIZE divides evenly by k (§3.2)."""
        return secret_size + (-(secret_size + HASH_SIZE)) % self.k

    def _package_size(self, secret_size: int) -> int:
        return self._padded_secret_size(secret_size) + HASH_SIZE

    def _make_package(self, secret: bytes) -> bytes:
        key = hash_key(secret, self.salt)
        padded = secret + b"\0" * (self._padded_secret_size(len(secret)) - len(secret))
        return oaep_aont_encode(padded, key)

    def _draw_keys(self, secrets: Sequence[bytes]) -> list[bytes] | None:
        # Eq. 1's h, when the caller already computed it (KeyedSecrets).
        return getattr(secrets, "hash_keys", None)

    def _make_packages(
        self, secrets: Sequence[bytes], keys: Sequence[bytes] | None = None
    ) -> np.ndarray:
        """Vectorised Eq. 1-4 over a stack of equal-length secrets.

        The hash keys and CTR masks are necessarily per-secret (each secret
        keys its own stream), but the masks come from the one-shot
        AES-ECB-of-counters kernel (:func:`repro.crypto.ciphers.mask_stack`
        — one cached counter buffer, one EVP setup per key and nothing
        else) and the AONT XOR ``Y = X' ^ G(h)`` runs once over the whole
        ``(B, padded)`` block, with the caller batching the Reed-Solomon
        stage behind it.  Byte-identical to looping :meth:`_make_package`.
        """
        if not secrets:
            return np.zeros((0, self._package_size(0)), dtype=np.uint8)
        size = len(secrets[0])
        padded_size = self._padded_secret_size(size)
        batch = len(secrets)
        out = np.zeros((batch, padded_size + HASH_SIZE), dtype=np.uint8)
        heads = out[:, :padded_size]
        keys = (
            [hash_key(secret, self.salt) for secret in secrets]
            if keys is None
            else list(keys)
        )
        for row, secret in enumerate(secrets):
            heads[row, :size] = np.frombuffer(secret, dtype=np.uint8)
        # Y = X' ^ G(h): one batched kernel for the masks, one XOR pass.
        np.bitwise_xor(heads, mask_stack(keys, padded_size), out=heads)
        for row, key in enumerate(keys):
            digest = hashlib.sha256(heads[row]).digest()  # H(Y), no copy
            tail = int.from_bytes(key, "big") ^ int.from_bytes(digest, "big")
            out[row, padded_size:] = np.frombuffer(
                tail.to_bytes(HASH_SIZE, "big"), dtype=np.uint8
            )
        return out

    def _open_packages(
        self, packages: bytes | np.ndarray, spans: list[tuple[int, int]]
    ) -> list[bytes]:
        """Vectorised decode over a run of packages laid end to end.

        The decode mirror of :meth:`_make_packages`.  Per secret only the
        irreducible work stays: ``h = t XOR H(Y)``, the AES key setup of
        ``G(h)`` and the ``H(X) == h`` check.  The masks of the whole run
        go into one buffer (:func:`repro.crypto.ciphers.mask_spans`), one
        XOR turns it into the run's plaintext, and each secret is one
        ``bytes`` copy out of it.  Byte-identical to looping
        :meth:`_open_package`; raises :class:`IntegrityError` if any
        secret of the run fails its check.
        """
        view = memoryview(packages)
        keys = []
        for offset, size in spans:
            tail = offset + self._padded_secret_size(size)
            digest = hashlib.sha256(view[offset:tail]).digest()  # H(Y)
            key = int.from_bytes(view[tail : tail + HASH_SIZE], "big")
            keys.append(
                (key ^ int.from_bytes(digest, "big")).to_bytes(HASH_SIZE, "big")
            )
        # X' = Y ^ G(h) over the whole run; only the secrets' bytes matter.
        plain = mask_spans(keys, spans, len(view))
        np.bitwise_xor(np.frombuffer(packages, dtype=np.uint8), plain, out=plain)
        plain_view = memoryview(plain)
        salted = hashlib.sha256(self.salt)
        secrets = []
        for (offset, size), key in zip(spans, keys):
            secret = plain_view[offset : offset + size]
            check = salted.copy()
            check.update(secret)
            if check.digest() != key:
                raise IntegrityError(
                    "caont-rs: recovered hash key does not match H(secret); "
                    "decoded secret is corrupt"
                )
            secrets.append(bytes(secret))
        return secrets

    def _open_package(self, package: bytes, secret_size: int) -> bytes:
        padded, key = oaep_aont_decode(package)
        secret = padded[:secret_size]
        if hash_key(secret, self.salt) != key:
            raise IntegrityError(
                "caont-rs: recovered hash key does not match H(secret); "
                "decoded secret is corrupt"
            )
        return secret

    # ------------------------------------------------------------------
    def hash_key_of(self, secret: bytes) -> bytes:
        """Expose ``h = H(salt || X)`` (Eq. 1) for diagnostics and tests."""
        return hash_key(secret, self.salt)
