"""CAONT-RS-Rivest: the authors' prior HotStorage'14 instantiation [37].

Identical to AONT-RS except the random key is replaced by the convergent
hash ``h = H(X)`` (optionally salted), making the transform deterministic
and therefore deduplicable.  Retains Rivest's per-word encryptions, which
is why the paper's new OAEP-based CAONT-RS outperforms it by 40-61 %
(Figure 5) — this class exists as that comparison baseline.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.aont import (
    rivest_aont_decode,
    rivest_aont_encode,
    rivest_aont_encode_batch,
    rivest_package_size,
)
from repro.core.package_codec import PackageRSCodec
from repro.crypto.hashing import hash_key
from repro.errors import IntegrityError

__all__ = ["CAONTRSRivest"]


class CAONTRSRivest(PackageRSCodec):
    """(n, k) convergent AONT-RS built on Rivest's AONT.

    Deterministic: identical secrets (under the same ``salt``) produce
    identical shares.
    """

    name = "caont-rs-rivest"
    deterministic = True

    def __init__(
        self,
        n: int,
        k: int,
        salt: bytes = b"",
        per_word: bool = True,
        rs_matrix: str = "vandermonde",
    ) -> None:
        super().__init__(n, k, rs_matrix=rs_matrix)
        self.salt = bytes(salt)
        self._per_word = per_word

    def _make_package(self, secret: bytes) -> bytes:
        key = hash_key(secret, self.salt)
        return rivest_aont_encode(secret, key, per_word=self._per_word)

    def _draw_keys(self, secrets: Sequence[bytes]) -> list[bytes] | None:
        # The convergent h, when the caller already computed it (KeyedSecrets).
        return getattr(secrets, "hash_keys", None)

    def _make_packages(
        self, secrets: Sequence[bytes], keys: Sequence[bytes] | None = None
    ) -> np.ndarray:
        """Batch path: bulk masking only when the per-word cost model is off
        (see :meth:`repro.core.aont_rs.AONTRS._make_packages`).  ``keys``
        are the convergent hashes (computed here when None), so no
        draw-order concern applies."""
        if keys is None:
            keys = [hash_key(secret, self.salt) for secret in secrets]
        if self._per_word:
            return np.stack(
                [
                    np.frombuffer(
                        rivest_aont_encode(secret, key, per_word=True), dtype=np.uint8
                    )
                    for secret, key in zip(secrets, keys)
                ]
            )
        return rivest_aont_encode_batch(secrets, keys)

    def _package_size(self, secret_size: int) -> int:
        return rivest_package_size(secret_size)

    def _open_package(self, package: bytes, secret_size: int) -> bytes:
        secret, key = rivest_aont_decode(package, secret_size)
        # Convergent check: beyond the canary, the recovered key must equal
        # the hash of the recovered secret (§3.2 integrity verification).
        if hash_key(secret, self.salt) != key:
            raise IntegrityError(
                "caont-rs-rivest: recovered key does not match H(secret)"
            )
        return secret
