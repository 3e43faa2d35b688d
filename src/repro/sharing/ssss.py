"""Shamir's secret sharing scheme (SSSS) [54].

The r = k - 1 extreme of Table 1: perfect (information-theoretic)
confidentiality, at the price of a storage blowup of ``n`` — every share is
as large as the secret, the same overhead as full replication.

Each secret byte is the constant term of an independent random polynomial of
degree ``k - 1`` over GF(2^8); share ``i`` is the evaluation of all those
polynomials at ``x = i + 1``.  The implementation vectorises across the
whole secret: one :func:`~repro.gf.gf256.gf_poly_eval_bytes` call per share.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.drbg import DRBG, system_random_bytes
from repro.errors import CodingError
from repro.gf.gf256 import gf_div, gf_mul, gf_mul_bytes_into, gf_poly_eval_bytes
from repro.sharing.base import SecretSharingScheme, ShareSet

__all__ = ["SSSS"]


class SSSS(SecretSharingScheme):
    """(n, k) Shamir sharing with confidentiality degree r = k - 1."""

    name = "ssss"
    deterministic = False

    def __init__(self, n: int, k: int, rng: DRBG | None = None) -> None:
        super().__init__(n, k, r=k - 1)
        self._rng = rng

    def _random_bytes(self, length: int) -> bytes:
        if self._rng is not None:
            return self._rng.random_bytes(length)
        return system_random_bytes(length)

    # ------------------------------------------------------------------
    def split(self, secret: bytes) -> ShareSet:
        size = len(secret)
        coeffs = np.zeros((self.k, size), dtype=np.uint8)
        coeffs[0] = np.frombuffer(secret, dtype=np.uint8)
        if self.k > 1 and size:
            rand = self._random_bytes((self.k - 1) * size)
            coeffs[1:] = np.frombuffer(rand, dtype=np.uint8).reshape(
                self.k - 1, size
            )
        shares = tuple(
            gf_poly_eval_bytes(coeffs, x).tobytes() for x in range(1, self.n + 1)
        )
        return ShareSet(shares=shares, secret_size=size, scheme=self.name)

    def recover(self, shares: dict[int, bytes], secret_size: int) -> bytes:
        self._check_recover_args(shares, secret_size)
        return self.interpolate(shares, 0)[:secret_size]

    def interpolate(self, shares: dict[int, bytes], x: int) -> bytes:
        """Evaluate the sharing's polynomials at ``x`` from ``k`` of its shares.

        ``x = 0`` is the secret; ``x = i + 1`` is share ``i`` of the *same*
        sharing, which is how a rebuilt cloud gets back the share it lost.
        """
        self._check_recover_args(shares, 0)
        chosen = sorted(shares)[: self.k]
        xs = [idx + 1 for idx in chosen]
        sizes = {len(shares[idx]) for idx in chosen}
        if len(sizes) != 1:
            raise CodingError(f"shares have inconsistent sizes: {sorted(sizes)}")
        # Lagrange interpolation, vectorised over all byte positions:
        # f(x) = XOR_i  L_i(x) * share_i,  L_i(x) = prod_{j != i} (x ^ x_j) / (x_i ^ x_j)
        out = np.zeros(sizes.pop(), dtype=np.uint8)
        for i, xi in enumerate(xs):
            li = 1
            for j, xj in enumerate(xs):
                if i == j:
                    continue
                li = gf_mul(li, gf_div(x ^ xj, xi ^ xj))
            share = np.frombuffer(shares[chosen[i]], dtype=np.uint8)
            gf_mul_bytes_into(li, share, out)
        return out.tobytes()

    def expected_blowup(self, secret_size: int) -> float:
        """Every share equals the secret size: blowup = n (Table 1)."""
        return float(self.n)
