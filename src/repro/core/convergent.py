"""Convergent-dispersal facade and codec factory.

:class:`ConvergentDispersal` is the high-level entry point matching
Figure 2 of the paper: a secret goes in, ``n`` deterministic shares come
out, with the share-to-cloud pinning and brute-force decode fallback of
§3.2 handled here so the client code stays simple.

A dispersal built from a registry scheme also computes each secret's hash
key ``h = H(salt || X)`` (Eq. 1, :meth:`ConvergentDispersal.hash_keys`):
the client matches a path's chunks against its last version's by it, and
hands it to the codec with the slab so no secret is hashed twice.
"""

from __future__ import annotations

import hashlib
from itertools import combinations
from typing import Sequence

from repro.errors import CodingError, IntegrityError, ParameterError
from repro.sharing.base import SecretSharingScheme, ShareSet
from repro.sharing.registry import create_scheme

__all__ = ["ConvergentDispersal", "create_codec"]

_CONVERGENT_SCHEMES = ("caont-rs", "caont-rs-rivest", "crsss")


def create_codec(name: str, n: int, k: int, **kwargs) -> SecretSharingScheme:
    """Instantiate an AONT-RS-family codec by name.

    Accepts ``"caont-rs"`` (the paper's contribution, default choice),
    ``"caont-rs-rivest"`` and ``"aont-rs"``; delegates to the scheme
    registry so custom registrations work too.
    """
    return create_scheme(name, n, k, **kwargs)


class ConvergentDispersal:
    """Encode secrets into per-cloud shares; decode from any ``k`` clouds.

    Wraps a convergent codec and adds:

    * share labelling — share ``i`` always belongs to cloud ``i`` (§3.2:
      "the same cloud always receives the same share"), so deduplication
      works per cloud and restores know where to look;
    * integrity-driven brute force — if a decode fails verification, every
      other ``k``-subset of the available shares is tried before giving up
      (§3.2: "try a different subset of k shares until the secret is
      correctly decoded").
    """

    def __init__(
        self,
        n: int,
        k: int,
        scheme: str = "caont-rs",
        salt: bytes = b"",
        codec: SecretSharingScheme | None = None,
        **kwargs,
    ) -> None:
        if codec is not None:
            # A pre-built deterministic codec (e.g. the server-aided
            # CAONT-RS bound to a key server) bypasses the registry.
            if not codec.deterministic:
                raise ParameterError(
                    f"codec {codec.name!r} is not convergent (non-deterministic)"
                )
            if (codec.n, codec.k) != (n, k):
                raise ParameterError(
                    f"codec is ({codec.n}, {codec.k}), expected ({n}, {k})"
                )
            self.n = n
            self.k = k
            self.scheme = codec.name
            self.codec = codec
            # Its key is not H(salt || X) (a key server derives it), so
            # it has no hash keys to offer.
            self._salt: bytes | None = None
            return
        if scheme not in _CONVERGENT_SCHEMES:
            raise ParameterError(
                f"{scheme!r} is not convergent; choose from {_CONVERGENT_SCHEMES}"
            )
        self.n = n
        self.k = k
        self.scheme = scheme
        self.codec = create_codec(scheme, n, k, salt=salt, **kwargs)
        self._salt = bytes(salt)

    @property
    def has_hash_keys(self) -> bool:
        """Whether :meth:`hash_keys` applies: a registry scheme, not a
        pre-built codec whose key is derived elsewhere."""
        return self._salt is not None

    # ------------------------------------------------------------------
    def encode(self, secret: bytes) -> ShareSet:
        """Disperse ``secret`` into ``n`` shares (share i → cloud i)."""
        return self.codec.split(secret)

    def encode_batch(self, secrets: list[bytes]) -> list[ShareSet]:
        """Disperse a slab of secrets; element ``i`` equals ``encode(secrets[i])``.

        Delegates to the codec's vectorised batch path (one generator-matrix
        multiply and one bulk AONT XOR per group of same-length secrets).
        A :class:`~repro.core.package_codec.KeyedSecrets` slab carries its
        :meth:`hash_keys`, which saves the codec hashing each secret again.
        """
        return self.codec.encode_batch(secrets)

    def hash_keys(self, secrets: Sequence[bytes]) -> list[bytes]:
        """``h = H(salt || X)`` (Eq. 1) of each secret: the convergent key
        the codec derives its shares from.

        Only for dispersals that :attr:`has_hash_keys`.
        """
        salted = hashlib.sha256(self._salt)
        keys = []
        for secret in secrets:
            digest = salted.copy()
            digest.update(secret)
            keys.append(digest.digest())
        return keys

    def decode(self, shares: dict[int, bytes], secret_size: int) -> bytes:
        """Reconstruct a secret from any ``k`` of its shares.

        On integrity failure, retries every other ``k``-subset of the
        provided shares (brute-force fallback of §3.2) and raises
        :class:`IntegrityError` only when all subsets fail.
        """
        if len(shares) < self.k:
            raise CodingError(
                f"need at least k={self.k} shares, got {len(shares)}"
            )
        indices = sorted(shares)
        first_error: Exception | None = None
        for subset in combinations(indices, self.k):
            try:
                return self.codec.recover(
                    {i: shares[i] for i in subset}, secret_size
                )
            except (IntegrityError, CodingError) as exc:
                first_error = first_error or exc
        raise IntegrityError(
            f"no {self.k}-subset of {len(indices)} shares decoded cleanly"
        ) from first_error

    def decode_batch(
        self,
        requests: list[tuple[dict[int, bytes], int]],
        fallback=None,
    ) -> list[bytes]:
        """Reconstruct a slab of secrets; falls back per-secret on failure.

        The happy path runs the codec's batched decode (one inverse-matrix
        multiply per shared ``k``-subset).  If *any* secret in the slab
        fails integrity/coding checks, each request is retried through
        :meth:`decode` (the §3.2 brute-force subset retry) — and a request
        that *still* fails is handed to ``fallback(index, shares,
        secret_size)`` when one is given, so callers widen the share pool
        only for the secrets that actually need it (the client's
        spare-cloud path) instead of re-decoding the whole slab again.
        """
        try:
            return self.codec.decode_batch(requests)
        except (IntegrityError, CodingError):
            pass
        parts: list[bytes] = []
        for index, (shares, size) in enumerate(requests):
            try:
                parts.append(self.decode(shares, size))
            except IntegrityError:
                if fallback is None:
                    raise
                parts.append(fallback(index, shares, size))
        return parts

    def share_size(self, secret_size: int) -> int:
        """Per-share size for a secret of ``secret_size`` bytes."""
        return self.codec.share_size(secret_size)
