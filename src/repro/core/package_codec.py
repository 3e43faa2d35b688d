"""Shared AONT-package ⇄ Reed-Solomon share plumbing.

All three AONT-RS-family codecs follow the same outer shape (§2, §3.2):

1. transform the secret into an AONT package (construction-specific);
2. pad the package with zeroes so it divides evenly into ``k`` pieces;
3. encode the ``k`` pieces into ``n`` shares with a *systematic*
   Reed-Solomon code, labelling share ``i`` for cloud ``i``.

Decoding reverses the pipeline from any ``k`` shares.  This base class owns
steps 2-3 and the share bookkeeping; subclasses provide the AONT.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.erasure.reed_solomon import ReedSolomon
from repro.errors import CodingError
from repro.sharing.base import SecretSharingScheme, ShareSet

__all__ = ["KeyedSecrets", "PackageRSCodec"]

#: Bytes of packages :meth:`PackageRSCodec.decode_batch` rebuilds and opens
#: at a time.  A run's joined shares, its mask buffer and its plaintext are
#: the batched decode's extra working set, so it is bounded by a run, not by
#: the restore window.
_RUN_BYTES = 1 << 20


class KeyedSecrets(list):
    """A slab of secrets carrying their convergent hash keys ``h = H(salt || X)``.

    :meth:`~repro.core.convergent.ConvergentDispersal.encode_batch` hands
    a codec the keys it already computed (the client matches a path's
    chunks against its last version's by them) without widening the codec's ``encode_batch(secrets)``
    call; a convergent codec's :meth:`PackageRSCodec._draw_keys` takes them
    instead of hashing each secret again.  To everything else it is the
    plain list of secrets.
    """

    def __init__(self, secrets: Sequence[bytes], hash_keys: Sequence[bytes]) -> None:
        super().__init__(secrets)
        if len(hash_keys) != len(self):
            raise CodingError(
                f"{len(hash_keys)} hash keys for {len(self)} secrets"
            )
        self.hash_keys = list(hash_keys)


class PackageRSCodec(SecretSharingScheme):
    """Base class: AONT package + systematic RS dispersal.

    Confidentiality degree is r = k - 1 in the computational sense for all
    AONT-based codecs (Table 1).
    """

    def __init__(self, n: int, k: int, rs_matrix: str = "vandermonde") -> None:
        super().__init__(n, k, r=k - 1)
        self._rs = ReedSolomon(n, k, matrix=rs_matrix)

    # ------------------------------------------------------------------
    # subclass contract
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _make_package(self, secret: bytes) -> bytes:
        """Transform ``secret`` into an AONT package."""

    @abc.abstractmethod
    def _package_size(self, secret_size: int) -> int:
        """Exact package size for a ``secret_size``-byte secret."""

    @abc.abstractmethod
    def _open_package(self, package: bytes, secret_size: int) -> bytes:
        """Invert the AONT and verify integrity where supported."""

    def _draw_keys(self, secrets: Sequence[bytes]) -> list[bytes] | None:
        """Pre-draw per-secret randomness in *sequence* order, or None.

        Called once per batch before secrets are regrouped by length, so a
        seeded RNG produces the same key stream whether the caller loops
        :meth:`split` or calls :meth:`encode_batch` — even for ragged
        batches.  Content-keyed (convergent) codecs return the hash keys a
        :class:`KeyedSecrets` batch carries, or None to hash each secret.
        """
        return None

    def _make_packages(
        self, secrets: Sequence[bytes], keys: Sequence[bytes] | None = None
    ) -> np.ndarray:
        """Transform equal-length secrets into a ``(B, package)`` stack.

        ``keys`` is the :meth:`_draw_keys` slice for this group (None for
        convergent codecs).  The default loops over :meth:`_make_package`;
        vectorised subclasses override to mask the whole stack in bulk.
        """
        assert keys is None, "subclasses drawing keys must override _make_packages"
        return np.stack(
            [
                np.frombuffer(self._make_package(secret), dtype=np.uint8)
                for secret in secrets
            ]
        )

    # ------------------------------------------------------------------
    # SecretSharingScheme implementation
    # ------------------------------------------------------------------
    def split(self, secret: bytes) -> ShareSet:
        package = self._make_package(secret)
        shares = tuple(self._rs.encode(package))
        return ShareSet(shares=shares, secret_size=len(secret), scheme=self.name)

    def recover(self, shares: dict[int, bytes], secret_size: int) -> bytes:
        self._check_recover_args(shares, secret_size)
        package_size = self._package_size(secret_size)
        package = self._rs.decode(shares, data_size=package_size)
        return self._open_package(package, secret_size)

    # ------------------------------------------------------------------
    # batch interface (vectorised across same-length secrets)
    # ------------------------------------------------------------------
    def encode_batch(self, secrets: Sequence[bytes]) -> list[ShareSet]:
        """Disperse a whole slab of secrets with batched kernels.

        Secrets of equal length are stacked so the AONT mask and the
        Reed-Solomon generator multiply each run once over a 2-D array
        instead of once per secret; ragged batches cost one stack pass per
        distinct length.  Output is element-wise identical to
        :meth:`split`.
        """
        keys = self._draw_keys(secrets)
        secrets = list(secrets)
        out: list[ShareSet | None] = [None] * len(secrets)
        groups: dict[int, list[int]] = {}
        for i, secret in enumerate(secrets):
            groups.setdefault(len(secret), []).append(i)
        for length, members in groups.items():
            packages = self._make_packages(
                [secrets[i] for i in members],
                [keys[i] for i in members] if keys is not None else None,
            )
            coded = self._rs.encode_stack(packages)
            for row, i in enumerate(members):
                shares = tuple(coded[row, j].tobytes() for j in range(self.n))
                out[i] = ShareSet(
                    shares=shares, secret_size=length, scheme=self.name
                )
        return out  # type: ignore[return-value]

    def decode_batch(
        self, requests: Sequence[tuple[dict[int, bytes], int]]
    ) -> list[bytes]:
        """Recover a whole slab of secrets with batched kernels.

        Requests are grouped by the ``k``-subset they decode from (the
        lowest ``k`` share indices given, as :meth:`recover` chooses), and
        each group is opened in runs of about :data:`_RUN_BYTES` of
        packages: one join (or, off the systematic subset, one
        inverse-matrix multiply over the run's pieces laid side by side)
        and one :meth:`_open_packages` call per run, so the working set is
        one run whatever the slab's size.  Element-wise identical to
        :meth:`recover`; an integrity failure anywhere raises.
        """
        requests = list(requests)
        out: list[bytes | None] = [None] * len(requests)
        groups: dict[tuple[int, ...], list[int]] = {}
        for i, (shares, secret_size) in enumerate(requests):
            self._check_recover_args(shares, secret_size)
            chosen = tuple(sorted(shares)[: self.k])
            sizes = {len(shares[idx]) for idx in chosen}
            if len(sizes) != 1:
                raise CodingError(
                    f"shares have inconsistent sizes: {sorted(sizes)}"
                )
            package_size = self._package_size(secret_size)
            decoded_size = self.k * sizes.pop()
            if package_size > decoded_size:
                raise CodingError(
                    f"package size {package_size} exceeds decoded "
                    f"size {decoded_size}"
                )
            groups.setdefault(chosen, []).append(i)
        for chosen, members in groups.items():
            run: list[int] = []
            run_bytes = 0
            for i in members:
                run.append(i)
                run_bytes += self.k * len(requests[i][0][chosen[0]])
                if run_bytes >= _RUN_BYTES:
                    self._decode_run(chosen, run, requests, out)
                    run, run_bytes = [], 0
            if run:
                self._decode_run(chosen, run, requests, out)
        return out  # type: ignore[return-value]

    def _decode_run(
        self,
        chosen: tuple[int, ...],
        run: list[int],
        requests: list[tuple[dict[int, bytes], int]],
        out: list[bytes | None],
    ) -> None:
        """Rebuild one run's packages end to end and open them."""
        k = self.k
        sizes = [len(requests[i][0][chosen[0]]) for i in run]
        spans = []
        offset = 0
        for i, size in zip(run, sizes):
            spans.append((offset, requests[i][1]))
            offset += k * size
        if chosen == tuple(range(k)):
            # Systematic: a package is its k data shares joined.
            packages: bytes | np.ndarray = b"".join(
                [requests[i][0][idx] for i in run for idx in chosen]
            )
        else:
            # RS is column-independent, so row j holds piece j of every
            # secret side by side and one multiply decodes the run.
            pieces = np.frombuffer(
                b"".join([requests[i][0][idx] for idx in chosen for i in run]),
                dtype=np.uint8,
            ).reshape(1, k, -1)
            decoded = self._rs.decode_stack(chosen, pieces).reshape(k, -1)
            packages = np.empty(offset, dtype=np.uint8)
            column = 0
            for (start, _), size in zip(spans, sizes):
                packages[start : start + k * size].reshape(k, size)[...] = (
                    decoded[:, column : column + size]
                )
                column += size
        for i, secret in zip(run, self._open_packages(packages, spans)):
            out[i] = secret

    def _open_packages(
        self, packages: bytes | np.ndarray, spans: list[tuple[int, int]]
    ) -> list[bytes]:
        """Open a run of packages laid end to end in ``packages``.

        ``spans[b] = (offset, secret_size)`` places package ``b`` (of
        :meth:`_package_size` bytes) in the run.  The default opens each
        package with :meth:`_open_package`; vectorised subclasses
        override to mask the whole run in bulk (the decode mirror of
        :meth:`_make_packages`).
        """
        view = memoryview(packages)
        return [
            self._open_package(
                bytes(view[offset : offset + self._package_size(size)]), size
            )
            for offset, size in spans
        ]

    def share_size(self, secret_size: int) -> int:
        """Size in bytes of each share for a ``secret_size``-byte secret."""
        return self._rs.piece_size(self._package_size(secret_size))

    def expected_blowup(self, secret_size: int) -> float:
        """Measured blowup; asymptotically (n/k)(1 + Skey/Ssec) (Table 1)."""
        if secret_size == 0:
            return float("inf")
        return self.n * self.share_size(secret_size) / secret_size
