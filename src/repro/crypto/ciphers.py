"""CTR-mode keystreams and the AONT mask generator ``G``.

The paper's OAEP-based AONT computes a mask ``G(h) = E(h, C)`` — AES-256
encrypting a constant-value block ``C`` the size of the secret, keyed by the
convergent hash ``h`` (§3.2, Eq. 3).  Encrypting a large constant buffer
with a block cipher is counter-mode keystream generation (ECB over a
constant would repeat blocks), so ``G`` is realised as AES-CTR over zeroes.

Rivest's AONT [53] instead masks 16-byte word ``i`` with ``E(key, i)`` —
which is *exactly keystream block i* of the same CTR stream.  The
:class:`AesCtr` class therefore serves both transforms: bulk keystream for
OAEP (one encryption pass over a large block) and per-block access for the
word-by-word Rivest transform, with identical bytes either way.  This is
what lets the Figure 5 benchmark reproduce the paper's cost comparison —
same masks, different call granularity.

Backends
--------
``pure``
    The from-scratch vectorised AES in :mod:`repro.crypto.aes`.  Always
    available; the authoritative implementation for tests.
``openssl``
    Delegates CTR to the host ``cryptography`` wheel (OpenSSL bindings),
    mirroring how the paper's C++ prototype calls OpenSSL [4].  Selected by
    default when available, because encoding-throughput experiments are
    otherwise dominated by interpreter overhead.

Both backends produce identical bytes; a property test pins them together.

The mask-generation ceiling
---------------------------

Convergent dispersal keys every secret's mask with its own hash, so one
EVP key schedule per secret is irreducible — but the Python overhead
around it is not.  The OpenSSL path therefore realises CTR as a
**one-shot AES-ECB-of-counters kernel**: counter blocks are precomputed
once and cached (they are key-independent), a single shared mode object
serves every cipher, each :class:`AesCtr` keeps one reusable encryptor
for its lifetime, and the batch kernel :func:`mask_spans` (with its
equal-length view :func:`mask_stack`) writes a whole run's masks straight
into one NumPy buffer via ``update_into`` — no per-secret zero buffers,
IV packing, or output copies.  ECB of the counter block sequence is
bit-identical to CTR keystream by definition.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.crypto.aes import AES
from repro.errors import CryptoError, ParameterError

__all__ = [
    "AesCtr",
    "ctr_keystream",
    "mask_block",
    "mask_spans",
    "mask_stack",
    "set_aes_backend",
    "aes_backend_name",
    "available_aes_backends",
]

try:  # pragma: no cover - availability depends on host environment
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    _HAVE_OPENSSL = True
    #: Shared stateless mode object: ECB holds no per-cipher state, so one
    #: instance serves every cipher and its construction cost is paid once.
    _ECB = modes.ECB()
    #: The AES class, bound once: ``algorithms`` is a module proxy whose
    #: every attribute read runs Python (≈ 4 µs), once per secret's key.
    _AES = algorithms.AES
except Exception:  # pragma: no cover
    _HAVE_OPENSSL = False
    _ECB = _AES = None

_BACKEND_NAMES = ["pure"] + (["openssl"] if _HAVE_OPENSSL else [])
_active_backend = "openssl" if _HAVE_OPENSSL else "pure"


def available_aes_backends() -> list[str]:
    """Names of the AES backends usable in this environment."""
    return list(_BACKEND_NAMES)


def aes_backend_name() -> str:
    """Name of the currently active AES backend."""
    return _active_backend


def set_aes_backend(name: str) -> None:
    """Select the AES backend (``"pure"`` or ``"openssl"``).

    Raises :class:`ParameterError` for unknown or unavailable backends.
    """
    global _active_backend
    if name not in _BACKEND_NAMES:
        raise ParameterError(
            f"unknown AES backend {name!r}; available: {_BACKEND_NAMES}"
        )
    _active_backend = name


def _counter_block_array(start: int, count: int) -> np.ndarray:
    """``count`` 16-byte big-endian counter blocks starting at ``start``."""
    blocks = np.zeros((count, 16), dtype=np.uint8)
    idx = np.arange(start, start + count, dtype=np.uint64)
    for byte in range(8):
        blocks[:, 15 - byte] = (idx >> np.uint64(8 * byte)).astype(np.uint8)
    return blocks


#: Requests up to this many blocks (128 KB of keystream) go through the
#: cached ECB-of-counters kernel; anything larger uses hardware CTR over a
#: zero buffer instead (building megabytes of counter plaintext loses).
_COUNTER_CACHE_BLOCKS = 8192


@lru_cache(maxsize=1)
def _counter_buffer() -> bytes:
    """The one shared counter-plaintext buffer (counters 0..8191).

    Counter blocks are key- and *length*-independent: every request from
    offset 0 is a prefix of this buffer, so one 128 KB build serves all
    mask sizes.  (A per-(start, count) cache would thrash on variable-size
    Rabin chunks — ~a hundred distinct secret sizes per megabyte.)
    """
    return _counter_block_array(0, _COUNTER_CACHE_BLOCKS).tobytes()


def _counter_bytes(start: int, count: int) -> "bytes | memoryview":
    """Counter-block plaintext for the ECB-of-counters kernel."""
    if start == 0 and count <= _COUNTER_CACHE_BLOCKS:
        return memoryview(_counter_buffer())[: count * 16]
    return _counter_block_array(start, count).tobytes()


class AesCtr:
    """AES in counter mode with a 16-byte big-endian block counter.

    Keystream block ``i`` is ``E(key, i)`` where ``i`` is encoded as the
    full 16-byte counter block — i.e. the stream starts from counter 0 with
    no nonce.  Determinism in the key is exactly what convergent dispersal
    requires (the "nonce" role is played by the per-secret key ``h``).
    """

    def __init__(self, key: bytes, backend: str | None = None) -> None:
        if len(key) not in (16, 24, 32):
            raise CryptoError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.key = bytes(key)
        self.backend = backend or _active_backend
        if self.backend not in _BACKEND_NAMES:
            raise ParameterError(f"unknown AES backend {self.backend!r}")
        self._pure_cipher: AES | None = None
        self._ecb_encryptor = None

    # ------------------------------------------------------------------
    def _pure(self) -> AES:
        if self._pure_cipher is None:
            self._pure_cipher = AES(self.key)
        return self._pure_cipher

    def _ecb(self):
        """The one reusable EVP context of this cipher (OpenSSL backend).

        ECB applies the raw block cipher independently per block, so a
        single encryptor serves every keystream request of this object —
        one EVP setup per key instead of one per call (the ROADMAP's
        mask-generation ceiling).
        """
        if self._ecb_encryptor is None:
            self._ecb_encryptor = Cipher(_AES(self.key), _ECB).encryptor()
        return self._ecb_encryptor

    @staticmethod
    def _counter_blocks(start: int, count: int) -> np.ndarray:
        return _counter_block_array(start, count)

    def keystream(self, length: int, block_offset: int = 0) -> bytes:
        """Return ``length`` keystream bytes starting at ``block_offset``.

        ``block_offset`` addresses 16-byte keystream blocks, so
        ``keystream(16, i)`` is Rivest's per-word mask ``E(key, i)`` while
        ``keystream(n)`` is the bulk OAEP mask — the same byte stream.
        """
        if length < 0:
            raise ParameterError(f"negative keystream length {length}")
        if block_offset < 0:
            raise ParameterError(f"negative block offset {block_offset}")
        if length == 0:
            return b""
        nblocks = -(-length // 16)
        if self.backend == "openssl":
            if nblocks <= _COUNTER_CACHE_BLOCKS:
                # ECB over the explicit counter blocks == CTR keystream,
                # with the counter plaintext cached instead of rebuilt per
                # call — the fast path for per-secret masks.
                return self._ecb().update(
                    _counter_bytes(block_offset, nblocks)
                )[:length]
            # Bulk requests: hardware CTR over a zero buffer beats
            # materialising megabytes of counter plaintext.
            iv = int(block_offset).to_bytes(16, "big")
            enc = Cipher(_AES(self.key), modes.CTR(iv)).encryptor()
            return enc.update(bytes(nblocks * 16))[:length]
        stream = self._pure().encrypt_blocks(
            self._counter_blocks(block_offset, nblocks)
        )
        return stream.tobytes()[:length]

    def block(self, index: int) -> bytes:
        """Keystream block ``index`` — Rivest's per-word mask ``E(key, i)``."""
        return self.keystream(16, block_offset=index)

    def word_stream(self, count: int):
        """Yield keystream blocks 0..count-1 one encryption call at a time.

        This is the faithful cost model of Rivest's AONT (§2): ``count``
        *separate* small-block encryption operations, versus the single
        bulk pass OAEP uses — the difference Figure 5 measures.  The bytes
        produced equal ``keystream(16 * count)``.
        """
        if count < 0:
            raise ParameterError(f"negative word count {count}")
        if self.backend == "openssl":
            # Deliberately *not* the ECB-of-counters kernel: this stream is
            # the faithful per-word cost model, and hardware CTR stepping a
            # zero word is the cheapest honest rendering of "one encryption
            # call per word" (mirroring what the pre-kernel code did).
            enc = Cipher(_AES(self.key), modes.CTR(b"\0" * 16)).encryptor()
            zero = b"\0" * 16
            for _ in range(count):
                yield enc.update(zero)
        else:
            cipher = self._pure()
            for i in range(count):
                yield cipher.encrypt_blocks(self._counter_blocks(i, 1)).tobytes()


def ctr_keystream(key: bytes, length: int, block_offset: int = 0) -> bytes:
    """One-shot helper: ``AesCtr(key).keystream(length, block_offset)``."""
    return AesCtr(key).keystream(length, block_offset)


def mask_block(key: bytes, length: int) -> bytes:
    """The AONT mask generator ``G(h) = E(h, C)`` of Eq. (3).

    ``C`` is the constant (zero) block of ``length`` bytes; the result is
    its AES-CTR encryption under ``key``.  Deterministic in ``(key,
    length)``, which is what makes CAONT-RS convergent.
    """
    return ctr_keystream(key, length)


def mask_stack(
    keys: list[bytes], length: int, backend: str | None = None
) -> np.ndarray:
    """AONT masks ``G(key)`` for a slab of secrets, as a ``(B, length)`` stack.

    Row ``b`` equals ``mask_block(keys[b], length)``: the rows are
    :func:`mask_spans` of equal length laid end to end, the kernel of the
    batched CAONT-RS encode path.
    """
    if length < 0:
        raise ParameterError(f"negative mask length {length}")
    spans = [(row * length, length) for row in range(len(keys))]
    masks = mask_spans(keys, spans, len(keys) * length, backend)
    return masks.reshape(len(keys), length)


def mask_spans(
    keys: list[bytes],
    spans: list[tuple[int, int]],
    size: int,
    backend: str | None = None,
) -> np.ndarray:
    """AONT masks for a run of secrets laid end to end in one buffer.

    Returns a ``(size,)`` uint8 array in which ``[offset, offset + length)``
    holds ``mask_block(keys[b], length)`` for each ``spans[b] = (offset,
    length)``; bytes outside the spans are undefined.  Spans must ascend
    and not overlap: the kernel writes whole 16-byte blocks in span order,
    so a span's last partial block may spill up to 15 bytes past its end,
    and the next span's mask then overwrites the spill.

    The per-key EVP setup is irreducible (each secret keys its own
    stream), but everything around it is amortised over the run: the
    counter plaintext is built once, the shared ECB mode object is
    reused, and each mask is written straight into the one buffer via
    ``update_into`` — the one-shot AES-ECB-of-counters kernel that lifts
    the mask-generation ceiling, for secrets of one length
    (:func:`mask_stack`) or many (the batched CAONT-RS decode).
    """
    name = backend or _active_backend
    # update_into wants block_size - 1 bytes of slack beyond the payload,
    # on top of the last span's spill.
    out = np.empty(size + 32, dtype=np.uint8)
    counters = memoryview(_counter_buffer())
    for key, (offset, length) in zip(keys, spans):
        if length == 0:
            continue
        nblocks = -(-length // 16)
        if name == "openssl" and nblocks <= _COUNTER_CACHE_BLOCKS:
            if len(key) not in (16, 24, 32):
                raise CryptoError(
                    f"AES key must be 16/24/32 bytes, got {len(key)}"
                )
            enc = Cipher(_AES(key), _ECB).encryptor()
            enc.update_into(
                counters[: nblocks * 16], out[offset : offset + nblocks * 16 + 15]
            )
        else:
            out[offset : offset + length] = np.frombuffer(
                AesCtr(key, backend=name).keystream(length), dtype=np.uint8
            )
    return out[:size]
