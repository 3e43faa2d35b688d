"""Client ⇄ server message types (the "comm module" payloads, §4.1).

The reproduction keeps transport as direct method calls, but the payloads
are explicit value objects so the protocol is inspectable and the simulated
network can charge their sizes.  All messages are byte-serialisable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import ProtocolError

__all__ = ["ShareMeta", "ShareUpload", "RecipeEntry", "FileManifest"]

_FP_SIZE = 32


@dataclass(frozen=True)
class ShareMeta:
    """Share metadata collected by the client after encoding (§4.3).

    Attributes mirror the paper's list: share size, fingerprint (client
    domain, for intra-user dedup), sequence number of the input secret, and
    the secret size (to strip padding when decoding).
    """

    fingerprint: bytes
    share_size: int
    secret_seq: int
    secret_size: int

    def pack(self) -> bytes:
        if len(self.fingerprint) != _FP_SIZE:
            raise ProtocolError(f"fingerprint must be {_FP_SIZE} bytes")
        return self.fingerprint + struct.pack(
            ">IQI", self.share_size, self.secret_seq, self.secret_size
        )

    @classmethod
    def unpack(cls, blob: bytes) -> "ShareMeta":
        if len(blob) != cls.packed_size():
            raise ProtocolError(f"bad ShareMeta size {len(blob)}")
        share_size, seq, secret_size = struct.unpack(">IQI", blob[_FP_SIZE:])
        return cls(blob[:_FP_SIZE], share_size, seq, secret_size)

    @staticmethod
    def packed_size() -> int:
        return _FP_SIZE + 16


@dataclass(frozen=True)
class ShareUpload:
    """One unique share travelling client → server."""

    meta: ShareMeta
    data: bytes

    @property
    def wire_size(self) -> int:
        return ShareMeta.packed_size() + len(self.data)


@dataclass(frozen=True)
class RecipeEntry:
    """One secret's entry in a file recipe (§4.4).

    The server-side recipe stores, per secret, the *server-domain*
    fingerprint used to locate the share, plus the secret size needed to
    decode it.
    """

    fingerprint: bytes
    secret_size: int

    def pack(self) -> bytes:
        return self.fingerprint + struct.pack(">I", self.secret_size)

    @classmethod
    def unpack(cls, blob: bytes) -> "RecipeEntry":
        if len(blob) != _FP_SIZE + 4:
            raise ProtocolError(f"bad RecipeEntry size {len(blob)}")
        return cls(blob[:_FP_SIZE], struct.unpack(">I", blob[_FP_SIZE:])[0])

    @staticmethod
    def packed_size() -> int:
        return _FP_SIZE + 4


@dataclass(frozen=True)
class FileManifest:
    """File metadata sent at the end of an upload (§4.3).

    ``path_share`` is this server's secret-sharing share of the full
    pathname (sensitive metadata is dispersed, not replicated); ``lookup_key``
    is the hash of (user, pathname) that keys the file index; ``file_size``
    and ``secret_count`` are non-sensitive and replicated.
    """

    lookup_key: bytes
    path_share: bytes
    file_size: int
    secret_count: int

    def pack(self) -> bytes:
        return (
            struct.pack(">I", len(self.lookup_key))
            + self.lookup_key
            + struct.pack(">I", len(self.path_share))
            + self.path_share
            + struct.pack(">QQ", self.file_size, self.secret_count)
        )

    @classmethod
    def unpack(cls, blob: bytes) -> "FileManifest":
        try:
            (key_len,) = struct.unpack_from(">I", blob, 0)
            key = blob[4 : 4 + key_len]
            pos = 4 + key_len
            (share_len,) = struct.unpack_from(">I", blob, pos)
            pos += 4
            share = blob[pos : pos + share_len]
            pos += share_len
            file_size, count = struct.unpack_from(">QQ", blob, pos)
        except struct.error as exc:
            raise ProtocolError(f"bad FileManifest: {exc}") from exc
        if pos + 16 != len(blob):
            raise ProtocolError(f"{len(blob) - pos - 16} trailing bytes after FileManifest")
        return cls(key, share, file_size, count)
