"""Exception hierarchy for the CDStore reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class at API boundaries.  Subsystems raise the most specific
subclass that describes the failure.

Wire-visible errors
-------------------

Every class carries a **stable wire code** (``wire_code``) used by the
``R_ERROR`` frame in :mod:`repro.net.wire`.  Codes are part of the wire
protocol: they never change meaning and are never reused, so a client
can decode a server's errors regardless of which side is newer.  New
classes append new codes; :data:`WIRE_ERROR_CODES` is the decode registry.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ParameterError",
    "CodingError",
    "IntegrityError",
    "CryptoError",
    "StorageError",
    "NotFoundError",
    "CloudError",
    "CloudUnavailableError",
    "InsufficientCloudsError",
    "ProtocolError",
    "WorkloadError",
    "AuthError",
    "QuotaExceededError",
    "RecoveryInProgressError",
    "ServerOverloadedError",
    "WIRE_ERROR_CODES",
    "wire_code_for",
]


class ReproError(Exception):
    """Base class for every error raised by this library."""

    #: Stable R_ERROR code.  Subclasses override with their own value;
    #: unlisted subclasses inherit the nearest ancestor's code, so an
    #: old peer still sees the right family.
    wire_code = 9


class ParameterError(ReproError, ValueError):
    """An invalid parameter was supplied (e.g. bad (n, k, r) combination)."""

    wire_code = 8


class CodingError(ReproError):
    """An erasure-coding operation failed (e.g. not enough shares)."""

    wire_code = 14


class IntegrityError(ReproError):
    """Decoded data failed an integrity check (canary or embedded hash)."""

    wire_code = 6


class CryptoError(ReproError):
    """A cryptographic operation failed (bad key size, corrupt input...)."""

    wire_code = 13


class StorageError(ReproError):
    """A storage backend or container operation failed."""

    wire_code = 5


class NotFoundError(StorageError, KeyError):
    """A requested object (file, share, container, key) does not exist."""

    wire_code = 4


class CloudError(ReproError):
    """A simulated cloud provider rejected or failed an operation."""

    wire_code = 3


class CloudUnavailableError(CloudError):
    """The simulated cloud is offline (injected outage)."""

    wire_code = 1


class InsufficientCloudsError(CloudError):
    """Fewer than ``k`` clouds are reachable; data cannot be reconstructed."""

    wire_code = 2


class ProtocolError(ReproError):
    """Client/server exchanged malformed or unexpected messages."""

    wire_code = 7


class WorkloadError(ReproError):
    """A workload generator was misconfigured."""

    wire_code = 15


class AuthError(ReproError):
    """Authentication failed or an operation exceeded the tenant's rights."""

    wire_code = 10


class QuotaExceededError(ReproError):
    """A tenant exceeded its bytes / container / request-rate quota."""

    wire_code = 11


class RecoveryInProgressError(ReproError):
    """The server is replaying crash-recovery state; retry shortly."""

    wire_code = 12


class ServerOverloadedError(CloudUnavailableError):
    """The server shed this request under load; retry or fail over.

    Subclasses :class:`CloudUnavailableError` so the comm engine's
    window-granular failover treats an overloaded cloud like a transient
    outage (promote a spare) instead of aborting the transfer.
    """

    wire_code = 16


#: Decode registry: wire code -> most-specific exception class.  Built
#: from the classes above; codes 1..9 predate this registry (they were
#: positional indices in net/wire.py) and are frozen at those values.
WIRE_ERROR_CODES: dict[int, type[ReproError]] = {
    cls.wire_code: cls
    for cls in [
        ReproError,
        ParameterError,
        CodingError,
        IntegrityError,
        CryptoError,
        StorageError,
        NotFoundError,
        CloudError,
        CloudUnavailableError,
        InsufficientCloudsError,
        ProtocolError,
        WorkloadError,
        AuthError,
        QuotaExceededError,
        RecoveryInProgressError,
        ServerOverloadedError,
    ]
}


def wire_code_for(exc: BaseException) -> int:
    """The stable code for ``exc`` (nearest registered ancestor's code)."""
    for cls in type(exc).__mro__:
        code = getattr(cls, "wire_code", None)
        if code is not None:
            return int(code)
    return ReproError.wire_code
