"""Tenant identity, shared-secret auth, and quota accounting.

Multi-tenant serving needs three things the core dedup stack does not
provide: a way to *prove* a connection speaks for a tenant, a durable
record of how much that tenant has stored, and limits that stop one
tenant from starving the rest.  This module owns all three:

* :class:`TenantRegistry` — the server-side table of tenants
  (``tenant_id`` -> shared secret, role, :class:`TenantQuota`), loaded
  from a JSON file next to the deployment root.  When a registry is
  present the TCP server requires the handshake; when absent the server
  runs open, preserving single-operator setups.
* :func:`auth_proof` — the HMAC-SHA256 challenge-response proof both
  sides compute.  The server nonce is fresh per connection, so a
  captured proof replays to nothing.
* :class:`TenantUsage` — the packed per-tenant accounting record the
  server persists in its index (same durability as share metadata, so
  quota state survives kill -9 like everything else).
* :class:`TokenBucket` — request-rate limiting, enforced per tenant at
  the connection layer.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import struct
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from repro.config import positive_int, positive_number
from repro.errors import ParameterError, StorageError
from repro.storage.durable import publish

__all__ = [
    "Credentials",
    "ROLE_ADMIN",
    "ROLE_TENANT",
    "TENANTS_FILE_NAME",
    "TenantQuota",
    "TenantRecord",
    "TenantRegistry",
    "TenantUsage",
    "TokenBucket",
    "auth_proof",
]

ROLE_TENANT = "tenant"
ROLE_ADMIN = "admin"

#: Conventional registry file name under a deployment root; ``repro
#: serve`` auto-loads it when present.
TENANTS_FILE_NAME = "tenants.json"

#: Domain-separation label for auth proofs, versioned independently of
#: the wire revision so a proof can never be confused with any other
#: HMAC this codebase computes.
_AUTH_LABEL = b"repro-auth-v1"


def auth_proof(
    secret: bytes, tenant_id: str, client_nonce: bytes, server_nonce: bytes
) -> bytes:
    """The 32-byte proof for one handshake.

    Covers both nonces *and* the claimed tenant id, so a proof minted for
    one (connection, tenant) pair verifies for no other.
    """
    message = b"\x00".join(
        [_AUTH_LABEL, tenant_id.encode("utf-8"), client_nonce, server_nonce]
    )
    return hmac.new(secret, message, hashlib.sha256).digest()


@dataclass(frozen=True)
class Credentials:
    """What a client presents: its tenant id and the shared secret."""

    tenant_id: str
    secret: bytes

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ParameterError("credentials need a non-empty tenant_id")
        if not self.secret:
            raise ParameterError("credentials need a non-empty secret")


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant limits; ``None`` means unlimited on that axis."""

    max_bytes: int | None = None
    max_containers: int | None = None
    max_requests_per_sec: float | None = None

    def __post_init__(self) -> None:
        checks = {"max_bytes": positive_int, "max_containers": positive_int,
                  "max_requests_per_sec": positive_number}
        for name, check in checks.items():
            if getattr(self, name) is not None:
                check(getattr(self, name), name)


@dataclass(frozen=True)
class TenantRecord:
    """One registry row: identity, secret, role, and limits."""

    tenant_id: str
    secret: bytes
    role: str = ROLE_TENANT
    quota: TenantQuota = field(default_factory=TenantQuota)

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ParameterError("tenant_id must be non-empty")
        if not self.secret:
            raise ParameterError(f"tenant {self.tenant_id!r} needs a secret")
        # The registry file stores the secret as text and clients send the
        # raw bytes, so a secret that is not UTF-8 could never authenticate.
        try:
            self.secret.decode("utf-8")
        except UnicodeDecodeError:
            raise ParameterError(f"tenant {self.tenant_id!r}: secret is not UTF-8") from None
        if self.role not in (ROLE_TENANT, ROLE_ADMIN):
            raise ParameterError(
                f"tenant {self.tenant_id!r} has unknown role {self.role!r}"
            )

    @property
    def is_admin(self) -> bool:
        return self.role == ROLE_ADMIN

    def credentials(self) -> Credentials:
        return Credentials(tenant_id=self.tenant_id, secret=self.secret)


class TenantRegistry:
    """Immutable-after-load table of :class:`TenantRecord` by id."""

    def __init__(self, records: list[TenantRecord] | None = None) -> None:
        self._records: dict[str, TenantRecord] = {}
        for record in records or []:
            self.add(record)

    def add(self, record: TenantRecord) -> None:
        if record.tenant_id in self._records:
            raise ParameterError(f"duplicate tenant id {record.tenant_id!r}")
        self._records[record.tenant_id] = record

    def get(self, tenant_id: str) -> TenantRecord | None:
        return self._records.get(tenant_id)

    def __contains__(self, tenant_id: str) -> bool:
        return tenant_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> list[TenantRecord]:
        return sorted(self._records.values(), key=lambda r: r.tenant_id)

    # ------------------------------------------------------------------
    # persistence (tenants.json)
    # ------------------------------------------------------------------
    @classmethod
    def from_file(cls, path: str | Path) -> "TenantRegistry":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise StorageError(f"cannot read tenant registry {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParameterError(f"tenant registry {path} is not JSON: {exc}") from exc
        if not isinstance(raw, dict) or not isinstance(raw.get("tenants"), list):
            raise ParameterError(
                f"tenant registry {path} must be {{'tenants': [...]}}"
            )
        registry = cls()
        for row in raw["tenants"]:
            if not isinstance(row, dict):
                raise ParameterError(f"tenant registry {path}: rows must be objects")
            try:
                quota = TenantQuota(**{f.name: row.get(f.name) for f in fields(TenantQuota)})
                registry.add(
                    TenantRecord(
                        tenant_id=str(row.get("tenant_id", "")),
                        secret=str(row.get("secret", "")).encode("utf-8"),
                        role=str(row.get("role", ROLE_TENANT)),
                        quota=quota,
                    )
                )
            except ParameterError as exc:
                raise ParameterError(f"tenant registry {path}: {exc}") from exc
        return registry

    def to_file(self, path: str | Path) -> None:
        path = Path(path)
        rows = []
        for record in self.records():
            row: dict[str, object] = {
                "tenant_id": record.tenant_id,
                "secret": record.secret.decode("utf-8"),
                "role": record.role,
            }
            for limit in fields(TenantQuota):
                value = getattr(record.quota, limit.name)
                if value is not None:
                    row[limit.name] = value
            rows.append(row)
        with publish(path) as fh:
            fh.write((json.dumps({"tenants": rows}, indent=2) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# durable per-tenant accounting
# ---------------------------------------------------------------------------

_USAGE = struct.Struct(">QI")


@dataclass
class TenantUsage:
    """Durable counters the server charges quotas against.

    ``bytes_stored`` counts each share a tenant references at least once
    (charged when its per-tenant refcount goes 0 -> 1 at finalize,
    released when it returns to 0 at delete), so intra-tenant dedup is
    free but cross-tenant dedup still charges every referencing tenant —
    a tenant cannot learn that its bytes deduped against another's.
    ``containers`` counts containers sealed with this tenant's shares.
    """

    bytes_stored: int = 0
    containers: int = 0

    def pack(self) -> bytes:
        return _USAGE.pack(self.bytes_stored, self.containers)

    @classmethod
    def unpack(cls, blob: bytes) -> "TenantUsage":
        if len(blob) != _USAGE.size:
            raise StorageError(
                f"tenant usage record is {len(blob)} bytes, expected {_USAGE.size}"
            )
        bytes_stored, containers = _USAGE.unpack(blob)
        return cls(bytes_stored=bytes_stored, containers=containers)

    def copy(self) -> "TenantUsage":
        return replace(self)


# ---------------------------------------------------------------------------
# request-rate limiting
# ---------------------------------------------------------------------------


class TokenBucket:
    """Classic token bucket; caller supplies monotonic timestamps.

    Not self-locking: the connection layer mutates buckets under its own
    tenant-table lock, which also keeps one tenant's parallel
    connections sharing a single budget.
    """

    def __init__(self, rate: float, burst: float | None = None) -> None:
        if rate <= 0:
            raise ParameterError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, self.rate)
        self._tokens = self.burst
        self._stamp: float | None = None

    def allow(self, now: float) -> bool:
        """Spend one token if available; refill from elapsed time first."""
        if self._stamp is not None and now > self._stamp:
            self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False
