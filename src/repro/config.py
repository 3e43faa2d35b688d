"""Typed deployment configuration: :class:`ReproConfig` and :class:`CloudSpec`.

Deployment settings used to travel as scattered keyword arguments
(``CDStoreSystem(n=…, k=…, salt=…, chunker=…)``), an untyped ``dict``
loaded from ``cdstore.json``, and ad-hoc ``tcp://`` string parsing in the
network client.  This module is now the single place those settings are
*parsed, validated and persisted*:

* :class:`CloudSpec` — where one cloud lives (``local`` or
  ``tcp://host:port``), with the canonical parser the CLI, the system
  façade and the network proxy all share;
* :class:`ReproConfig` — every deployment-wide knob, validated once at
  construction; ``repro init`` writes it, every other command loads it,
  and :meth:`~repro.system.cdstore.CDStoreSystem.from_config` builds a
  system straight from it;
* the field checks (:func:`positive_int`, :func:`tcp_port`,
  :func:`chunker_spec`, …) — each kind of setting is validated by one
  small function.  The dataclasses here and
  :class:`~repro.tenants.TenantQuota` call them from ``__post_init__``,
  and the CLI wraps the same functions as argparse types, so a bad value
  breaks one rule everywhere.

Secrets are deliberately *not* part of the config: tenant credentials
(:class:`~repro.tenants.Credentials`) are passed separately so the
config file stays safe to commit and copy around.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path

from repro.chunking.registry import DEFAULT_CHUNKER, ChunkerSpec
from repro.errors import ParameterError, ReproError

__all__ = [
    "CloudSpec", "GatewaySpec", "ObsSpec", "ReproConfig", "CONFIG_FILE_NAME",
    "chunker_spec", "cloud_index", "cloud_spec", "non_negative_seconds",
    "positive_int", "positive_number", "remote_spec", "tcp_port",
]

#: Conventional config file name under a deployment root.
CONFIG_FILE_NAME = "cdstore.json"


# ---------------------------------------------------------------------------
# field checks: each returns the validated value or raises ParameterError
# ---------------------------------------------------------------------------


def _require(ok: bool, value, name: str, what: str):
    if not ok:
        raise ParameterError(f"{name} must be {what}, got {value!r}")
    return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def positive_int(value, name: str = "value") -> int:
    """An integer >= 1 (counts, byte caps, thread and pipeline depths)."""
    return _require(_is_int(value) and value >= 1, value, name, "a positive integer")


def cloud_index(value, name: str = "value") -> int:
    """An integer >= 0 (which cloud of a deployment)."""
    return _require(_is_int(value) and value >= 0, value, name, "a non-negative integer")


def positive_number(value, name: str = "value") -> int | float:
    """A number > 0 (rates)."""
    return _require(_is_number(value) and value > 0, value, name, "a positive number")


def non_negative_seconds(value, name: str = "value") -> float:
    """A duration in seconds, >= 0 (TTLs, thresholds, intervals)."""
    return float(_require(_is_number(value) and value >= 0, value, name, ">= 0 seconds"))


def tcp_port(value, name: str = "value") -> int:
    """A TCP port in 1-65535."""
    return _require(
        _is_int(value) and 1 <= value <= 65535, value, name, "a TCP port in 1-65535"
    )


@functools.lru_cache(maxsize=64)
def _build_chunker(text: str) -> None:
    # Constructing a Rabin chunker costs milliseconds; a spec that built
    # once always builds, so each distinct string is checked once.
    ChunkerSpec.parse(text).create()


def chunker_spec(value, name: str = "chunker") -> str:
    """A chunker spec string (``gear:avg=8192``), parsed *and* built once
    so an unknown name, a bad parameter or an out-of-range value
    (``gear:avg=1000``) fails here, before any cloud is touched."""
    _require(isinstance(value, str), value, name, "a chunker spec string")
    _build_chunker(value)
    return value


@dataclass(frozen=True)
class CloudSpec:
    """Where one cloud of a deployment lives.

    ``kind`` is ``"local"`` (a backend directory under the deployment
    root) or ``"tcp"`` (a ``repro serve`` process at ``host:port``
    driven over the wire).
    """

    kind: str
    host: str | None = None
    port: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "local":
            if self.host is not None or self.port is not None:
                raise ParameterError("a local cloud spec carries no host/port")
        elif self.kind == "tcp":
            if not self.host:
                raise ParameterError("a tcp cloud spec needs a host")
            tcp_port(self.port, "tcp cloud spec port")
        else:
            raise ParameterError(
                f"cloud spec kind must be 'local' or 'tcp', got {self.kind!r}"
            )

    # ------------------------------------------------------------------
    @property
    def is_remote(self) -> bool:
        return self.kind == "tcp"

    @property
    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` of a remote spec."""
        if not self.is_remote:
            raise ParameterError("local cloud specs have no network address")
        assert self.host is not None and self.port is not None
        return self.host, self.port

    @classmethod
    def local(cls) -> "CloudSpec":
        return cls(kind="local")

    @classmethod
    def tcp(cls, host: str, port: int) -> "CloudSpec":
        return cls(kind="tcp", host=host, port=port)

    @classmethod
    def parse(cls, text: str) -> "CloudSpec":
        """Parse ``"local"`` or ``"tcp://host:port"``.

        The one canonical parser: :func:`cloud_spec` (and so the CLI's
        argparse types) and the system façade all route here, so a
        malformed spec produces the same
        :class:`~repro.errors.ParameterError` everywhere.
        """
        if not isinstance(text, str):
            raise ParameterError(
                f"cloud spec must be a string, got {type(text).__name__}"
            )
        if text == "local":
            return cls.local()
        if not text.startswith("tcp://"):
            raise ParameterError(
                f"cloud spec must be 'local' or tcp://host:port, got {text!r}"
            )
        rest = text[len("tcp://"):]
        host, sep, port_text = rest.rpartition(":")
        if not sep or not host:
            raise ParameterError(
                f"cloud spec {text!r} is missing a host or port (tcp://host:port)"
            )
        try:
            port = int(port_text)
        except ValueError:
            raise ParameterError(
                f"cloud spec {text!r} has a non-numeric port {port_text!r}"
            ) from None
        return cls.tcp(host, port)

    def __str__(self) -> str:
        if self.kind == "local":
            return "local"
        return f"tcp://{self.host}:{self.port}"


def cloud_spec(value: "CloudSpec | str") -> CloudSpec:
    """A :class:`CloudSpec`, or its string form parsed by :meth:`CloudSpec.parse`."""
    if isinstance(value, CloudSpec):
        return value
    return CloudSpec.parse(value)


def remote_spec(value: "CloudSpec | str", name: str = "value") -> CloudSpec:
    """A ``tcp://host:port`` spec: gateway endpoints, replicas and the
    endpoints ``repro stats``/``top`` dial are network services, so
    ``local`` is rejected."""
    spec = cloud_spec(value)
    if not spec.is_remote:
        raise ParameterError(f"{name} must be a tcp://host:port spec, got {str(spec)!r}")
    return spec


# ---------------------------------------------------------------------------
# the JSON form shared by every spec below
# ---------------------------------------------------------------------------


def _to_json(value):
    """A spec's JSON form: one key per field, in field order, with cloud
    specs as their strings and nested specs as mappings."""
    if isinstance(value, CloudSpec):
        return str(value)
    if isinstance(value, tuple):
        return [_to_json(item) for item in value]
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    return value


def _fields_of(cls, raw, what: str, retired: frozenset = frozenset()) -> dict:
    """``raw`` as keyword arguments for ``cls``: a JSON object whose keys
    are fields of ``cls``; ``retired`` keys are accepted and dropped."""
    if not isinstance(raw, dict):
        raise ParameterError(f"{what} must be a JSON object, got {type(raw).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = set(raw) - known - retired
    if unknown:
        raise ParameterError(f"unknown {what} keys: {', '.join(sorted(unknown))}")
    return {key: value for key, value in raw.items() if key in known}


@dataclass(frozen=True)
class GatewaySpec:
    """Where the deployment's read gateway lives, and its cache shape.

    A gateway (:mod:`repro.gateway`) is optional infrastructure: when a
    deployment's config carries one, clients built by
    :meth:`~repro.system.cdstore.CDStoreSystem.from_config` restore
    through it (with automatic direct-quorum fallback).  ``repro init
    --gateway tcp://host:port`` persists it; ``repro gateway`` serves it.
    """

    #: The ``tcp://host:port`` clients connect to.
    endpoint: CloudSpec
    #: Hot-container cache bound, in bytes of cached share payload.
    cache_bytes: int = 256 << 20
    #: Recipe/resolution cache TTL in seconds; 0 revalidates on every
    #: resolve (the strongest overwrite-visibility, the weakest caching).
    recipe_ttl: float = 30.0
    #: Virtual nodes per replica on the consistent-hash ring.
    shard_count: int = 64
    #: The serving replicas the gateway fetches from; empty means "the
    #: deployment's own cloud_specs" (resolved by ``from_config``).
    replicas: tuple[CloudSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "endpoint", remote_spec(self.endpoint, "gateway endpoint")
        )
        positive_int(self.cache_bytes, "gateway cache_bytes")
        object.__setattr__(
            self, "recipe_ttl", non_negative_seconds(self.recipe_ttl, "gateway recipe_ttl")
        )
        positive_int(self.shard_count, "gateway shard_count")
        object.__setattr__(
            self,
            "replicas",
            tuple(remote_spec(s, "gateway replica") for s in self.replicas or ()),
        )

    @classmethod
    def from_mapping(cls, raw: dict) -> "GatewaySpec":
        kwargs = _fields_of(cls, raw, "gateway config")
        if "endpoint" not in kwargs:
            raise ParameterError("gateway config needs an 'endpoint' key")
        return cls(**kwargs)

    def to_mapping(self) -> dict:
        return _to_json(self)


@dataclass(frozen=True)
class ObsSpec:
    """The deployment's observability shape (:mod:`repro.obs`).

    One spec configures every layer the same way — client entry-point
    spans, the front-ends' dispatcher tracing, the slow-request log.
    The metrics registry itself has no per-deployment state; these knobs
    govern the *tracing* side and the structured breadcrumbs.
    """

    #: Master switch: ``False`` disables metric recording and tracing.
    enabled: bool = True
    #: Offer/accept the wire trace extension and record spans.
    trace: bool = True
    #: Spans at or above this many seconds emit a structured
    #: ``slow_request`` event; ``None``/``0`` disables the log.
    slow_request_seconds: float | None = 1.0
    #: Finished spans each component's ring buffer retains.
    span_ring_size: int = 256

    def __post_init__(self) -> None:
        if not isinstance(self.enabled, bool):
            raise ParameterError(
                f"obs enabled must be a boolean, got {self.enabled!r}"
            )
        if not isinstance(self.trace, bool):
            raise ParameterError(
                f"obs trace must be a boolean, got {self.trace!r}"
            )
        threshold = self.slow_request_seconds
        if threshold is not None:
            # 0 and null both mean "no slow-request log", normalised to
            # one spelling so configs round-trip canonically.
            threshold = (
                non_negative_seconds(threshold, "obs slow_request_seconds") or None
            )
        object.__setattr__(self, "slow_request_seconds", threshold)
        positive_int(self.span_ring_size, "obs span_ring_size")

    @classmethod
    def from_mapping(cls, raw: dict) -> "ObsSpec":
        return cls(**_fields_of(cls, raw, "obs config"))

    def to_mapping(self) -> dict:
        return _to_json(self)


@dataclass(frozen=True)
class ReproConfig:
    """Every deployment-wide setting, validated once.

    Parameters mirror what ``repro init`` persists plus the client-side
    defaults :class:`~repro.system.cdstore.CDStoreSystem` used to take as
    loose keyword arguments.  ``cloud_specs`` defaults to ``n`` local
    clouds; pass :class:`CloudSpec` objects or spec strings.
    """

    n: int = 4
    k: int = 3
    salt: str = ""
    chunker: str = DEFAULT_CHUNKER
    cloud_specs: tuple[CloudSpec, ...] = ()
    scheme: str = "caont-rs"
    threads: int = 1
    workers: str = "thread"
    pipeline_depth: int | str = 1
    #: Optional read gateway (:class:`GatewaySpec` or its mapping form);
    #: ``None`` means clients restore directly from the cloud quorum.
    gateway: GatewaySpec | None = None
    #: Observability shape (:class:`ObsSpec` or its mapping form); the
    #: default traces everything with a 1 s slow-request threshold.
    obs: ObsSpec = ObsSpec()

    def __post_init__(self) -> None:
        positive_int(self.n, "n")
        if not isinstance(self.k, int) or not 0 < self.k <= self.n:
            raise ParameterError(
                f"require 0 < k <= n, got (n={self.n}, k={self.k})"
            )
        chunker_spec(self.chunker)
        specs = tuple(cloud_spec(s) for s in self.cloud_specs)
        if not specs:
            specs = tuple(CloudSpec.local() for _ in range(self.n))
        if len(specs) != self.n:
            raise ParameterError(
                f"got {len(specs)} cloud specs for n={self.n} "
                "(one per cloud, 'local' or 'tcp://host:port')"
            )
        object.__setattr__(self, "cloud_specs", specs)
        if self.workers not in ("thread", "process"):
            raise ParameterError(
                f"workers must be 'thread' or 'process', got {self.workers!r}"
            )
        positive_int(self.threads, "threads")
        if self.pipeline_depth != "auto":
            positive_int(self.pipeline_depth, "pipeline_depth (or 'auto')")
        if self.gateway is not None and not isinstance(self.gateway, GatewaySpec):
            object.__setattr__(
                self, "gateway", GatewaySpec.from_mapping(self.gateway)
            )
        if not isinstance(self.obs, ObsSpec):
            object.__setattr__(self, "obs", ObsSpec.from_mapping(self.obs))

    # ------------------------------------------------------------------
    @property
    def salt_bytes(self) -> bytes:
        return self.salt.encode("utf-8")

    @property
    def remote_count(self) -> int:
        return sum(1 for spec in self.cloud_specs if spec.is_remote)

    def with_overrides(self, **kwargs) -> "ReproConfig":
        """A copy with some fields replaced (re-validated)."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # persistence (cdstore.json)
    # ------------------------------------------------------------------
    @classmethod
    def from_mapping(cls, raw: dict) -> "ReproConfig":
        """Build from a parsed ``cdstore.json`` dict.

        Accepts both the current schema and pre-config-object files
        (which lack ``scheme``/``threads``/… keys) — the compatibility
        shim that lets deployments initialised by earlier releases keep
        working unchanged.
        """
        # "mux" chose between two proxy modes until the serial one was
        # retired; files written back then still carry the key.
        kwargs = _fields_of(cls, raw, "config", retired=frozenset({"mux"}))
        for key in ("cloud_specs", "gateway", "obs"):
            if kwargs.get(key) is None:
                kwargs.pop(key, None)
        return cls(**kwargs)

    def to_mapping(self) -> dict:
        return _to_json(self)

    @classmethod
    def from_file(cls, path: str | Path) -> "ReproConfig":
        path = Path(path)
        if path.is_dir():
            path = path / CONFIG_FILE_NAME
        if not path.exists():
            raise ReproError(
                f"{path.parent} is not a CDStore deployment (run `repro init` first)"
            )
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config {path} is not JSON: {exc}") from exc
        try:
            return cls.from_mapping(raw)
        except ParameterError as exc:
            raise ParameterError(f"config {path}: {exc}") from exc

    def to_file(self, path: str | Path) -> None:
        path = Path(path)
        if path.is_dir():
            path = path / CONFIG_FILE_NAME
        path.write_text(
            json.dumps(self.to_mapping(), indent=2) + "\n", encoding="utf-8"
        )
