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
  system straight from it.

Secrets are deliberately *not* part of the config: tenant credentials
(:class:`~repro.tenants.Credentials`) are passed separately so the
config file stays safe to commit and copy around.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from repro.chunking.registry import DEFAULT_CHUNKER
from repro.errors import ParameterError, ReproError

__all__ = ["CloudSpec", "GatewaySpec", "ObsSpec", "ReproConfig", "CONFIG_FILE_NAME"]

#: Conventional config file name under a deployment root.
CONFIG_FILE_NAME = "cdstore.json"


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
            if not isinstance(self.port, int) or not 1 <= self.port <= 65535:
                raise ParameterError(
                    f"tcp cloud spec port {self.port!r} outside 1-65535"
                )
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

        The one canonical parser: the CLI's argparse types and the
        system façade all route here, so a malformed spec produces the
        same :class:`~repro.errors.ParameterError` everywhere.
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
        if not 1 <= port <= 65535:
            raise ParameterError(f"cloud spec {text!r} port out of range 1-65535")
        return cls.tcp(host, port)

    def __str__(self) -> str:
        if self.kind == "local":
            return "local"
        return f"tcp://{self.host}:{self.port}"


def _coerce_spec(value: "CloudSpec | str") -> CloudSpec:
    if isinstance(value, CloudSpec):
        return value
    return CloudSpec.parse(value)


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
        endpoint = _coerce_spec(self.endpoint)
        if not endpoint.is_remote:
            raise ParameterError(
                "gateway endpoint must be a tcp://host:port spec"
            )
        object.__setattr__(self, "endpoint", endpoint)
        if not isinstance(self.cache_bytes, int) or self.cache_bytes < 1:
            raise ParameterError(
                f"gateway cache_bytes must be a positive integer, "
                f"got {self.cache_bytes!r}"
            )
        if (
            not isinstance(self.recipe_ttl, (int, float))
            or isinstance(self.recipe_ttl, bool)
            or self.recipe_ttl < 0
        ):
            raise ParameterError(
                f"gateway recipe_ttl must be >= 0 seconds, "
                f"got {self.recipe_ttl!r}"
            )
        object.__setattr__(self, "recipe_ttl", float(self.recipe_ttl))
        if not isinstance(self.shard_count, int) or self.shard_count < 1:
            raise ParameterError(
                f"gateway shard_count must be a positive integer, "
                f"got {self.shard_count!r}"
            )
        object.__setattr__(
            self, "replicas", tuple(_coerce_spec(s) for s in self.replicas)
        )

    @classmethod
    def from_mapping(cls, raw: dict) -> "GatewaySpec":
        if not isinstance(raw, dict):
            raise ParameterError(
                f"gateway config must be a JSON object, got {type(raw).__name__}"
            )
        known = {"endpoint", "cache_bytes", "recipe_ttl", "shard_count", "replicas"}
        unknown = set(raw) - known
        if unknown:
            raise ParameterError(
                f"unknown gateway config keys: {', '.join(sorted(unknown))}"
            )
        if "endpoint" not in raw:
            raise ParameterError("gateway config needs an 'endpoint' key")
        kwargs = dict(raw)
        kwargs["replicas"] = tuple(kwargs.get("replicas") or ())
        return cls(**kwargs)

    def to_mapping(self) -> dict:
        return {
            "endpoint": str(self.endpoint),
            "cache_bytes": self.cache_bytes,
            "recipe_ttl": self.recipe_ttl,
            "shard_count": self.shard_count,
            "replicas": [str(spec) for spec in self.replicas],
        }


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
            if (
                not isinstance(threshold, (int, float))
                or isinstance(threshold, bool)
                or threshold < 0
            ):
                raise ParameterError(
                    f"obs slow_request_seconds must be >= 0 or null, "
                    f"got {threshold!r}"
                )
            # 0 and null both mean "no slow-request log", normalised to
            # one spelling so configs round-trip canonically.
            threshold = float(threshold) or None
        object.__setattr__(self, "slow_request_seconds", threshold)
        if not isinstance(self.span_ring_size, int) or self.span_ring_size < 1:
            raise ParameterError(
                f"obs span_ring_size must be a positive integer, "
                f"got {self.span_ring_size!r}"
            )

    @classmethod
    def from_mapping(cls, raw: dict) -> "ObsSpec":
        if not isinstance(raw, dict):
            raise ParameterError(
                f"obs config must be a JSON object, got {type(raw).__name__}"
            )
        known = {"enabled", "trace", "slow_request_seconds", "span_ring_size"}
        unknown = set(raw) - known
        if unknown:
            raise ParameterError(
                f"unknown obs config keys: {', '.join(sorted(unknown))}"
            )
        return cls(**raw)

    def to_mapping(self) -> dict:
        return {
            "enabled": self.enabled,
            "trace": self.trace,
            "slow_request_seconds": self.slow_request_seconds,
            "span_ring_size": self.span_ring_size,
        }


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
        if not isinstance(self.n, int) or self.n < 1:
            raise ParameterError(f"n must be a positive integer, got {self.n!r}")
        if not isinstance(self.k, int) or not 0 < self.k <= self.n:
            raise ParameterError(
                f"require 0 < k <= n, got (n={self.n}, k={self.k})"
            )
        specs = tuple(_coerce_spec(s) for s in self.cloud_specs)
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
        if not isinstance(self.threads, int) or self.threads < 1:
            raise ParameterError(
                f"threads must be a positive integer, got {self.threads!r}"
            )
        if isinstance(self.pipeline_depth, str):
            if self.pipeline_depth != "auto":
                raise ParameterError(
                    f"pipeline_depth must be a positive integer or 'auto', "
                    f"got {self.pipeline_depth!r}"
                )
        elif not isinstance(self.pipeline_depth, int) or self.pipeline_depth < 1:
            raise ParameterError(
                f"pipeline_depth must be a positive integer or 'auto', "
                f"got {self.pipeline_depth!r}"
            )
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
        if not isinstance(raw, dict):
            raise ParameterError(
                f"config must be a JSON object, got {type(raw).__name__}"
            )
        known = {
            "n", "k", "salt", "chunker", "cloud_specs", "scheme",
            "threads", "workers", "pipeline_depth", "gateway", "obs",
        }
        # "mux" chose between two proxy modes until the serial one was
        # retired; files written back then still carry the key.
        unknown = set(raw) - known - {"mux"}
        if unknown:
            raise ParameterError(
                f"unknown config keys: {', '.join(sorted(unknown))}"
            )
        kwargs = {key: raw[key] for key in known & set(raw)}
        if kwargs.get("cloud_specs") is None:
            kwargs.pop("cloud_specs", None)
        if kwargs.get("gateway") is None:
            kwargs.pop("gateway", None)
        if kwargs.get("obs") is None:
            kwargs.pop("obs", None)
        return cls(**kwargs)

    def to_mapping(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "salt": self.salt,
            "chunker": self.chunker,
            "cloud_specs": [str(spec) for spec in self.cloud_specs],
            "scheme": self.scheme,
            "threads": self.threads,
            "workers": self.workers,
            "pipeline_depth": self.pipeline_depth,
            "gateway": (
                self.gateway.to_mapping() if self.gateway is not None else None
            ),
            "obs": self.obs.to_mapping(),
        }

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
