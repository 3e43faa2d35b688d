"""Chunker registry: spec strings and picklable :class:`ChunkerSpec`.

Chunking is a selectable subsystem (CLI ``--chunker``,
``CDStoreSystem(chunker=...)``), so chunkers are named and parameterised
the same way the PR 2 codec specs name dispersals: a registry maps a short
name to a factory plus the spec-string aliases of its constructor
arguments, and a :class:`ChunkerSpec` — a frozen dataclass of builtins,
hence picklable — travels to other processes and reconstructs an
equivalent chunker there.

Spec-string grammar::

    <name>                      e.g.  rabin, gear, fixed
    <name>:<k>=<v>,<k>=<v>,...  e.g.  gear:avg=8192,min=2048,max=16384
                                      fixed:size=4096

All parameter values are integers.  Deduplication only matches across
clients that chunk identically, so two clients must use the same spec to
dedup against each other (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chunking.base import Chunker
from repro.chunking.fixed import FixedChunker
from repro.chunking.gear import GearChunker
from repro.chunking.rabin import RabinChunker
from repro.errors import ParameterError

__all__ = [
    "DEFAULT_CHUNKER",
    "ChunkerSpec",
    "chunker_names",
    "create_chunker",
    "register_chunker",
]

#: Name used when no chunker is specified — by ``create_chunker(None)``,
#: ``ReproConfig`` and ``repro init`` alike (the paper's default, §4.2).
DEFAULT_CHUNKER = "rabin"

#: name -> (factory, {spec alias -> constructor kwarg}).
_REGISTRY: dict[str, tuple[type, dict[str, str]]] = {}


def register_chunker(name: str, factory: type, params: dict[str, str]) -> None:
    """Register a chunker ``factory`` under ``name``.

    ``params`` maps the short spec-string aliases to the factory's keyword
    arguments (e.g. ``{"avg": "avg_size"}``).  Re-registering a name
    replaces it, so downstream code can swap in accelerated variants.
    """
    _REGISTRY[name] = (factory, dict(params))


def chunker_names() -> tuple[str, ...]:
    """Registered chunker names, sorted."""
    return tuple(sorted(_REGISTRY))


register_chunker("fixed", FixedChunker, {"size": "size"})
register_chunker(
    "rabin",
    RabinChunker,
    {"avg": "avg_size", "min": "min_size", "max": "max_size", "window": "window"},
)
register_chunker(
    "gear",
    GearChunker,
    {"avg": "avg_size", "min": "min_size", "max": "max_size", "norm": "norm"},
)


@dataclass(frozen=True)
class ChunkerSpec:
    """Picklable description of a chunker configuration.

    Mirrors the codec spec of PR 2: plain builtins in, an equivalent live
    object out (:meth:`create`), so process workers and CLI flags share
    one vocabulary.
    """

    name: str
    params: tuple[tuple[str, int], ...] = field(default=())

    @classmethod
    def parse(cls, text: str) -> "ChunkerSpec":
        """Parse a spec string (see the module docstring for the grammar).

        Raises :class:`ParameterError` with an actionable message on an
        unknown chunker name, an unknown parameter alias, or a non-integer
        value; parameter *range* errors surface when :meth:`create` runs
        the factory's own validation.
        """
        name, _, arg_text = text.strip().partition(":")
        name = name.strip()
        if name not in _REGISTRY:
            raise ParameterError(
                f"unknown chunker {name!r}; expected one of {', '.join(chunker_names())}"
            )
        aliases = _REGISTRY[name][1]
        params: list[tuple[str, int]] = []
        if arg_text:
            for item in arg_text.split(","):
                key, sep, value = item.partition("=")
                key = key.strip()
                if not sep or key not in aliases:
                    raise ParameterError(
                        f"bad chunker parameter {item.strip()!r} for {name!r}; "
                        f"expected <key>=<int> with key in "
                        f"{{{', '.join(sorted(aliases))}}}"
                    )
                try:
                    params.append((key, int(value.strip())))
                except ValueError:
                    raise ParameterError(
                        f"chunker parameter {key!r} must be an integer, "
                        f"got {value.strip()!r}"
                    ) from None
        return cls(name=name, params=tuple(params))

    def create(self) -> Chunker:
        """Build the configured chunker (validating parameter ranges)."""
        if self.name not in _REGISTRY:
            raise ParameterError(
                f"unknown chunker {self.name!r}; expected one of "
                f"{', '.join(chunker_names())}"
            )
        factory, aliases = _REGISTRY[self.name]
        kwargs = {}
        for key, value in self.params:
            if key not in aliases:
                raise ParameterError(
                    f"unknown parameter {key!r} for chunker {self.name!r}; "
                    f"expected one of {', '.join(sorted(aliases))}"
                )
            kwargs[aliases[key]] = value
        chunker = factory(**kwargs)
        chunker._spec = self
        return chunker

    def __str__(self) -> str:
        if not self.params:
            return self.name
        args = ",".join(f"{key}={value}" for key, value in self.params)
        return f"{self.name}:{args}"


def create_chunker(spec: "Chunker | ChunkerSpec | str | None") -> Chunker:
    """Resolve any accepted chunker designation to a live chunker.

    ``None`` yields :data:`DEFAULT_CHUNKER`; live :class:`Chunker` instances
    pass through unchanged; strings parse as spec strings.
    """
    if spec is None:
        spec = DEFAULT_CHUNKER
    if isinstance(spec, Chunker):
        return spec
    if isinstance(spec, str):
        spec = ChunkerSpec.parse(spec)
    if not isinstance(spec, ChunkerSpec):
        raise ParameterError(
            f"cannot build a chunker from {type(spec).__name__}; expected a "
            "Chunker, ChunkerSpec, spec string or None"
        )
    return spec.create()
