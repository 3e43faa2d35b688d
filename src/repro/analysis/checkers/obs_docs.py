"""OBS-001: every registered metric is catalogued in the observability doc.

A project-level checker.  The metrics registry (``repro.obs.registry``)
hands out counters, gauges and histograms by *name string* — nothing in
the type system forces a new ``REGISTRY.counter("x_total")`` call site to
show up in ``docs/OBSERVABILITY.md``, yet that catalogue is what
operators read to interpret a ``repro stats`` snapshot.  This checker
closes the loop: adding a metric forces you to visit the doc.

For every analysed file it collects the first-argument string literal of
each ``<anything>.counter("...")`` / ``.gauge("...")`` /
``.histogram("...")`` call whose receiver is a name containing
``REGISTRY`` (the module-global, however it was imported).  It then
locates the nearest ``docs/OBSERVABILITY.md`` (or a bare
``OBSERVABILITY.md``) walking up from the declaring file, stopping at
the README root so fixture trees never borrow the enclosing
repository's catalogue, and requires each metric name to appear there
as a whole word.

* OBS-001 — a registered metric name missing from the catalogue, or
  metrics registered with no catalogue document at all.

Whole-word textual matching is the right strength: the doc mentioning
the name in a table row, heading or prose all count — the point is that
the catalogue was visited, not that it has a particular shape.  Files that register no metrics contribute nothing,
so fixtures and scoped runs stay exercisable.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.analysis.engine import FileContext, Finding, Project

__all__ = ["check_obs_docs"]

_METRIC_METHODS = frozenset({"counter", "gauge", "histogram"})


def _registered_metrics(ctx: FileContext) -> list[tuple[str, str, int]]:
    """``(metric name, kind, lineno)`` for every registry registration."""
    out: list[tuple[str, str, int]] = []
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _METRIC_METHODS
            and isinstance(node.func.value, ast.Name)
            and "REGISTRY" in node.func.value.id
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            continue
        out.append((node.args[0].value, node.func.attr, node.lineno))
    return out


def _word_present(word: str, text: str) -> bool:
    return re.search(rf"\b{re.escape(word)}\b", text) is not None


def _nearest_obs_doc(path: Path) -> Path | None:
    """``docs/OBSERVABILITY.md`` (or a bare ``OBSERVABILITY.md``) walking
    up from the declaring module, stopping at the README root so fixture
    trees never borrow the enclosing repository's catalogue."""
    for parent in path.resolve().parents:
        for candidate in (
            parent / "OBSERVABILITY.md",
            parent / "docs" / "OBSERVABILITY.md",
        ):
            if candidate.is_file():
                return candidate
        if (parent / "README.md").is_file():
            return None
    return None


def check_obs_docs(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for ctx in project.files:
        metrics = _registered_metrics(ctx)
        if not metrics:
            continue
        doc = _nearest_obs_doc(ctx.path)
        if doc is None:
            findings.append(
                ctx.finding(
                    metrics[0][2],
                    "OBS-001",
                    f"this module registers {len(metrics)} metric(s) but no "
                    f"OBSERVABILITY.md / docs/OBSERVABILITY.md exists between "
                    f"it and the README root — registered metrics have no "
                    f"operator catalogue to drift-check against",
                )
            )
            continue
        doc_text = doc.read_text()
        for name, kind, lineno in metrics:
            if not _word_present(name, doc_text):
                findings.append(
                    ctx.finding(
                        lineno,
                        "OBS-001",
                        f"{kind} {name!r} is registered here but missing "
                        f"from the metric catalogue in {doc.name} — every "
                        f"registered metric must be documented",
                    )
                )
    return findings
