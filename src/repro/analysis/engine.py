"""The ``repro analyze`` checker framework.

A small AST-walking analysis engine purpose-built for this codebase: it
knows nothing about Python semantics in general, only about the handful
of invariants PRs 1–5 established by hand — lock discipline, durability
ordering, resource lifecycle, spec picklability, the metric catalogue —
and mechanically re-checks them on every run so a later refactor cannot
silently regress one.

Vocabulary:

* a **rule** is an identifier like ``LOCK-001`` with a registered checker;
* a **finding** is one violation, rendered ``path:line: RULE-NNN message``;
* a **suppression** is an inline ``# analysis: ignore[RULE-NNN] -- why``
  comment on the flagged line.  The justification text after ``--`` is
  mandatory: a bare suppression is itself a finding (SUP-001), so every
  silenced rule carries its reviewable excuse in the diff.

Checkers come in two shapes: *file checkers* run once per parsed file,
*project checkers* run once over the whole file set (the metric-catalogue
cross-check needs every registering module and the catalogue document in
one view).  Both return plain :class:`Finding` lists; the engine owns
file collection, parsing, suppression filtering and ordering.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

__all__ = [
    "AnalysisError",
    "FileContext",
    "Finding",
    "Project",
    "RULE_DOCS",
    "iter_python_files",
    "run_analysis",
]


class AnalysisError(Exception):
    """A file could not be analysed at all (unreadable, unparseable)."""


#: One-line documentation per rule, surfaced by ``repro analyze --rules``
#: and kept in sync with the README's invariants section by test.
RULE_DOCS: dict[str, str] = {
    "LOCK-001": (
        "an attribute declared in a guarded_by() map is mutated outside a "
        "`with self.<lock>:` block (and the method is not marked as "
        "requiring the lock)"
    ),
    "DUR-001": (
        "a rename/replace-style publish is reachable after a file write "
        "with no intervening os.fsync barrier (torn on crash)"
    ),
    "DUR-002": (
        "an ack (sendall) is reachable after a file write with no "
        "intervening os.fsync barrier (acks non-durable state)"
    ),
    "OBS-001": (
        "a metric registered on the obs registry (REGISTRY.counter/gauge/"
        "histogram) is missing from the docs/OBSERVABILITY.md catalogue, "
        "or metrics are registered with no catalogue document at all"
    ),
    "LIFE-001": (
        "a socket/file/shared-memory resource acquired in a function is "
        "not released on all paths (no with/try-finally/ownership handoff "
        "before fallible calls)"
    ),
    "PICKLE-001": (
        "a *Spec dataclass shipped to process workers declares a field "
        "whose type is not on the known-picklable allowlist"
    ),
    "SUP-001": (
        "an `# analysis: ignore[...]` suppression carries no justification "
        "text after `--`"
    ),
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


_SUPPRESS_RE = re.compile(
    r"#\s*analysis:\s*ignore\[([A-Z]+-\d+(?:\s*,\s*[A-Z]+-\d+)*)\]"
    r"(?:\s*--\s*(\S.*))?"
)


class _Suppressions:
    """Per-file map of line -> suppressed rule ids (+ SUP-001 findings)."""

    def __init__(self, display_path: str, lines: list[str]) -> None:
        self.by_line: dict[int, set[str]] = {}
        self.unjustified: list[Finding] = []
        for lineno, text in enumerate(lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            rules = {part.strip() for part in match.group(1).split(",")}
            if not match.group(2):
                # A suppression with no written excuse silences nothing:
                # SUP-001 fires *and* the underlying finding survives.
                self.unjustified.append(
                    Finding(
                        path=display_path,
                        line=lineno,
                        rule="SUP-001",
                        message=(
                            "suppression needs a justification: "
                            "`# analysis: ignore[RULE] -- <why this is safe>`"
                        ),
                    )
                )
                continue
            self.by_line.setdefault(lineno, set()).update(rules)

    def covers(self, finding: Finding) -> bool:
        return finding.rule in self.by_line.get(finding.line, ())


class FileContext:
    """One parsed source file plus the bookkeeping checkers need."""

    def __init__(self, path: Path, display_path: str) -> None:
        self.path = path
        self.display_path = display_path
        try:
            self.source = path.read_text()
        except OSError as exc:
            raise AnalysisError(f"cannot read {display_path}: {exc}") from exc
        try:
            self.tree = ast.parse(self.source, filename=display_path)
        except SyntaxError as exc:
            raise AnalysisError(
                f"cannot parse {display_path}: {exc.msg} (line {exc.lineno})"
            ) from exc
        self.lines = self.source.splitlines()
        self.suppressions = _Suppressions(display_path, self.lines)
        # Parent links let checkers ask "is this call inside a try whose
        # handler releases the resource" without re-walking from the root.
        self.parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent

    def in_scope(self, *directory_names: str) -> bool:
        """Whether any path component (or the module stem) names a scope."""
        parts = set(Path(self.display_path).parts)
        parts.add(Path(self.display_path).stem)
        return bool(parts.intersection(directory_names))

    def finding(self, node_or_line: ast.AST | int, rule: str, message: str) -> Finding:
        line = (
            node_or_line
            if isinstance(node_or_line, int)
            else getattr(node_or_line, "lineno", 1)
        )
        return Finding(
            path=self.display_path, line=line, rule=rule, message=message
        )


class Project:
    """The full analysed file set (project-wide cross-checks)."""

    def __init__(self, files: list[FileContext]) -> None:
        self.files = files

    def find(self, *suffixes: str) -> list[FileContext]:
        """Files whose display path ends with any of ``suffixes``."""
        return [
            ctx
            for ctx in self.files
            if any(ctx.display_path.endswith(suffix) for suffix in suffixes)
        ]


FileChecker = Callable[[FileContext], list[Finding]]
ProjectChecker = Callable[[Project], list[Finding]]


def iter_python_files(paths: Iterable[str | Path]) -> list[tuple[Path, str]]:
    """Expand files/directories into ``(path, display_path)`` pairs.

    Directories recurse into ``*.py``; explicit file arguments are taken
    as-is.  Display paths stay as given (relative in, relative out) so
    findings render the way the caller addressed the tree.
    """
    out: list[tuple[Path, str]] = []
    seen: set[Path] = set()

    def add(path: Path) -> None:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            out.append((path, str(path)))

    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                add(sub)
        else:
            add(path)
    return out


def _checkers() -> tuple[list[FileChecker], list[ProjectChecker]]:
    # Imported lazily so `from repro.analysis import engine` has no
    # checker-module import cost (the witness and fragmentation users
    # never need them).
    from repro.analysis.checkers import FILE_CHECKERS, PROJECT_CHECKERS

    return list(FILE_CHECKERS), list(PROJECT_CHECKERS)


def run_analysis(paths: Iterable[str | Path]) -> list[Finding]:
    """Run every registered checker over ``paths``; returns the findings.

    Unparseable files surface as :class:`AnalysisError` — an analysis run
    that cannot see the code must fail loudly, not report a clean tree.
    Suppressed findings are dropped; unjustified suppressions are added.
    """
    file_checkers, project_checkers = _checkers()
    contexts = [
        FileContext(path, display) for path, display in iter_python_files(paths)
    ]
    project = Project(contexts)
    findings: list[Finding] = []
    for ctx in contexts:
        findings.extend(ctx.suppressions.unjustified)
        for checker in file_checkers:
            findings.extend(checker(ctx))
    for checker in project_checkers:
        findings.extend(checker(project))
    by_path = {ctx.display_path: ctx for ctx in contexts}
    kept = [
        finding
        for finding in findings
        if finding.rule == "SUP-001"
        or finding.path not in by_path
        or not by_path[finding.path].suppressions.covers(finding)
    ]
    kept.sort(key=lambda f: (f.path, f.line, f.rule))
    return kept
