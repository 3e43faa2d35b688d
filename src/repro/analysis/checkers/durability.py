"""DUR-001/002/003/004: publishes, acks, log records and deletes behind
their barriers.

Scope: modules under ``storage/`` or ``server/`` (plus any module whose
stem is one of those names, e.g. ``net/server.py``) — the layers that own
persistence and acknowledgement.  Within each function the checker builds
a line-ordered event trace:

* **write** — ``.write(...)`` / ``.writelines(...)`` (buffered handle) or
  ``.write_bytes(...)`` / ``.write_text(...)`` (whole-file Path API);
* **flush** — ``.flush()``;
* **fsync** — ``os.fsync(...)``;
* **publish** — ``os.rename``/``os.replace`` or the one-argument
  ``<path>.rename(...)``/``<path>.replace(...)`` Path form (the
  one-argument requirement keeps ``str.replace(old, new)`` out);
* **ack** — ``.sendall(...)``;
* **commit** — ``._commit_durable()`` or ``.commit()``;
* **delete** — ``.delete_object(...)``.

A publish (DUR-001) or ack (DUR-002) that appears after a write with no
``os.fsync`` in between is flagged; a buffered write additionally needs a
``flush()`` before the fsync, since fsyncing an unflushed Python file
object persists nothing.  The trace is per-function and line-ordered —
deliberately naive about branches, which is the right trade for a
codebase-specific checker: the durability-critical paths here are
straight-line (temp write → flush → fsync → rename).

DUR-003 covers the other half of the ordering: a record that names a
location in another log may reach the OS only after that log's commit.
The index WAL names container entries the container journal commits
first, so in modules under ``lsm/``:

* a **log** — a class with ``append_*`` methods and a ``sync()`` — may
  ``write``/``flush`` its file only inside ``sync`` (the commit) or
  ``reset``; a write anywhere else lets a record escape ahead of the
  commit that makes it valid;
* a **store** — a class with ``put``/``delete`` and a ``flush()`` — must
  not reach ``flush`` from ``put`` or ``delete`` through ``self.*``
  calls: a memtable flush inside a request publishes that request's
  mutations before its commit.

DUR-004 puts deletes behind the commit, in the per-function trace of
``storage/`` and ``server/`` modules: a ``delete_object`` with no commit
earlier in its function is flagged.  An object may go only once the
index that stops naming it is durable; deleted first, a crash before
the commit reboots an index whose entries name an object that is gone
(``collect_garbage`` had exactly this order until it was fixed).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.engine import FileContext, Finding

__all__ = ["check_durability", "check_log_order"]

_BUFFERED_WRITES = frozenset({"write", "writelines"})
_COMMITS = frozenset({"_commit_durable", "commit"})
_WHOLE_FILE_WRITES = frozenset({"write_bytes", "write_text"})


def walk_shallow(fn: ast.AST):
    """``ast.walk`` that does not descend into nested function/class defs.

    Keeps each function's event trace its own: a helper closure's writes
    must not satisfy (or trip) the enclosing function's ordering.
    """
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            stack.extend(ast.iter_child_nodes(node))


@dataclass(frozen=True)
class _Event:
    line: int
    # write-buffered | write-whole | flush | fsync | publish | ack | commit | delete
    kind: str
    label: str


def _classify(call: ast.Call) -> _Event | None:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    attr = func.attr
    if attr in _BUFFERED_WRITES:
        return _Event(call.lineno, "write-buffered", attr)
    if attr in _WHOLE_FILE_WRITES:
        return _Event(call.lineno, "write-whole", attr)
    if attr == "flush":
        return _Event(call.lineno, "flush", attr)
    if attr == "fsync" and isinstance(func.value, ast.Name) and func.value.id == "os":
        return _Event(call.lineno, "fsync", "os.fsync")
    if attr in {"rename", "replace"}:
        if isinstance(func.value, ast.Name) and func.value.id == "os":
            return _Event(call.lineno, "publish", f"os.{attr}")
        if len(call.args) == 1 and not call.keywords:
            # Path.rename/Path.replace take one target; str.replace takes
            # two — arity is the cheap, reliable discriminator.
            return _Event(call.lineno, "publish", f".{attr}()")
    if attr == "sendall":
        return _Event(call.lineno, "ack", "sendall")
    if attr in _COMMITS and not call.args:
        return _Event(call.lineno, "commit", f"{attr}()")
    if attr == "delete_object":
        return _Event(call.lineno, "delete", attr)
    return None


def _check_function(
    ctx: FileContext, fn: ast.FunctionDef | ast.AsyncFunctionDef
) -> list[Finding]:
    events = sorted(
        (
            event
            for node in walk_shallow(fn)
            if isinstance(node, ast.Call) and (event := _classify(node)) is not None
        ),
        key=lambda e: e.line,
    )
    findings: list[Finding] = []
    first_commit = min((e.line for e in events if e.kind == "commit"), default=None)
    for sink in events:
        if sink.kind == "delete" and (first_commit is None or first_commit > sink.line):
            findings.append(
                ctx.finding(
                    sink.line,
                    "DUR-004",
                    (
                        f"{sink.label} runs before this function's commit "
                        f"(_commit_durable()/commit()) — a crash in between "
                        f"reboots an index naming an object that is gone"
                    ),
                )
            )
        if sink.kind not in {"publish", "ack"}:
            continue
        writes = [e for e in events if e.kind.startswith("write") and e.line < sink.line]
        if not writes:
            continue
        last_write = writes[-1]
        between = [e for e in events if last_write.line < e.line < sink.line]
        fsyncs = [e for e in between if e.kind == "fsync"]
        rule = "DUR-001" if sink.kind == "publish" else "DUR-002"
        noun = "publish" if sink.kind == "publish" else "ack"
        if not fsyncs:
            findings.append(
                ctx.finding(
                    sink.line,
                    rule,
                    (
                        f"{sink.label} {noun} reachable after "
                        f"{last_write.label} (line {last_write.line}) with no "
                        f"os.fsync barrier in between — a crash can "
                        f"{'publish a torn file' if noun == 'publish' else 'lose acknowledged data'}"
                    ),
                )
            )
        elif last_write.kind == "write-buffered" and not any(
            e.kind == "flush" and e.line < fsyncs[-1].line for e in between
        ):
            findings.append(
                ctx.finding(
                    sink.line,
                    rule,
                    (
                        f"os.fsync before this {noun} is not preceded by "
                        f"flush() of the buffered {last_write.label} "
                        f"(line {last_write.line}) — unflushed user-space "
                        f"buffers are not made durable by fsync"
                    ),
                )
            )
    return findings


def check_durability(ctx: FileContext) -> list[Finding]:
    if not ctx.in_scope("storage", "server"):
        return []
    findings: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            findings.extend(_check_function(ctx, node))
    return findings


_LOG_COMMITS = frozenset({"sync", "reset"})
_STORE_MUTATORS = ("put", "delete")


def _self_calls(fn: ast.AST) -> list[tuple[int, str]]:
    """``(line, name)`` of every ``self.<name>(...)`` call in ``fn``."""
    return [
        (node.lineno, node.func.attr)
        for node in walk_shallow(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "self"
    ]


def _path_to_flush(methods: dict[str, ast.AST], chain: list[str]) -> list[str] | None:
    """The ``self.*`` call chain from ``chain`` to ``flush``, if any."""
    if chain[-1] == "flush":
        return chain
    fn = methods.get(chain[-1])
    if fn is None:
        return None
    for _, callee in _self_calls(fn):
        if callee not in chain:
            found = _path_to_flush(methods, chain + [callee])
            if found is not None:
                return found
    return None


def _check_log_class(ctx: FileContext, cls: ast.ClassDef) -> list[Finding]:
    methods = {
        node.name: node
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    findings: list[Finding] = []
    if "sync" in methods and any(name.startswith("append_") for name in methods):
        for name, fn in methods.items():
            if name in _LOG_COMMITS:
                continue
            for node in walk_shallow(fn):
                event = _classify(node) if isinstance(node, ast.Call) else None
                if event is not None and event.kind in {"write-buffered", "flush"}:
                    findings.append(
                        ctx.finding(
                            event.line,
                            "DUR-003",
                            (
                                f"{cls.name}.{name} hands log bytes to the OS "
                                f"({event.label}) outside sync()/reset() — a "
                                f"record can reach disk before the commit it "
                                f"depends on"
                            ),
                        )
                    )
    if "flush" in methods:
        for entry in _STORE_MUTATORS:
            if entry not in methods:
                continue
            for line, callee in _self_calls(methods[entry]):
                chain = _path_to_flush(methods, [entry, callee])
                if chain is not None:
                    findings.append(
                        ctx.finding(
                            line,
                            "DUR-003",
                            (
                                f"{cls.name}.{entry} reaches flush() "
                                f"({' → '.join(chain)}) — a memtable flush "
                                f"mid-request publishes mutations before "
                                f"their commit; flush only at sync()"
                            ),
                        )
                    )
    return findings


def check_log_order(ctx: FileContext) -> list[Finding]:
    if not ctx.in_scope("lsm"):
        return []
    findings: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef):
            findings.extend(_check_log_class(ctx, node))
    return findings
