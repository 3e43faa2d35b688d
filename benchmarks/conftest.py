"""Shared helper for the pinned paper reproductions.

Every module tier-1 collects here regenerates one deterministic table or
figure of the paper from a model or a byte/op count (see "Paper
reproductions" in docs/ARCHITECTURE.md), prints the rows the paper
reports, and holds the rendering to the tracked copy under
``benchmarks/out/`` with :func:`pin`.  Nothing here reads a clock or the
environment, so a test run leaves ``git status`` clean unless a model
changed.  Add ``-s`` to watch the tables print live.

Whatever needs a stopwatch or a socket lives in ``benchmarks/measured/``,
which tier-1 does not collect; run it by path
(``python -m pytest benchmarks/measured -q``).
"""

from __future__ import annotations

from pathlib import Path

import pytest

_BENCH_DIR = Path(__file__).parent
OUT_DIR = _BENCH_DIR / "out"

collect_ignore = ["measured"]


def pytest_collection_modifyitems(items) -> None:
    """Every benchmark counts as ``slow``: ``-m "not slow"`` skips the lot.

    The hook fires with the whole session's items, so scope the marker to
    tests that actually live under ``benchmarks/``.
    """
    for item in items:
        if _BENCH_DIR in Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.slow)


def pin(name: str, text: str) -> None:
    """Print a result table and hold it to ``benchmarks/out/<name>.txt``.

    A rendering that differs from the tracked one (or has none yet)
    replaces it on disk *and* fails the test, so accepting an intended
    model change is re-running the test and committing the diff.
    """
    print()
    print(text)
    golden = OUT_DIR / f"{name}.txt"
    rendered = text + "\n"
    if golden.exists() and golden.read_text() == rendered:
        return
    golden.write_text(rendered)
    pytest.fail(
        f"{golden.name} no longer matches its pinned rendering: review "
        f"`git diff benchmarks/out`, commit if the model change is intended",
        pytrace=False,
    )
