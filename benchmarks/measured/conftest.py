"""Shared helpers for the measured tables.

Everything here reads a clock or drives a live socket, so tier-1 does not
collect it (``collect_ignore`` one directory up); CI's ``bench-smoke`` and
``bench-nightly`` jobs run it by path::

    PYTHONPATH=src python -m pytest benchmarks/measured -q

Each module prints one table and writes a copy under the untracked
``benchmarks/measured/out/`` (CI uploads that directory as its artifact).
The modules assert what they moved — restored bytes equal, rows non-empty
— and nothing about time: speed is judged by ``perf/run.py``, never here.

``REPRO_BENCH_SCALE`` (float, default ``1``) multiplies the data sizes of
the heavyweight tables via :func:`scaled`; bench-smoke sets it below 1 to
fit a PR-feedback budget, the nightly leaves it at 1.
"""

from __future__ import annotations

import os
from pathlib import Path

OUT_DIR = Path(__file__).parent / "out"

#: Multiplier applied by :func:`scaled`; see the module docstring.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1") or "1")


def scaled(nbytes: int, floor: int = 64 << 10) -> int:
    """Scale a working-set size by ``REPRO_BENCH_SCALE``.

    ``floor`` guards the statistical validity of tiny runs: below a few
    chunker windows most figures degenerate to noise.
    """
    return max(int(nbytes * BENCH_SCALE), floor)


def emit(name: str, text: str) -> None:
    """Print a result table and write it to benchmarks/measured/out/<name>.txt."""
    print()
    print(text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")
