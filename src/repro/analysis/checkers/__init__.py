"""Checker registry for ``repro analyze``.

Adding a checker: write ``check_*`` in a module here, append it to
:data:`FILE_CHECKERS` (runs once per parsed file) or
:data:`PROJECT_CHECKERS` (runs once over the whole file set), and give
its rule id a one-liner in :data:`repro.analysis.engine.RULE_DOCS` — a
test asserts the docs and the README stay in sync with the registry.
"""

from __future__ import annotations

from repro.analysis.checkers.durability import check_durability, check_log_order
from repro.analysis.checkers.lifecycle import check_lifecycle
from repro.analysis.checkers.locks import check_lock_discipline
from repro.analysis.checkers.obs_docs import check_obs_docs
from repro.analysis.checkers.picklable import check_picklable

__all__ = [
    "FILE_CHECKERS",
    "PROJECT_CHECKERS",
    "check_durability",
    "check_lifecycle",
    "check_lock_discipline",
    "check_log_order",
    "check_obs_docs",
    "check_picklable",
]

FILE_CHECKERS = [
    check_lock_discipline,
    check_durability,
    check_log_order,
    check_lifecycle,
    check_picklable,
]

PROJECT_CHECKERS = [
    check_obs_docs,
]
