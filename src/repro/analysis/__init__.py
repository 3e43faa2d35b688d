"""Analysis tools: restore fragmentation metrics + the invariant checkers.

§5.5 observes that "deduplication now introduces chunk fragmentation [38]
for subsequent backups" and that download speed "will gradually degrade
due to fragmentation as we store more backups", while declining to address
it.  :mod:`repro.analysis.fragmentation` provides the measurement side:
per-restore container-access metrics that quantify the effect on real
deployments (and feed the fragmentation derating of the transfer model).

The rest of the package is the ``repro analyze`` invariant checker suite
(:mod:`repro.analysis.engine` + :mod:`repro.analysis.checkers`): AST
checkers that enforce this codebase's concurrency and durability
discipline — lock guards (LOCK-001), fsync ordering (DUR-00x), resource
lifecycle (LIFE-001), the metric catalogue (OBS-001) — plus the opt-in
runtime lock-order witness (:mod:`repro.analysis.witness`,
``REPRO_LOCK_WITNESS=1``).
"""

from repro.analysis.annotations import EXTERNAL, guarded_by, requires_lock
from repro.analysis.engine import (
    AnalysisError,
    Finding,
    RULE_DOCS,
    run_analysis,
)
from repro.analysis.fragmentation import FragmentationReport, analyze_fragmentation

__all__ = [
    "AnalysisError",
    "EXTERNAL",
    "Finding",
    "FragmentationReport",
    "RULE_DOCS",
    "analyze_fragmentation",
    "guarded_by",
    "requires_lock",
    "run_analysis",
]
