"""Experiment drivers shared by ``benchmarks/`` and ``examples/``.

Each module regenerates one of the paper's tables/figures (see "Paper
reproductions" in docs/ARCHITECTURE.md):

* :mod:`repro.bench.table1` — secret-sharing comparison (Table 1);
* :mod:`repro.bench.encoding` — encoding-speed sweeps (Figure 5);
* :mod:`repro.bench.dedup` — two-stage dedup trace simulation (Figure 6);
* :mod:`repro.bench.transfer` — transfer-speed models (Table 2, Figures
  7-8);
* :mod:`repro.bench.reporting` — tiny table-printing helpers.

The cost analysis (Figure 9) lives in :mod:`repro.costs`.
"""

from repro.bench.dedup import TwoStageSimulator, WeeklyDedupRow, simulate_two_stage
from repro.bench.encoding import encoding_speed, sweep_n, sweep_threads
from repro.bench.reporting import format_table
from repro.bench.table1 import scheme_comparison
from repro.bench.transfer import (
    aggregate_upload_speeds,
    baseline_transfer_speeds,
    client_upload_walltime,
    cloud_speed_table,
    trace_transfer_speeds,
)

__all__ = [
    "TwoStageSimulator",
    "WeeklyDedupRow",
    "aggregate_upload_speeds",
    "baseline_transfer_speeds",
    "client_upload_walltime",
    "cloud_speed_table",
    "encoding_speed",
    "format_table",
    "scheme_comparison",
    "simulate_two_stage",
    "sweep_n",
    "sweep_threads",
    "trace_transfer_speeds",
]
