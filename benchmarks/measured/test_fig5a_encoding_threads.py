"""Figure 5(a) — encoding speed vs number of workers, (n, k) = (4, 3).

Paper: all three codecs speed up near-linearly to 4 threads; CAONT-RS
(OAEP-based AONT) is the fastest, beating CAONT-RS-Rivest by 40-61 % and
AONT-RS by 12-35 % on the authors' machines.

This harness drives the same process pool the client's comm engine uses
(``workers="process"``, §4.6): slabs of secrets encode in worker processes
with the batched codec kernels, so encoding escapes the GIL.  Two columns
are reported per configuration (see :mod:`repro.bench.encoding`):

* ``MB/s`` — the scheduled-makespan figure: slab CPU times list-scheduled
  onto the worker count.  On a host with enough free cores this equals
  wall clock; on starved CI/container hosts it is the hardware-independent
  rendering of the paper's scaling claim (the same makespan accounting the
  transfer experiments' model uses).
* ``wall MB/s`` — the measured wall clock of this very run, printed so
  core starvation is visible rather than hidden.

Nothing about speed is asserted (see "Paper reproductions" in
docs/ARCHITECTURE.md): the paper's claims to read off the table are that
CAONT-RS stays the fastest codec at every worker count and that its
4-worker throughput is at least twice its 1-worker throughput.

One documented deviation remains: the per-word overhead of the Rivest
transforms is amplified in pure Python, so CAONT-RS's lead is *larger*
than the paper's and the two Rivest-based codecs are nearly tied.
"""

from conftest import emit, scaled

from repro.bench.encoding import FIGURE5_SCHEMES, _make_secrets, encoding_speed
from repro.bench.reporting import format_table

DATA_BYTES = scaled(1 << 20, floor=256 << 10)  # from the paper's 2 GB
WORKERS = (1, 2, 3, 4)


def test_fig5a():
    secrets = _make_secrets(DATA_BYTES)
    results = [
        encoding_speed(
            scheme, threads=w, secrets=secrets, workers="process", repeats=3
        )
        for scheme in FIGURE5_SCHEMES
        for w in WORKERS
    ]

    table = format_table(
        ["scheme", "workers", "MB/s", "wall MB/s"],
        [[r.scheme, r.threads, r.mbps, r.wall_mbps] for r in results],
        title="Figure 5(a): encoding speed vs #workers (process pool), (n, k)=(4, 3)",
    )
    emit("fig5a", table)

    assert len(results) == len(FIGURE5_SCHEMES) * len(WORKERS)
