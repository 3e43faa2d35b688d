"""Figure 5(b) — encoding speed vs n (number of clouds), k = floor(3n/4).

Paper: speeds decline only slightly with n (about 8 % from n=4 to n=20 for
CAONT-RS) because Reed-Solomon parity generation is cheap next to the
AONT's cryptographic work.  In pure Python the per-coefficient dispatch
overhead is relatively much larger, so expect the same monotone shape
with a steeper slope (n=20 runs at roughly a fifth of n=4).  ``MB/s`` is
the scheduled makespan of the 2-thread pool and ``wall MB/s`` the measured
wall clock, as in Figure 5(a).  Nothing about speed is asserted.
"""

from conftest import emit, scaled

from repro.bench.encoding import FIGURE5_SCHEMES, _make_secrets, encoding_speed, figure5b_k
from repro.bench.reporting import format_table

DATA_BYTES = scaled(1 << 20, floor=256 << 10)
N_LIST = (4, 8, 12, 16, 20)


def test_fig5b():
    secrets = _make_secrets(DATA_BYTES)
    results = [
        encoding_speed(scheme, n=n, k=figure5b_k(n), threads=2, secrets=secrets)
        for scheme in FIGURE5_SCHEMES
        for n in N_LIST
    ]

    table = format_table(
        ["scheme", "n", "k", "MB/s", "wall MB/s"],
        [[r.scheme, r.n, r.k, r.mbps, r.wall_mbps] for r in results],
        title="Figure 5(b): encoding speed vs n (k = 3n/4), 2 threads",
    )
    emit("fig5b", table)

    assert len(results) == len(FIGURE5_SCHEMES) * len(N_LIST)
