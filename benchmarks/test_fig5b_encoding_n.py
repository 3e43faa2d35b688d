"""Figure 5(b) — encoding speed vs n (number of clouds), k = floor(3n/4).

Paper: speeds decline only slightly with n (about 8 % from n=4 to n=20 for
CAONT-RS) because Reed-Solomon parity generation is cheap next to the
AONT's cryptographic work.
"""

import os
from contextlib import contextmanager
from statistics import median

from conftest import BENCH_CHUNKER, emit, scaled

from repro.bench.encoding import FIGURE5_SCHEMES, _make_secrets, encoding_speed, figure5b_k
from repro.bench.reporting import format_table

DATA_BYTES = scaled(1 << 20, floor=256 << 10)
N_LIST = (4, 8, 12, 16, 20)
#: Back-to-back (n=4, n=20) pairs behind the floor assertion.
FLOOR_ROUNDS = 5


@contextmanager
def one_cpu():
    """Pin this thread, and the pool threads it starts, to a single CPU.

    The two encoder threads are GIL-serialised; when the guest scheduler
    spreads them over two vCPUs every GIL handoff is a cross-vCPU wake-up,
    which on the 2-core sandbox costs 3-4x and hits n=20 (more, smaller
    numpy calls) harder than n=4: the measured n=20 / n=4 ratio then sits
    at 0.12-0.17 instead of the 0.19-0.22 it has on one CPU, and flips
    between the two from run to run.  No-op where affinity is unsupported.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(before)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def test_fig5b(benchmark):
    secrets = _make_secrets(DATA_BYTES, chunker=BENCH_CHUNKER)

    def run():
        return [
            encoding_speed(scheme, n=n, k=figure5b_k(n), threads=2, secrets=secrets)
            for scheme in FIGURE5_SCHEMES
            for n in N_LIST
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    def caont_rs(n):
        return encoding_speed(
            "caont-rs", n=n, k=figure5b_k(n), threads=2, secrets=secrets
        ).mbps

    with one_cpu():
        floor_ratio = median(caont_rs(20) / caont_rs(4) for _ in range(FLOOR_ROUNDS))

    table = format_table(
        ["scheme", "n", "k", "MB/s"],
        [[r.scheme, r.n, r.k, r.mbps] for r in results],
        title="Figure 5(b): encoding speed vs n (k = 3n/4), 2 threads",
    )
    emit("fig5b", table)

    speed = {(r.scheme, r.n): r.mbps for r in results}
    for n in N_LIST:
        # CAONT-RS stays fastest at every n.
        assert speed[("caont-rs", n)] > speed[("caont-rs-rivest", n)]
    # Declining with n: the paper sees only ~8% from n=4 to n=20 because
    # GF-Complete makes Reed-Solomon nearly free next to AONT; in pure
    # Python the per-coefficient dispatch overhead is relatively much
    # larger, so we assert the weaker monotone-shape claim.
    assert speed[("caont-rs", 20)] < speed[("caont-rs", 4)]
    # The floor is on the median of paired one-CPU measurements: the two
    # ends of the sweep above are a cold n=4 sample against an n=20 sample
    # that may or may not have paid the cross-vCPU handoff (see one_cpu).
    assert floor_ratio > 0.15
