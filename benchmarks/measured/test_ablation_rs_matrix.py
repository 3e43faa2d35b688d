"""Ablation — Reed-Solomon generator construction: Vandermonde vs Cauchy.

Both are MDS and interchangeable on the wire; systematic encode cost
should be close, decode differs only in matrix inversion, amortised by
the decode-matrix cache.  Vandermonde tends to run faster in our
scalar-dispatch kernels because its systematised parity rows contain more
0/1 coefficients (which short-circuit to plain XOR) than a Cauchy
matrix's dense coefficients.  Nothing about speed is asserted; every
chunk must decode back from three of its four pieces.
"""

import time

from conftest import emit

from repro.bench.reporting import format_table
from repro.crypto.drbg import DRBG
from repro.erasure.reed_solomon import ReedSolomon


def test_ablation_rs_matrix():
    data = DRBG("rs").random_bytes(1 << 20)
    chunks = [data[i : i + 8192] for i in range(0, len(data), 8192)]

    def measure(matrix: str) -> float:
        rs = ReedSolomon(4, 3, matrix=matrix)
        start = time.perf_counter()
        for chunk in chunks:
            pieces = rs.encode(chunk)
            decoded = rs.decode({0: pieces[0], 2: pieces[2], 3: pieces[3]}, len(chunk))
            assert decoded == chunk
        return len(data) / 1e6 / (time.perf_counter() - start)

    table = format_table(
        ["construction", "encode+decode MB/s"],
        [[matrix, measure(matrix)] for matrix in ("vandermonde", "cauchy")],
        title="Ablation: RS generator construction, (n, k)=(4, 3)",
    )
    emit("ablation_rs_matrix", table)
