"""Encoding-speed experiments (Figure 5, §5.3).

The paper creates 2 GB of random in-memory data, chunks it with the 8 KB
variable-size chunker, encodes every secret into shares, and reports
``original bytes / total encode time``.  These drivers do the same with a
configurable data size (pure Python needs smaller defaults; the *relative*
ordering CAONT-RS > {AONT-RS, CAONT-RS-Rivest} is the reproduced claim).

Two speeds per row
------------------

Secrets are grouped into slabs and each slab encodes on a thread pool
with the batched codec kernels, the same way the client's comm engine
encodes (§4.6).  CPython cannot reproduce the paper's near-linear thread
scaling in wall-clock time: although hashlib and the OpenSSL-backed cipher
release the GIL, the Python-level share bookkeeping between those calls is
serialised.  So each slab also records the CPU seconds its pool thread
spent on it (``time.thread_time``), and :attr:`EncodingResult.mbps`
reports the **scheduled makespan**: greedy list scheduling of those slab
CPU times onto the pool width — what the pool would take with one free
core per thread and no GIL, the same makespan accounting the transfer
experiments use (:func:`~repro.cloud.network.makespan`).  That figure is a
model; :attr:`EncodingResult.wall_mbps` is the measured wall clock of the
same run, and tables print both so nothing is hidden.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.chunking.registry import create_chunker
from repro.client.workers import slab_spans
from repro.crypto.drbg import DRBG
from repro.sharing.base import SecretSharingScheme
from repro.sharing.registry import create_scheme

__all__ = [
    "EncodingResult",
    "encoding_speed",
    "sweep_threads",
    "sweep_n",
]

#: The three codecs Figure 5 compares.
FIGURE5_SCHEMES = ("caont-rs", "aont-rs", "caont-rs-rivest")


@dataclass(frozen=True)
class EncodingResult:
    """One measured encoding configuration."""

    scheme: str
    n: int
    k: int
    threads: int
    data_bytes: int
    #: Measured wall-clock seconds of the whole sweep step.
    seconds: float
    #: Greedy-makespan seconds of the slab CPU times over ``threads``
    #: pool threads (see the module docstring).
    sched_seconds: float

    @property
    def mbps(self) -> float:
        """Modelled encoding speed in MB/s of original data (the Figure 5
        metric): the scheduled makespan, see the module docstring."""
        return _mbps(self.data_bytes, self.sched_seconds)

    @property
    def wall_mbps(self) -> float:
        """Measured wall-clock speed."""
        return _mbps(self.data_bytes, self.seconds)


def _mbps(data_bytes: int, seconds: float) -> float:
    return data_bytes / 1e6 / seconds if seconds else float("inf")


def _make_secrets(
    data_bytes: int, seed: str = "fig5", chunker: str | None = None
) -> list[bytes]:
    """Variable-size chunks of random data (8 KB average, §5.3).

    ``chunker`` is a registry spec (``"rabin"`` default, or e.g.
    ``"gear"``).
    """
    data = DRBG(seed).random_bytes(data_bytes)
    return [chunk.data for chunk in create_chunker(chunker).chunk_bytes(data)]


def _greedy_makespan(durations: list[float], width: int) -> float:
    """List-schedule ``durations`` onto ``width`` workers; return the makespan."""
    loads = [0.0] * max(1, width)
    for duration in durations:
        loads[loads.index(min(loads))] += duration
    return max(loads)


def _encode_slab_timed(codec: SecretSharingScheme, slab: list[bytes]) -> float:
    """Encode one slab; return the CPU seconds of the thread that ran it.

    ``thread_time`` counts only CPU this thread consumed, not time spent
    waiting for the GIL or a core, so the figure is immune to contention
    with sibling pool threads — the property the makespan relies on.
    """
    start = time.thread_time()
    codec.encode_batch(slab)
    return time.thread_time() - start


def _encode_all(
    codec: SecretSharingScheme, secrets: list[bytes], threads: int
) -> tuple[float, float]:
    """One sweep step: returns (wall seconds, scheduled makespan)."""
    spans = slab_spans([len(s) for s in secrets], threads)
    slabs = [secrets[start:end] for start, end in spans]
    start_t = time.perf_counter()
    if threads == 1:
        cpu_times = [_encode_slab_timed(codec, slab) for slab in slabs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            cpu_times = list(
                pool.map(_encode_slab_timed, [codec] * len(slabs), slabs)
            )
    wall = time.perf_counter() - start_t
    return wall, _greedy_makespan(cpu_times, threads)


def encoding_speed(
    scheme: str,
    n: int = 4,
    k: int = 3,
    threads: int = 2,
    data_bytes: int = 2 << 20,
    secrets: list[bytes] | None = None,
    repeats: int = 1,
    chunker: str | None = None,
) -> EncodingResult:
    """Measure one scheme's encoding speed (best makespan of ``repeats``)."""
    if secrets is None:
        secrets = _make_secrets(data_bytes, chunker=chunker)
    codec = create_scheme(scheme, n, k)
    seconds, sched = min(
        (_encode_all(codec, secrets, threads) for _ in range(repeats)),
        key=lambda run: run[1],
    )
    return EncodingResult(
        scheme=scheme,
        n=n,
        k=k,
        threads=threads,
        data_bytes=sum(len(s) for s in secrets),
        seconds=seconds,
        sched_seconds=sched,
    )


def sweep_threads(
    threads_list: tuple[int, ...] = (1, 2, 3, 4),
    schemes: tuple[str, ...] = FIGURE5_SCHEMES,
    n: int = 4,
    k: int = 3,
    data_bytes: int = 2 << 20,
    repeats: int = 1,
    chunker: str | None = None,
) -> list[EncodingResult]:
    """Figure 5(a): encoding speed vs pool width at (n, k)=(4, 3)."""
    secrets = _make_secrets(data_bytes, chunker=chunker)
    return [
        encoding_speed(
            scheme, n=n, k=k, threads=t, secrets=secrets, repeats=repeats
        )
        for scheme in schemes
        for t in threads_list
    ]


def figure5b_k(n: int) -> int:
    """The paper's rule: k is the largest integer with k/n <= 3/4."""
    return (3 * n) // 4


def sweep_n(
    n_list: tuple[int, ...] = (4, 8, 12, 16, 20),
    schemes: tuple[str, ...] = FIGURE5_SCHEMES,
    threads: int = 2,
    data_bytes: int = 2 << 20,
    chunker: str | None = None,
) -> list[EncodingResult]:
    """Figure 5(b): encoding speed vs n with k = floor(3n/4), 2 threads."""
    secrets = _make_secrets(data_bytes, chunker=chunker)
    return [
        encoding_speed(
            scheme, n=n, k=figure5b_k(n), threads=threads, secrets=secrets
        )
        for scheme in schemes
        for n in n_list
    ]
