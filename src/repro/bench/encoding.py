"""Encoding-speed experiments (Figure 5, §5.3).

The paper creates 2 GB of random in-memory data, chunks it with the 8 KB
variable-size chunker, encodes every secret into shares, and reports
``original bytes / total encode time``.  These drivers do the same with a
configurable data size (pure Python needs smaller defaults; the *relative*
ordering CAONT-RS > {AONT-RS, CAONT-RS-Rivest} is the reproduced claim).

Worker modes
------------

``workers="thread"`` drives the historical thread pool.  CPython cannot
reproduce the paper's near-linear thread scaling there: although hashlib
and the OpenSSL-backed cipher release the GIL, the Python-level share
bookkeeping between those calls is serialised, so the sweep is printed
faithfully (the deviation stays visible) but only the hardware-independent
codec ordering is asserted.

``workers="process"`` drives the same process pool the client's comm
engine uses (§4.6 realised with ``ProcessPoolExecutor``): secrets are
grouped into slabs, each slab is encoded in a worker process with the
batched codec kernels, and each worker reports the slab's *CPU seconds*
(``time.process_time``).  Alongside the measured wall clock, the harness
reports the **scheduled makespan** — greedy list scheduling of the slab
CPU times onto the worker count — as the throughput figure.  On a host
with at least as many free cores as workers the two coincide (the OS *is*
the greedy scheduler and the workers never contend); on the small
CI/container hosts this repo is typically benchmarked in, the measured
wall clock reflects core starvation rather than the codec, exactly the
situation the transfer experiments already handle with the
:func:`~repro.cloud.network.makespan` model.  The table prints both
columns so nothing is hidden.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

from repro.chunking.registry import create_chunker
from repro.client.workers import WORKER_MODES, slab_spans
from repro.crypto.drbg import DRBG
from repro.errors import ParameterError
from repro.sharing.base import SecretSharingScheme
from repro.sharing.registry import create_scheme

__all__ = [
    "EncodingResult",
    "encoding_speed",
    "sweep_threads",
    "sweep_n",
    "WORKER_MODES",
]

#: The three codecs Figure 5 compares.
FIGURE5_SCHEMES = ("caont-rs", "aont-rs", "caont-rs-rivest")

#: Per-(bench)worker codec cache: one codec per (scheme, n, k) per process.
_BENCH_CODECS: dict[tuple[str, int, int], SecretSharingScheme] = {}


def _bench_codec(spec: tuple[str, int, int]) -> SecretSharingScheme:
    codec = _BENCH_CODECS.get(spec)
    if codec is None:
        codec = create_scheme(*spec)
        _BENCH_CODECS[spec] = codec
    return codec


def _encode_slab_timed(spec: tuple[str, int, int], secrets: list[bytes]) -> float:
    """Encode one slab; return its CPU seconds (top level, so picklable).

    ``process_time`` counts only CPU actually consumed by this process, so
    the figure is immune to timeslicing against sibling workers on
    oversubscribed hosts — the property the makespan accounting relies on.
    """
    codec = _bench_codec(spec)
    start = time.process_time()
    codec.encode_batch(secrets)
    return time.process_time() - start


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
    #: Encode-pool flavour this row was measured with.
    workers: str = "thread"
    #: Greedy-makespan seconds of the slab CPU times over ``threads``
    #: workers (process mode only); None when wall clock is authoritative.
    sched_seconds: float | None = None

    @property
    def mbps(self) -> float:
        """Encoding speed in MB/s of original data (the Figure 5 metric).

        Process-mode rows report the scheduled-makespan figure (see the
        module docstring); thread/inline rows report measured wall clock.
        """
        seconds = self.sched_seconds if self.sched_seconds is not None else self.seconds
        return self.data_bytes / 1e6 / seconds if seconds else float("inf")

    @property
    def wall_mbps(self) -> float:
        """Measured wall-clock speed (always available)."""
        return self.data_bytes / 1e6 / self.seconds if self.seconds else float("inf")


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


def _encode_all_threads(
    codec: SecretSharingScheme, secrets: list[bytes], threads: int
) -> tuple[float, None]:
    """Thread/inline sweep step: batched slabs, measured wall clock."""
    spans = slab_spans([len(s) for s in secrets], threads)
    slabs = [secrets[start:end] for start, end in spans]
    start_t = time.perf_counter()
    if threads == 1:
        for slab in slabs:
            codec.encode_batch(slab)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(codec.encode_batch, slabs))
    return time.perf_counter() - start_t, None


def _encode_all_processes(
    spec: tuple[str, int, int],
    secrets: list[bytes],
    threads: int,
    pool: ProcessPoolExecutor,
) -> tuple[float, float]:
    """Process sweep step: returns (wall seconds, scheduled makespan)."""
    spans = slab_spans([len(s) for s in secrets], threads)
    slabs = [secrets[start:end] for start, end in spans]
    start_t = time.perf_counter()
    cpu_times = list(
        pool.map(_encode_slab_timed, [spec] * len(slabs), slabs)
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
    workers: str = "thread",
    chunker: str | None = None,
) -> EncodingResult:
    """Measure one scheme's encoding speed (best of ``repeats`` runs)."""
    if workers not in WORKER_MODES:
        raise ParameterError(
            f"unknown workers mode {workers!r}; expected one of {WORKER_MODES}"
        )
    if secrets is None:
        secrets = _make_secrets(data_bytes, chunker=chunker)
    total = sum(len(s) for s in secrets)
    spec = (scheme, n, k)
    if workers == "process":
        with ProcessPoolExecutor(max_workers=threads) as pool:
            # Warm-up: fork the workers and build their cached codecs
            # outside the measured region (steady-state throughput).
            list(pool.map(_encode_slab_timed, [spec] * threads, [[b"x"]] * threads))
            runs = [
                _encode_all_processes(spec, secrets, threads, pool)
                for _ in range(repeats)
            ]
    else:
        codec = create_scheme(scheme, n, k)
        runs = [_encode_all_threads(codec, secrets, threads) for _ in range(repeats)]
    seconds, sched = min(runs, key=lambda run: run[1] if run[1] is not None else run[0])
    return EncodingResult(
        scheme=scheme,
        n=n,
        k=k,
        threads=threads,
        data_bytes=total,
        seconds=seconds,
        workers=workers,
        sched_seconds=sched,
    )


def sweep_threads(
    threads_list: tuple[int, ...] = (1, 2, 3, 4),
    schemes: tuple[str, ...] = FIGURE5_SCHEMES,
    n: int = 4,
    k: int = 3,
    data_bytes: int = 2 << 20,
    workers: str = "thread",
    repeats: int = 1,
    chunker: str | None = None,
) -> list[EncodingResult]:
    """Figure 5(a): encoding speed vs pool width at (n, k)=(4, 3)."""
    secrets = _make_secrets(data_bytes, chunker=chunker)
    return [
        encoding_speed(
            scheme, n=n, k=k, threads=t, secrets=secrets, workers=workers,
            repeats=repeats,
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
    workers: str = "thread",
    chunker: str | None = None,
) -> list[EncodingResult]:
    """Figure 5(b): encoding speed vs n with k = floor(3n/4), 2 threads."""
    secrets = _make_secrets(data_bytes, chunker=chunker)
    return [
        encoding_speed(
            scheme, n=n, k=figure5b_k(n), threads=threads, secrets=secrets,
            workers=workers,
        )
        for scheme in schemes
        for n in n_list
    ]
