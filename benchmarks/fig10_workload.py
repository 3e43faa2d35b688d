"""Figure 10's shared workload: seeded zipf draws over a stored catalog.

Used by the pinned replay (``test_fig10_gateway.py``) and by the measured
8-reader loopback leg (``measured/test_fig10_aggregate.py``), so both read
the same catalog in the same order.
"""

from __future__ import annotations

import bisect
import random

from repro.chunking.fixed import FixedChunker
from repro.client.client import CDStoreClient
from repro.cloud.network import Link
from repro.cloud.provider import CloudProvider
from repro.crypto.drbg import DRBG
from repro.server.server import CDStoreServer

N, K = 4, 3


def zipf_ranks(
    n_items: int, count: int, theta: float = 1.1, seed: int = 0
) -> list[int]:
    """``count`` catalog ranks drawn zipf(``theta``), deterministically.

    Classic inverse-CDF sampling over the finite harmonic weights
    ``(rank+1)**-theta`` with a seeded :class:`random.Random`: the same
    ``(n_items, count, theta, seed)`` yields the same sequence on every
    machine and Python build, which is what lets the cache-hit ratio be
    pinned rather than measured.
    """
    weights = [1.0 / (rank + 1) ** theta for rank in range(n_items)]
    total = sum(weights)
    cdf: list[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    rng = random.Random(seed)
    return [
        min(bisect.bisect_left(cdf, rng.random()), n_items - 1)
        for _ in range(count)
    ]


def make_servers() -> list[CDStoreServer]:
    return [
        CDStoreServer(
            server_id=i,
            cloud=CloudProvider(f"cloud-{i}", Link(1000.0), Link(1000.0)),
        )
        for i in range(N)
    ]


def make_client(servers, **kwargs) -> CDStoreClient:
    return CDStoreClient(
        user_id="reader",
        servers=list(servers),
        k=K,
        salt=b"fig10",
        chunker=FixedChunker(4096),
        **kwargs,
    )


def store_catalog(servers, files: int, file_bytes: int) -> dict[str, bytes]:
    writer = make_client(servers)
    catalog = {}
    for rank in range(files):
        name = f"/fig10/rank-{rank}"
        data = DRBG(f"fig10-{rank}").random_bytes(file_bytes)
        writer.upload(name, data)
        catalog[name] = data
    writer.flush()
    return catalog
