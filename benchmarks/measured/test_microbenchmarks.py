"""Substrate microbenchmarks (context for the paper-figure numbers).

Not a paper table — these measure the building blocks so readers of the
measured figures (see "Paper reproductions" in docs/ARCHITECTURE.md) can
see *why* the absolute throughputs sit where they do in pure Python: the
from-scratch AES vs the OpenSSL backend, GF(2^8) bulk kernels,
Reed-Solomon encode, SHA-256 hashing, both chunkers, the LSM store and
the server's ranged fetch of one restore window.
Nothing about speed is asserted; what breaks when a kernel is wrong are
the equivalence tests in tier-1 (``test_chunking.py`` golden cuts,
``test_batch_equivalence.py``, ``test_aes.py``).
"""

import time
from unittest import mock

import numpy as np
from conftest import emit

from repro.bench.reporting import format_table
from repro.crypto.ciphers import AesCtr, available_aes_backends, mask_stack
from repro.crypto.drbg import DRBG
from repro.crypto.hashing import sha256
from repro.erasure.reed_solomon import ReedSolomon
from repro.gf.gf256 import gf_mul_bytes


def _rate(nbytes: float, seconds: float) -> float:
    return nbytes / 1e6 / seconds if seconds else float("inf")


try:
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    def _legacy_mask(key: bytes, length: int) -> bytes:
        """The pre-kernel mask path: fresh CTR context + zeros per secret."""
        enc = Cipher(algorithms.AES(key), modes.CTR(b"\0" * 16)).encryptor()
        return enc.update(b"\0" * length)

except Exception:  # pragma: no cover - hosts without the cryptography wheel

    def _legacy_mask(key: bytes, length: int) -> bytes:
        return AesCtr(key, backend="pure").keystream(length)


def test_microbenchmarks():
    data = DRBG("micro").random_bytes(1 << 20)
    rows = []

    # AES-CTR keystream, both backends.
    for backend in available_aes_backends():
        ctr = AesCtr(b"k" * 32, backend=backend)
        start = time.perf_counter()
        ctr.keystream(len(data))
        rows.append([f"aes-ctr ({backend})", _rate(len(data), time.perf_counter() - start)])
    # AONT mask generation over *distinct* per-secret keys: the
    # convergent-encoding hot path (one EVP setup per key is
    # irreducible).  "legacy ctr" replays the pre-kernel path — a
    # fresh CTR cipher, IV packing and a fresh zero buffer per secret;
    # "ecb kernel" is the batched one-shot AES-ECB-of-counters path
    # the CAONT-RS batch encoder now uses (cached counter plaintext,
    # shared mode object, update_into).
    keys = [sha256(data[i : i + 32]) for i in range(0, 256 * 32, 32)]
    legacy = kernel = float("inf")
    for _ in range(3):  # best-of-3: EVP setup timings are noisy
        start = time.perf_counter()
        for key in keys:
            _legacy_mask(key, 8192)
        legacy = min(legacy, time.perf_counter() - start)
        start = time.perf_counter()
        mask_stack(keys, 8192)
        kernel = min(kernel, time.perf_counter() - start)
    rows.append(["aont mask (legacy ctr / secret)", _rate(len(keys) * 8192, legacy)])
    rows.append(["aont mask (batched ecb kernel)", _rate(len(keys) * 8192, kernel)])
    # SHA-256 (stdlib).
    start = time.perf_counter()
    for off in range(0, len(data), 8192):
        sha256(data[off : off + 8192])
    rows.append(["sha-256 (8 KB chunks)", _rate(len(data), time.perf_counter() - start)])
    # GF(2^8) scalar-vector multiply.
    arr = np.frombuffer(data, dtype=np.uint8)
    start = time.perf_counter()
    for _ in range(8):
        gf_mul_bytes(0x57, arr)
    rows.append(["gf256 mul_bytes", _rate(8 * len(data), time.perf_counter() - start)])
    # Reed-Solomon encode (4, 3), 8 KB pieces.
    rs = ReedSolomon(4, 3)
    start = time.perf_counter()
    for off in range(0, len(data), 8192):
        rs.encode(data[off : off + 8192])
    rows.append(["reed-solomon encode (4,3)", _rate(len(data), time.perf_counter() - start)])
    # Chunkers: the cut scan the Rabin ingest path runs (the blocked
    # two-level kernel of repro.chunking.scan on Rabin's tables), its
    # byte-at-a-time rolling reference (kept only as executable
    # documentation / property-test anchor), gear's dense rendering
    # (what its tests pin the same kernel to), and both end-to-end
    # ingest paths.
    from repro.chunking import GearChunker, RabinChunker

    chunker, gear = RabinChunker(), GearChunker()
    for label, size, work in (
        ("rabin cut scan (vectorized)", 512 << 10, chunker._scan),
        ("rabin fingerprints (rolling ref)", 64 << 10, chunker.rolling_fingerprints),
        ("rabin chunking (ingest path)", 512 << 10, lambda d: list(chunker.chunk_bytes(d))),
        ("gear hashes (dense kernel)", 512 << 10, gear.window_hashes),
        ("gear chunking (ingest path)", 512 << 10, lambda d: list(gear.chunk_bytes(d))),
    ):
        best = float("inf")
        for _ in range(3):  # best-of-3: these are 5-60 ms one-shots
            start = time.perf_counter()
            work(data[:size])
            best = min(best, time.perf_counter() - start)
        rows.append([label, _rate(size, best)])
    # The same cut scan on one thread and on every CPU of the affinity
    # mask (the caller plus helper threads, one segment each); 8 MiB, since
    # 512 KiB is only two segments.
    from repro.chunking import scan

    big = np.random.default_rng(8).bytes(8 << 20)
    for width in sorted({1, scan._WIDTH}):
        best = float("inf")
        with mock.patch.object(scan, "_WIDTH", width):
            for _ in range(3):
                start = time.perf_counter()
                chunker._scan(big)
                best = min(best, time.perf_counter() - start)
        rows.append([f"rabin cut scan, 8 MiB (width {width})", _rate(len(big), best)])
    # LSM store put/get throughput.
    import tempfile

    from repro.lsm.db import LSMStore

    with tempfile.TemporaryDirectory() as tmp:
        with LSMStore(tmp) as db:
            start = time.perf_counter()
            for i in range(2000):
                db.put(f"key-{i:06d}".encode(), data[i % 1024 : i % 1024 + 100])
            put_rate = 2000 / (time.perf_counter() - start)
            start = time.perf_counter()
            for i in range(2000):
                assert db.get(f"key-{i:06d}".encode()) == data[i % 1024 : i % 1024 + 100]
            get_rate = 2000 / (time.perf_counter() - start)
            # The same gets once the memtable has gone to one compacted
            # SSTable — what a server reads after a reboot: bloom probe,
            # bisect over the sparse index, decoded block from the cache.
            db.flush()
            db.compact()
            start = time.perf_counter()
            for i in range(2000):
                assert db.get(f"key-{i:06d}".encode()) == data[i % 1024 : i % 1024 + 100]
            table_get_rate = 2000 / (time.perf_counter() - start)
    rows.append(["lsm puts/s", put_rate])
    rows.append(["lsm gets/s", get_rate])
    rows.append(["lsm gets/s (compacted table)", table_get_rate])

    # The restore read path below the wire: one 4 MiB window of 3 KB
    # shares, asked for in the order backup wrote them, fetched through
    # CDStoreServer.iter_share_batches off a LocalDirBackend with a cold
    # container cache — one index get per share, one ranged read per
    # contiguous container run.
    from repro.cloud.network import Link
    from repro.cloud.provider import CloudProvider
    from repro.crypto.hashing import fingerprint
    from repro.server.messages import ShareMeta, ShareUpload
    from repro.server.server import CDStoreServer
    from repro.storage.backend import LocalDirBackend

    shares = [DRBG(f"share-{i}").random_bytes(3000) for i in range((4 << 20) // 3000)]
    window = [fingerprint(share, "server") for share in shares]
    with tempfile.TemporaryDirectory() as tmp:
        cloud = CloudProvider("micro", Link(100.0), Link(100.0), backend=LocalDirBackend(tmp))
        server = CDStoreServer(0, cloud)
        server.upload_shares("u", [
            ShareUpload(
                ShareMeta(fingerprint(share, "client"), len(share), seq, len(share)), share
            )
            for seq, share in enumerate(shares)
        ])
        server.flush()
        containers = len(cloud.backend.list_keys("container-"))
        assert server.fetch_shares(window) == dict(zip(window, shares))  # tables cached
        best = float("inf")
        for _ in range(3):
            server.containers._cache.clear()
            before = cloud.backend.get_ops
            start = time.perf_counter()
            server.fetch_shares(window)
            best = min(best, time.perf_counter() - start)
            reads = cloud.backend.get_ops - before
            assert reads == containers  # one read per container run, not per share
    rows.append(["ranged fetch, 4 MiB window", _rate(sum(map(len, shares)), best)])
    rows.append(["ranged fetch, backend reads per window", reads])

    table = format_table(
        ["substrate", "MB/s or ops/s"],
        rows,
        title="Substrate microbenchmarks (1 MB working set)",
    )
    emit("microbenchmarks", table)
