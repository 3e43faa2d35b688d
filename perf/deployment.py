"""The served deployment the benchmark drives, and its clients.

Untraced, every piece is built the way a user's commands build it:
``repro init`` creates the root, ``build_cloud_server`` (what ``repro
serve --async`` calls) builds each crash-only server, and clients come from
``CDStoreSystem.from_config(...).client(user, pipeline_depth="auto")`` as
in ``repro backup``.  Nothing else is set, so a changed program default is
measured.

Traced, the same objects are built with the timing delegates of
:mod:`spans` handed in at their constructors (the codec, which
``system.client`` takes no argument for, is swapped on the client's
dispersal).  ``_build_traced_server`` therefore repeats the body of
``build_cloud_server``; ``test_perf.py`` checks that the two still agree.
"""

from __future__ import annotations

import contextlib
import sys
import time
from pathlib import Path

from repro import cli
from repro.chunking.registry import create_chunker
from repro.cloud.network import Link
from repro.cloud.provider import CloudProvider
from repro.config import ReproConfig
from repro.net import AsyncCDStoreTCPServer
from repro.obs.registry import REGISTRY
from repro.server.index import LSMIndex
from repro.server.server import FETCH_BATCH_BYTES, CDStoreServer
from repro.storage.backend import LocalDirBackend
from repro.system import CDStoreSystem

import spans

N, K = 4, 3
HOST = "127.0.0.1"


def _build_traced_server(root: Path, index: int, tracer: spans.Tracer):
    config = ReproConfig.from_file(root)
    obs = config.obs
    REGISTRY.enabled = obs.enabled
    cloud = CloudProvider(
        name=f"cloud-{index}",
        uplink=Link(100.0),
        downlink=Link(100.0),
        backend=spans.TimedBackend(LocalDirBackend(root / f"cloud-{index}"), tracer),
    )
    durable_root = root / "state" / f"server-{index}"
    durable_root.mkdir(parents=True, exist_ok=True)
    server = CDStoreServer(
        server_id=index,
        cloud=cloud,
        index=spans.TimedIndex(LSMIndex(root / "indices" / f"server-{index}"), tracer),
        durable_root=durable_root,
    )
    return AsyncCDStoreTCPServer(
        spans.TimedServer(server, tracer),
        host=HOST,
        port=0,
        frame_budget=FETCH_BATCH_BYTES,
        trace=obs.enabled and obs.trace,
        span_ring=obs.span_ring_size,
        slow_threshold=obs.slow_request_seconds,
    )


class Deployment:
    """Four served clouds under ``root``, hosted on threads of this process.

    ``tracer`` installs the timing delegates; ``use_async=False`` serves
    through the thread-per-connection front-end instead (untraced only),
    for the front-end parity number.
    """

    def __init__(self, root: Path, tracer: spans.Tracer | None = None,
                 use_async: bool = True) -> None:
        self.root = root
        self.tracer = tracer
        self.use_async = use_async
        self.servers: list = []
        self._systems: list[CDStoreSystem] = []
        #: Seconds the most recent :meth:`boot` took (construct = recover).
        self.boot_s = 0.0
        # `repro init` reports on stdout, which belongs to the result line.
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(["init", "--root", str(root), "--n", str(N), "--k", str(K)])
        if code != 0:
            raise RuntimeError(f"repro init failed with exit code {code}")

    def boot(self) -> None:
        """Construct and start every server; construction is recovery."""
        started = time.perf_counter()
        for index in range(N):
            if self.tracer is not None:
                server = _build_traced_server(self.root, index, self.tracer)
            else:
                server = cli.build_cloud_server(
                    self.root, index, host=HOST, port=0, use_async=self.use_async
                )
            self.servers.append(server.start())
        self.boot_s = time.perf_counter() - started

    def shutdown(self) -> None:
        """Close every client system, then every server (as ``repro serve``
        does on the way down)."""
        for system in self._systems:
            system.close()
        self._systems = []
        for server in self.servers:
            server.close()
            server.server.close()
        self.servers = []

    def client(self, user: str):
        """A client for ``user`` with its own connections, as one ``repro
        backup`` / ``repro restore`` invocation has."""
        endpoints = tuple(
            f"tcp://{HOST}:{server.address[1]}" for server in self.servers
        )
        config = ReproConfig.from_file(self.root).with_overrides(cloud_specs=endpoints)
        system = CDStoreSystem.from_config(config)
        self._systems.append(system)
        if self.tracer is None:
            return system.client(user, pipeline_depth="auto")
        system.servers[:] = [
            spans.TimedProxy(proxy, self.tracer) for proxy in system.servers
        ]
        client = system.client(
            user,
            chunker=spans.TimedChunker(create_chunker(system.chunker), self.tracer),
            pipeline_depth="auto",
        )
        client.dispersal.codec = spans.TimedCodec(client.dispersal.codec, self.tracer)
        return client

    def cloud_bytes(self) -> int:
        """Bytes held by the ``cloud-i`` backend directories."""
        return _tree_bytes(self.root.glob("cloud-*"))

    def index_bytes(self) -> int:
        """Bytes held by the servers' LSM index directories."""
        return _tree_bytes([self.root / "indices"])

    def cache_stats(self) -> tuple[int, int]:
        """Container-cache ``(hits, misses)`` summed over the servers."""
        stats = [server.server.containers.cache_stats for server in self.servers]
        return sum(hits for hits, _ in stats), sum(misses for _, misses in stats)


def _tree_bytes(roots) -> int:
    return sum(
        path.stat().st_size
        for root in roots
        for path in root.rglob("*")
        if path.is_file()
    )
