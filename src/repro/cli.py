"""Command-line interface: a persistent local CDStore deployment.

Gives the library the operational surface a downstream user expects:

.. code-block:: bash

    python -m repro init    --root ./store --n 4 --k 3 --salt my-org
    python -m repro backup  --root ./store --user alice /path/to/file
    python -m repro ls      --root ./store --user alice
    python -m repro restore --root ./store --user alice /path/to/file -o out.bin
    python -m repro delete  --root ./store --user alice /path/to/file
    python -m repro stats   --root ./store
    python -m repro cost    --weekly-tb 16 --dedup 10
    python -m repro serve   --root ./store --cloud 0 --port 9300

The deployment persists under ``--root``: one :class:`LocalDirBackend`
directory per simulated cloud, one LSM index directory and one crash-only
state directory per server, so separate invocations see the same state
(including deduplication against earlier backups).  Every command opens
a root's local clouds with the servers ``repro serve`` runs, one process
at a time.

Network mode: ``repro serve`` hosts one cloud's server as a TCP service,
and ``repro init --cloud-spec tcp://host:port`` records that a cloud
lives behind such a service — every later command on that deployment
drives it through a :class:`~repro.net.client.RemoteServerProxy` over the
binary wire protocol, mixing local and remote clouds freely.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

from repro.chunking import DEFAULT_CHUNKER, chunker_names
from repro.client.comm import PIPELINE_DEPTH
from repro.config import (
    CONFIG_FILE_NAME,
    CloudSpec,
    GatewaySpec,
    ReproConfig,
    chunker_spec,
    cloud_index,
    cloud_spec,
    non_negative_seconds,
    positive_int,
    positive_number,
    remote_spec,
    tcp_port,
)
from repro.errors import ReproError
from repro.obs.log import StructuredLog
from repro.system.cdstore import CDStoreSystem, open_root_server
from repro.tenants import (
    TENANTS_FILE_NAME,
    Credentials,
    TenantQuota,
    TenantRecord,
    TenantRegistry,
)

__all__ = ["main", "build_parser"]

#: Environment variable the CLI reads the tenant shared secret from
#: (alternative to ``--secret-file``; never passed on the command line
#: where other local users could read it out of the process table).
SECRET_ENV = "REPRO_TENANT_SECRET"


def _flag(check, parse=str):
    """argparse ``type`` running one :mod:`repro.config` field check.

    ``parse`` turns the flag's text into the value ``check`` validates.
    Text it cannot parse, or a value the check rejects, is a usage error
    (exit 2, naming the flag) at the prompt — before any cloud is
    touched — by the same rule the config layer applies to the value
    when it is persisted or loaded.
    """

    def convert(text: str):
        try:
            return check(parse(text))
        except ReproError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {parse.__name__}, got {text!r}"
            ) from None

    return convert


def _apply_obs(config: ReproConfig) -> dict:
    """Apply the deployment's :class:`~repro.config.ObsSpec` to this
    process and return the front-end tracing kwargs.

    The metrics kill switch is process-wide (the registry is shared by
    every layer), so serving processes honour ``obs.enabled`` here; the
    per-front-end tracing knobs travel as constructor kwargs.
    """
    from repro.obs.registry import REGISTRY

    obs = config.obs
    REGISTRY.enabled = obs.enabled
    return {
        "trace": obs.enabled and obs.trace,
        "span_ring": obs.span_ring_size,
        "slow_threshold": obs.slow_request_seconds,
    }


def _credentials_from(args: argparse.Namespace) -> Credentials | None:
    """Tenant credentials from ``--secret-file`` or the environment.

    The tenant id defaults to ``--user`` (the common case: each tenant
    backs up under its own id); ``--tenant`` overrides it for admin
    credentials driving another user's restore.
    """
    secret: bytes | None = None
    secret_file = getattr(args, "secret_file", None)
    if secret_file is not None:
        secret = Path(secret_file).read_bytes().strip()
    elif os.environ.get(SECRET_ENV):
        secret = os.environ[SECRET_ENV].encode("utf-8")
    if secret is None:
        return None
    tenant = getattr(args, "tenant", None) or getattr(args, "user", None)
    if not tenant:
        raise ReproError(
            f"a tenant secret was supplied ({SECRET_ENV} or --secret-file) "
            "but no tenant id; pass --tenant"
        )
    return Credentials(tenant_id=tenant, secret=secret)


def _open_system(args: argparse.Namespace) -> CDStoreSystem:
    """The system over ``--root``: its local clouds get the crash-only
    servers ``repro serve`` runs, so opening the root recovers it."""
    root = Path(args.root)
    return CDStoreSystem.from_config(
        ReproConfig.from_file(root), root=root, credentials=_credentials_from(args)
    )


def _tenant_registry(root: Path, tenants_file: str | Path | None) -> TenantRegistry | None:
    """The registry ``tenants_file`` names, else ``tenants.json`` under
    ``root`` when present; ``None`` means open mode."""
    if tenants_file is None and (root / TENANTS_FILE_NAME).exists():
        tenants_file = root / TENANTS_FILE_NAME
    return TenantRegistry.from_file(tenants_file) if tenants_file is not None else None


def _front_end_caps(executor_size, max_connections, write_queue_cap) -> dict:
    """The async front-end caps that were set; unset ones keep its defaults."""
    caps = dict(executor_size=executor_size, max_connections=max_connections,
                write_queue_cap=write_queue_cap)
    return {name: value for name, value in caps.items() if value is not None}


def _emit_summary(args: argparse.Namespace, client, event: str, human: str, **fields) -> None:
    """One operation summary: a JSON event under ``--log-json``, prose
    otherwise, both naming the trace id of the client's most recent root
    span.  The JSON line carries every field (tenant and trace ids
    included) so log shippers need no prose parsing."""
    spans = client.spans.spans()
    trace_id = spans[-1].trace_id if spans else None
    if args.log_json:
        StructuredLog(json_lines=True).event(
            event, user=args.user, tenant=args.tenant or args.user,
            trace_id=trace_id, **fields,
        )
    else:
        print(f"{human} [trace {trace_id}]")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_init(args: argparse.Namespace) -> int:
    root = Path(args.root)
    config_path = root / CONFIG_FILE_NAME
    if config_path.exists():
        raise ReproError(f"{root} already initialised")
    if args.cloud_spec and len(args.cloud_spec) != args.n:
        raise ReproError(
            f"got {len(args.cloud_spec)} --cloud-spec values for "
            f"n={args.n} (pass one per cloud, 'local' or 'tcp://host:port')"
        )
    # Only what was passed: GatewaySpec owns the defaults.
    gateway = {
        key: value
        for key, value in (
            ("cache_bytes", args.gateway_cache_bytes),
            ("recipe_ttl", args.gateway_recipe_ttl),
            ("shard_count", args.gateway_shard_count),
            ("replicas", args.gateway_replica),
        )
        if value is not None
    }
    if args.gateway is not None:
        gateway["endpoint"] = args.gateway
    elif gateway:
        raise ReproError("--gateway-* options require --gateway tcp://host:port")
    config = ReproConfig(
        n=args.n,
        k=args.k,
        salt=args.salt,
        chunker=args.chunker,
        cloud_specs=tuple(args.cloud_spec) if args.cloud_spec else (),
        gateway=gateway or None,
    )
    root.mkdir(parents=True, exist_ok=True)
    config.to_file(config_path)
    for i, spec in enumerate(config.cloud_specs):
        if not spec.is_remote:
            open_root_server(root, i).close()
    gateway_note = (
        f", gateway at {config.gateway.endpoint}" if config.gateway is not None else ""
    )
    print(f"initialised CDStore deployment at {root} "
          f"(n={config.n}, k={config.k}, chunker={config.chunker}, "
          f"{config.remote_count} remote cloud(s){gateway_note})")
    return 0


def cmd_backup(args: argparse.Namespace) -> int:
    with _open_system(args) as system:
        source = Path(args.path)
        data = source.read_bytes()
        name = args.name or str(source)
        client = system.client(
            args.user,
            chunker=args.chunker,
            threads=args.threads,
            workers=args.workers,
            pipeline_depth=(
                "auto" if args.pipeline_depth is None else args.pipeline_depth
            ),
        )
        receipt = client.upload(name, data)
        client.flush()
        _emit_summary(
            args,
            client,
            "backup_complete",
            f"backed up {receipt.file_size} bytes as {name!r}: "
            f"{receipt.secret_count} secrets, "
            f"{receipt.transferred_share_bytes} share bytes transferred "
            f"(intra-user saving {receipt.intra_user_saving:.1%}, "
            f"pipeline depth {receipt.pipeline_depth})",
            path=name,
            file_size=receipt.file_size,
            secret_count=receipt.secret_count,
            transferred_share_bytes=receipt.transferred_share_bytes,
            intra_user_saving=round(receipt.intra_user_saving, 4),
            pipeline_depth=receipt.pipeline_depth,
        )
        return 0


def cmd_restore(args: argparse.Namespace) -> int:
    with _open_system(args) as system:
        client = system.client(
            args.user,
            threads=args.threads,
            pipeline_depth=(
                "auto" if args.pipeline_depth is None else args.pipeline_depth
            ),
        )
        data = client.download(args.name)
        Path(args.output).write_bytes(data)
        _emit_summary(
            args,
            client,
            "restore_complete",
            f"restored {len(data)} bytes to {args.output}",
            path=args.name,
            output=str(args.output),
            file_size=len(data),
        )
        return 0


def cmd_ls(args: argparse.Namespace) -> int:
    with _open_system(args) as system:
        for path in system.client(args.user).list_files():
            print(path)
        return 0


def cmd_delete(args: argparse.Namespace) -> int:
    with _open_system(args) as system:
        system.client(args.user).delete(args.name)
        if args.gc:
            freed = sum(server.collect_garbage() for server in system.servers)
            print(f"deleted {args.name!r}; GC reclaimed {freed} bytes")
        else:
            print(f"deleted {args.name!r}")
        return 0


def build_cloud_server(
    root: str | Path,
    cloud_index: int,
    host: str = "127.0.0.1",
    port: int = 0,
    frame_budget: int | None = None,
    tenants_file: str | Path | None = None,
    use_async: bool = False,
    executor_size: int | None = None,
    max_connections: int | None = None,
    write_queue_cap: int | None = None,
):
    """Build the TCP server for one cloud of a local deployment.

    Factored out of :func:`cmd_serve` so tests (and embedders) can start
    and stop the server programmatically; the CLI wraps it in
    ``serve_forever``.

    ``use_async=True`` builds the multiplexed event-loop front-end
    (:class:`~repro.net.async_server.AsyncCDStoreTCPServer`) instead of
    the thread-per-connection server: same storage stack, same protocol
    behaviour, but thousands of connections multiplex onto one loop and
    a bounded executor (``executor_size`` threads), with per-connection
    outbound queues capped at ``write_queue_cap`` bytes and admission
    capped at ``max_connections``.  The remaining knobs only apply there.

    The server is :func:`~repro.system.cdstore.open_root_server`'s, the
    one every command on the root gets: **crash-only**, with a durable
    root (container journal + fsynced index commits before every ack),
    locked against a second opener, and construction *is* recovery —
    half-written temporaries are reaped, journaled containers
    republished and dangling index entries dropped before the port
    opens.  When ``tenants_file`` is given — or ``tenants.json`` exists
    under ``root`` — the connection handshake and per-tenant quotas are
    enforced.
    """
    from repro.net import AsyncCDStoreTCPServer, CDStoreTCPServer
    from repro.server.server import FETCH_BATCH_BYTES

    root = Path(root)

    config = ReproConfig.from_file(root)
    if not 0 <= cloud_index < config.n:
        raise ReproError(
            f"cloud index {cloud_index} outside this deployment's range "
            f"0-{config.n - 1} (n={config.n})"
        )
    spec = config.cloud_specs[cloud_index]
    if spec.is_remote:
        raise ReproError(
            f"cloud {cloud_index} of this deployment is remote "
            f"({spec}); serve it from the deployment that holds its data"
        )
    registry = _tenant_registry(root, tenants_file)
    front_end = {
        "host": host,
        "port": port,
        "frame_budget": frame_budget if frame_budget is not None else FETCH_BATCH_BYTES,
        "tenants": registry,
        **_apply_obs(config),
    }
    server = open_root_server(root, cloud_index, tenants=registry)
    if use_async:
        return AsyncCDStoreTCPServer(
            server,
            **front_end,
            **_front_end_caps(executor_size, max_connections, write_queue_cap),
        )
    return CDStoreTCPServer(server, **front_end)


def _front_end_args(args: argparse.Namespace) -> dict:
    """The flags ``serve`` and ``gateway`` share, as builder kwargs."""
    return {
        "host": args.host,
        "port": args.port,
        "tenants_file": args.tenants,
        "executor_size": args.executor_size,
        "max_connections": args.max_connections,
        "write_queue_cap": args.write_queue_cap,
    }


def _serve_until_interrupted(tcp, what: str, details: str, backend, on_interrupt=None) -> int:
    """Start ``tcp``, print its banner and serve until Ctrl-C, then close
    the front-end and ``backend`` (the server or gateway behind it)."""
    try:
        tcp.start()
        host, port = tcp.address
        mode = "authenticated" if tcp.tenants is not None else "open"
        print(f"serving {what} at tcp://{host}:{port} "
              f"({mode} mode, {details}; Ctrl-C to stop)")
        tcp.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
        if on_interrupt is not None:
            on_interrupt()
    finally:
        tcp.close()
        backend.close()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    tcp = build_cloud_server(
        Path(args.root),
        args.cloud,
        frame_budget=args.frame_budget,
        use_async=args.use_async,
        **_front_end_args(args),
    )
    recovery = tcp.server.last_recovery
    if recovery is not None and not recovery.clean:
        print(f"recovered after crash: "
              f"{len(recovery.reaped_temporaries)} temporaries reaped, "
              f"{len(recovery.republished_containers)} container(s) republished, "
              f"{recovery.dangling_share_entries + recovery.dangling_file_entries + recovery.dangling_intra_mappings} "
              f"dangling index entrie(s) dropped")
    front_end = "async mux" if args.use_async else "thread-per-connection"
    return _serve_until_interrupted(
        tcp,
        f"cloud {args.cloud}",
        f"{front_end} front-end, frame budget {tcp.frame_budget} bytes",
        tcp.server,
    )


def build_gateway(
    root: str | Path,
    host: str = "127.0.0.1",
    port: int = 0,
    tenants_file: str | Path | None = None,
    credentials: Credentials | None = None,
    executor_size: int | None = None,
    max_connections: int | None = None,
    write_queue_cap: int | None = None,
):
    """Build the sharded read-gateway front-end for a deployment.

    Loads the deployment's :class:`~repro.config.GatewaySpec`, dials the
    serving replicas (``gateway.replicas`` when configured, otherwise the
    deployment's remote ``cloud_specs``) and mounts a
    :class:`~repro.gateway.GatewayService` behind the async mux
    front-end with ``server=None`` — the gateway answers only ping, auth
    and the two gateway frames, and rejects server-API frames with a
    typed protocol error.

    Replica proxies keep their **cloud index** as ``server_id``: the
    client's decoder keys share maps by dispersal share index, so a
    gateway that renumbered replicas would hand back undecodable shard
    streams.  Against authenticated replicas, pass admin ``credentials``
    — replica-side owner scoping would otherwise refuse the gateway
    cross-tenant fetches (the *client*-facing side enforces tenancy per
    connection exactly like ``repro serve``).
    """
    from repro.gateway import GatewayService
    from repro.net import AsyncCDStoreTCPServer, RemoteServerProxy
    from repro.server.server import FETCH_BATCH_BYTES

    root = Path(root)
    config = ReproConfig.from_file(root)
    gw = config.gateway
    if gw is None:
        raise ReproError(
            f"deployment {root} has no gateway configured "
            "(re-run `repro init` with --gateway, or edit cdstore.json)"
        )
    # GatewaySpec only admits tcp:// replicas, and only remote cloud
    # specs stand in for them.
    if gw.replicas:
        replica_specs = list(enumerate(gw.replicas))
    else:
        replica_specs = [
            (index, spec)
            for index, spec in enumerate(config.cloud_specs)
            if spec.is_remote
        ]
    if len(replica_specs) < config.k:
        raise ReproError(
            f"gateway needs at least k={config.k} serving replicas, "
            f"got {len(replica_specs)} (configure gateway.replicas or "
            "serve more clouds remotely)"
        )
    registry = _tenant_registry(root, tenants_file)
    replicas = [
        RemoteServerProxy(
            str(spec),
            server_id=index,
            credentials=credentials,
        )
        for index, spec in replica_specs
    ]
    service = GatewayService(
        replicas,
        k=config.k,
        cache_bytes=gw.cache_bytes,
        recipe_ttl=gw.recipe_ttl,
        shard_count=gw.shard_count,
        own_replicas=True,
    )
    return AsyncCDStoreTCPServer(
        None,
        host=host,
        port=port,
        frame_budget=FETCH_BATCH_BYTES,
        tenants=registry,
        gateway=service,
        **_front_end_caps(executor_size, max_connections, write_queue_cap),
        **_apply_obs(config),
    )


def cmd_gateway(args: argparse.Namespace) -> int:
    tcp = build_gateway(
        Path(args.root), credentials=_credentials_from(args), **_front_end_args(args)
    )
    service = tcp.gateway

    def report_cache() -> None:
        stats = service.stats()
        print(f"cache: {stats['cache_hits']} hits, "
              f"{stats['cache_misses']} misses "
              f"({stats['cache_hit_ratio']:.1%} hit ratio)")

    return _serve_until_interrupted(
        tcp,
        "read gateway",
        f"{len(service.ring.node_ids)} replica(s), "
        f"cache {service.cache.capacity_bytes} bytes",
        service,
        on_interrupt=report_cache,
    )


def cmd_tenant_add(args: argparse.Namespace) -> int:
    root = Path(args.root)
    ReproConfig.from_file(root)  # must be a deployment
    registry = _tenant_registry(root, None) or TenantRegistry()
    path = root / TENANTS_FILE_NAME
    secret = (
        Path(args.secret_file).read_bytes().strip()
        if args.secret_file is not None
        else os.environ.get(SECRET_ENV, "").encode("utf-8")
    )
    registry.add(
        TenantRecord(
            tenant_id=args.id,
            secret=secret,
            role=args.role,
            # The quota flags' dests are TenantQuota's field names.
            quota=TenantQuota(
                **{f.name: getattr(args, f.name) for f in dataclasses.fields(TenantQuota)}
            ),
        )
    )
    registry.to_file(path)
    print(f"added tenant {args.id!r} ({args.role}) to {path}; "
          "restart `repro serve` to apply")
    return 0


def cmd_tenant_list(args: argparse.Namespace) -> int:
    registry = _tenant_registry(Path(args.root), None)
    if registry is None:
        print("no tenant registry (open mode)")
        return 0
    for record in registry.records():
        quota = record.quota
        limits = ", ".join(
            f"{limit.name}={getattr(quota, limit.name)}"
            for limit in dataclasses.fields(quota)
            if getattr(quota, limit.name) is not None
        )
        print(f"{record.tenant_id}  role={record.role}"
              f"{'  ' + limits if limits else ''}")
    return 0


def _fetch_obs_snapshot(endpoint: CloudSpec, args: argparse.Namespace) -> dict:
    """Dial a front-end and pull one versioned metrics snapshot."""
    from repro.net.client import RemoteServerProxy

    proxy = RemoteServerProxy(
        endpoint.address, server_id=0, credentials=_credentials_from(args)
    )
    try:
        return proxy.obs_stats()
    finally:
        proxy.close()


def _histogram_stats(series: dict) -> tuple[int, float]:
    return int(series.get("count", 0)), float(series.get("sum", 0.0))


def _series(metrics: dict):
    """``(name{labels}, value)`` for every series of a snapshot's metric
    family (``{name: {labels: value}}``), sorted."""
    for name in sorted(metrics):
        for key, value in sorted(metrics[name].items()):
            yield name + (f"{{{key}}}" if key else ""), value


def _render_obs_table(snapshot: dict) -> list[str]:
    """Human rendering of one obs snapshot (the ``repro stats`` table)."""
    lines = [
        f"component: {snapshot.get('component', '?')} "
        f"(server id {snapshot.get('server_id', '?')}, "
        f"snapshot v{snapshot.get('version', '?')})"
    ]
    for family in ("counters", "gauges"):
        if snapshot.get(family):
            lines.append(f"{family}:")
            for label, value in _series(snapshot[family]):
                lines.append(f"  {label}  {value}")
    if snapshot.get("histograms"):
        lines.append("histograms (count / total s / mean s):")
        for label, series in _series(snapshot["histograms"]):
            count, total = _histogram_stats(series)
            mean = total / count if count else 0.0
            lines.append(f"  {label}  {count} / {total:.4f} / {mean:.6f}")
    spans = snapshot.get("spans", [])
    lines.append(f"spans in ring: {len(spans)}")
    return lines


def cmd_stats(args: argparse.Namespace) -> int:
    if args.endpoint is not None:
        snapshot = _fetch_obs_snapshot(args.endpoint, args)
        if args.as_json:
            print(json.dumps(snapshot, indent=2, sort_keys=True))
        elif args.prom:
            from repro.obs.registry import render_prometheus

            print(render_prometheus(snapshot), end="")
        else:
            for line in _render_obs_table(snapshot):
                print(line)
        return 0
    if args.root is None:
        raise ReproError(
            "pass --root for storage stats, or a tcp://host:port "
            "endpoint for a live server's metrics"
        )
    with _open_system(args) as system:
        print(f"clouds: {system.n} (k = {system.k})")
        # Per-cloud accounting degrades gracefully: stats is a read-only
        # diagnostic, so one unreachable remote cloud must not hide the
        # other clouds' numbers.
        total = 0
        lines = []
        for i, (cloud, server) in enumerate(zip(system.clouds, system.servers)):
            backend = getattr(cloud, "backend", None)
            try:
                server.flush()
                nbytes = cloud.stored_bytes
            except ReproError as exc:
                lines.append(f"  cloud-{i} ({cloud.name}): unreachable ({exc})")
                continue
            total += nbytes
            if backend is None:  # remote cloud: no local container listing
                lines.append(f"  cloud-{i} ({cloud.name}): {nbytes} bytes")
            else:
                lines.append(f"  cloud-{i}: {nbytes} bytes, "
                             f"{len(backend.list_keys('container-'))} containers")
        print(f"bytes stored across clouds: {total}")
        for line in lines:
            print(line)
        return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Refreshing live view of a front-end's hot metrics.

    Each round re-fetches the snapshot and prints gauges plus the
    per-frame-type request rates computed from counter deltas between
    rounds — a minimal ``top`` for one serving process.  ``--iterations``
    bounds the loop (tests drive it non-interactively); the default runs
    until Ctrl-C.
    """
    prev: dict | None = None
    prev_at: float | None = None
    rounds = 0
    try:
        while args.iterations is None or rounds < args.iterations:
            if rounds:
                time.sleep(args.interval)
            snapshot = _fetch_obs_snapshot(args.endpoint, args)
            now = time.monotonic()
            print(f"--- {args.endpoint} "
                  f"({snapshot.get('component', '?')}, round {rounds + 1}) ---")
            for label, value in _series(snapshot.get("gauges", {})):
                print(f"  {label}  {value}")
            frames = snapshot.get("histograms", {}).get("net_dispatch_seconds", {})
            if frames:
                print("  frame rates (req/s, mean ms):")
                old = (
                    prev.get("histograms", {}).get("net_dispatch_seconds", {})
                    if prev is not None
                    else {}
                )
                elapsed = now - prev_at if prev_at is not None else None
                for key, series in sorted(frames.items()):
                    count, total = _histogram_stats(series)
                    old_count, old_total = _histogram_stats(old.get(key, {}))
                    delta = count - old_count
                    rate = (
                        delta / elapsed if elapsed and elapsed > 0 else float(delta)
                    )
                    mean_ms = (total / count * 1000.0) if count else 0.0
                    print(f"    {key or 'all'}  {rate:.1f}/s  {mean_ms:.3f} ms")
            prev, prev_at = snapshot, now
            rounds += 1
    except KeyboardInterrupt:
        pass
    return 0


def cmd_tenant_stats(args: argparse.Namespace) -> int:
    """Per-tenant durable usage rows (quota accounting + rate limiting)."""
    from repro.obs.registry import REGISTRY

    root = Path(args.root)
    ReproConfig.from_file(root)  # must be a deployment
    registry = _tenant_registry(root, None)
    if registry is None:
        print("no tenant registry (open mode)")
        return 0
    with _open_system(args) as system:
        limited = REGISTRY.snapshot()["counters"].get(
            "dispatch_rate_limited_total", {}
        )
        print(f"{'tenant':<20} {'role':<7} {'bytes':>14} "
              f"{'containers':>11} {'rate_limited':>13}")
        for record in registry.records():
            total_bytes = containers = 0
            skipped = 0
            for server in system.servers:
                # Remote proxies expose no tenant-usage frame, and the
                # usage ledger is per-server state: a cloud's rows come
                # from opening its root, which fails while `repro serve`
                # holds it (one process per root) — stop the server first.
                usage_fn = getattr(server, "tenant_usage", None)
                if usage_fn is None:
                    skipped += 1
                    continue
                usage = usage_fn(record.tenant_id)
                total_bytes += usage.bytes_stored
                containers += usage.containers
            hits = limited.get(f"tenant={record.tenant_id}", 0)
            note = f"  ({skipped} remote cloud(s) not counted)" if skipped else ""
            print(f"{record.tenant_id:<20} {record.role:<7} {total_bytes:>14} "
                  f"{containers:>11} {hits:>13}{note}")
        return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.engine import RULE_DOCS, run_analysis

    if args.rules:
        for rule, doc in sorted(RULE_DOCS.items()):
            print(f"{rule}: {doc}")
        return 0
    findings = run_analysis(args.paths or ["src"])
    for finding in findings:
        print(finding.render())
    if findings:
        print(
            f"repro analyze: {len(findings)} finding(s)", file=sys.stderr
        )
        return 1
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    from repro.costs import cost_savings

    tb = 1000**4
    row = cost_savings(args.weekly_tb * tb, args.dedup)
    print(f"weekly {args.weekly_tb} TB, dedup {args.dedup}x, 26-week retention:")
    print(f"  CDStore:      ${row.cdstore.total_usd:>10,.0f}/mo "
          f"(storage ${row.cdstore.storage_usd:,.0f} + "
          f"VMs ${row.cdstore.vm_usd:,.0f}, {row.cdstore.instances[0]})")
    print(f"  AONT-RS:      ${row.aont_rs.total_usd:>10,.0f}/mo")
    print(f"  single cloud: ${row.single_cloud.total_usd:>10,.0f}/mo")
    print(f"  saving vs AONT-RS:      {row.saving_vs_aont_rs:.1%}")
    print(f"  saving vs single cloud: {row.saving_vs_single_cloud:.1%}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CDStore: multi-cloud backup via convergent dispersal",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chunker_help = (
        f"chunker spec: one of {{{', '.join(chunker_names())}}}, optionally "
        "with parameters, e.g. 'gear:avg=8192,min=2048,max=16384'; "
        f"'{DEFAULT_CHUNKER}' is the default for new deployments; 'gear' "
        "(FastCDC-style) ingests several times faster than the paper's "
        "'rabin' with equivalent dedup; clients only deduplicate against "
        "backups made with the same chunker, so an existing root keeps the "
        "one its config file records"
    )
    positive = _flag(positive_int, int)
    remote = _flag(remote_spec)

    p = sub.add_parser("init", help="create a deployment directory")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--salt", default="")
    p.add_argument(
        "--chunker", type=_flag(chunker_spec), default=DEFAULT_CHUNKER,
        help=f"deployment-wide default {chunker_help}",
    )
    p.add_argument(
        "--cloud-spec", type=_flag(cloud_spec), action="append", default=None,
        metavar="SPEC",
        help="where each cloud lives: 'local' (a directory under --root) "
             "or 'tcp://host:port' (a `repro serve` process); repeat once "
             "per cloud, in cloud order — persisted deployment-wide",
    )
    p.add_argument(
        "--gateway", type=remote, default=None, metavar="SPEC",
        help="tcp://host:port of the deployment's read gateway (`repro "
             "gateway` serves it there); clients then restore through it "
             "with automatic direct-quorum fallback",
    )
    p.add_argument(
        "--gateway-cache-bytes", type=positive, default=None,
        dest="gateway_cache_bytes", metavar="BYTES",
        help="gateway hot-container cache bound in bytes of cached share "
             f"payload (default {GatewaySpec.cache_bytes >> 20} MB; requires "
             "--gateway)",
    )
    p.add_argument(
        "--gateway-recipe-ttl", type=_flag(non_negative_seconds, float),
        default=None, dest="gateway_recipe_ttl", metavar="SECONDS",
        help="gateway resolution-cache TTL; 0 revalidates recipes on "
             f"every resolve (default {GatewaySpec.recipe_ttl:g}; requires "
             "--gateway)",
    )
    p.add_argument(
        "--gateway-shard-count", type=positive, default=None,
        dest="gateway_shard_count", metavar="N",
        help="virtual nodes per replica on the gateway's consistent-hash "
             f"ring (default {GatewaySpec.shard_count}; requires --gateway)",
    )
    p.add_argument(
        "--gateway-replica", type=remote, action="append",
        default=None, dest="gateway_replica", metavar="SPEC",
        help="serving replica the gateway fetches from; repeat in cloud "
             "order (defaults to the deployment's remote cloud specs; "
             "requires --gateway)",
    )
    p.set_defaults(func=cmd_init)

    p = sub.add_parser(
        "serve",
        help="serve one cloud of this deployment over TCP",
        description="Host cloud N's CDStore server as a network service: "
                    "clients whose deployments name this address in a "
                    "tcp:// cloud spec talk to it over the binary wire "
                    "protocol. Runs until interrupted.",
    )
    p.add_argument(
        "--cloud", type=_flag(cloud_index, int), required=True,
        help="cloud index to serve (0-based)",
    )
    p.add_argument(
        "--frame-budget", type=positive, default=None, dest="frame_budget",
        help="cap (bytes) on one fetch-shares reply frame and on the "
             "server-side working set of a streamed fetch (default 4 MB)",
    )
    p.add_argument(
        "--async", dest="use_async", action="store_true",
        help="use the multiplexed event-loop front-end: thousands of "
             "connections share one loop and a bounded worker pool "
             "instead of one thread per connection",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "gateway",
        help="serve this deployment's sharded read gateway",
        description="Host the read gateway the deployment's config names "
                    "in its gateway spec: clients resolve a backup once, "
                    "then stream restore windows whose shards the gateway "
                    "fetches from the serving replicas through a "
                    "byte-bounded hot-container cache. Runs until "
                    "interrupted.",
    )
    p.set_defaults(func=cmd_gateway)

    p = sub.add_parser("backup", help="back up a file")
    p.add_argument("path")
    p.add_argument("--name", help="stored name (defaults to the path)")
    p.add_argument(
        "--chunker", type=_flag(chunker_spec), default=None,
        help=f"override the deployment's {chunker_help}",
    )
    p.add_argument(
        "--workers", choices=["thread", "process"], default="thread",
        help="encode-pool flavour: 'process' escapes the GIL and scales "
             "encoding with cores; 'thread' avoids fork/pickling overhead",
    )
    p.set_defaults(func=cmd_backup)

    p = sub.add_parser("restore", help="restore a file")
    p.add_argument("name")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_restore)

    p = sub.add_parser("ls", help="list a user's backups")
    p.set_defaults(func=cmd_ls)

    p = sub.add_parser("delete", help="delete a backup")
    p.add_argument("name")
    p.add_argument("--gc", action="store_true", help="run garbage collection")
    p.set_defaults(func=cmd_delete)

    p = sub.add_parser(
        "stats",
        help="deployment storage statistics, or a live server's metrics",
        description="With --root: storage totals per cloud. With a "
                    "tcp://host:port endpoint: fetch the front-end's "
                    "versioned observability snapshot (per-frame latency "
                    "histograms, queue/cache gauges, span ring) over the "
                    "admin-gated stats frame.",
    )
    p.add_argument(
        "endpoint", nargs="?", type=remote, default=None,
        help="tcp://host:port of a `repro serve`/`repro gateway` "
             "front-end to query for live metrics",
    )
    p.add_argument("--root", default=None)
    p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the raw snapshot as JSON (endpoint mode)",
    )
    p.add_argument(
        "--prom", action="store_true",
        help="emit Prometheus text exposition (endpoint mode)",
    )
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "top",
        help="refreshing live metrics view of a serving front-end",
        description="Poll a front-end's metrics snapshot every --interval "
                    "seconds and print gauges plus per-frame-type request "
                    "rates (counter deltas between rounds). Runs until "
                    "Ctrl-C, or for --iterations rounds.",
    )
    p.add_argument("endpoint", type=remote)
    p.add_argument(
        "--interval", type=_flag(non_negative_seconds, float), default=2.0,
        help="seconds between refreshes (default 2)",
    )
    p.add_argument(
        "--iterations", type=positive, default=None,
        help="stop after this many rounds (default: run until Ctrl-C)",
    )
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "tenant-stats",
        help="per-tenant durable usage and rate-limit accounting",
        description="Render one row per registered tenant: bytes stored "
                    "and containers sealed (the durable quota ledger each "
                    "server keeps) plus rate-limited request counts from "
                    "the metrics registry.",
    )
    p.set_defaults(func=cmd_tenant_stats)

    p = sub.add_parser(
        "tenant",
        help="manage the tenant registry of a deployment",
        description="Maintain tenants.json under --root: the registry "
                    "`repro serve` loads to enforce authenticated, "
                    "quota-limited multi-tenant mode.",
    )
    tenant_sub = p.add_subparsers(dest="tenant_command", required=True)
    tp = tenant_sub.add_parser("add", help="add a tenant to the registry")
    tp.add_argument("--id", required=True, help="tenant id")
    tp.add_argument(
        "--role", choices=["tenant", "admin"], default="tenant",
        help="admin tenants may run maintenance (scrub, GC, repair) and "
             "read cross-tenant aggregates",
    )
    # TenantQuota's own checks: a bad limit is a usage error at the prompt.
    tp.add_argument("--max-bytes", type=positive, default=None,
                    dest="max_bytes", help="storage quota in bytes")
    tp.add_argument("--max-containers", type=positive, default=None,
                    dest="max_containers", help="sealed-container quota")
    tp.add_argument("--max-requests-per-sec", type=_flag(positive_number, float),
                    default=None, dest="max_requests_per_sec",
                    help="request rate limit")
    tp.set_defaults(func=cmd_tenant_add)
    tp = tenant_sub.add_parser("list", help="list registered tenants")
    tp.set_defaults(func=cmd_tenant_list)

    p = sub.add_parser(
        "analyze",
        help="run the invariant checkers over the source tree",
        description="Static analysis purpose-built for this codebase: lock "
                    "discipline (LOCK-001), durability ordering (DUR-00x), "
                    "resource lifecycle (LIFE-001), worker-spec "
                    "picklability (PICKLE-001) and the metric catalogue "
                    "(OBS-001). Prints `path:line: RULE-NNN message` per "
                    "finding and exits 1 if any survive suppression "
                    "(`# analysis: ignore[RULE-NNN] -- why`).",
    )
    p.add_argument(
        "paths", nargs="*",
        help="files or directories to analyse (default: src)",
    )
    p.add_argument(
        "--rules", action="store_true",
        help="list the rule ids and what they check, then exit",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("cost", help="monthly cost comparison (§5.6)")
    p.add_argument("--weekly-tb", type=float, default=16.0)
    p.add_argument("--dedup", type=float, default=10.0)
    p.set_defaults(func=cmd_cost)

    # Flags several subcommands share are declared once each, so their
    # surfaces cannot drift apart.
    commands = {
        **sub.choices,
        **{f"tenant {name}": child for name, child in tenant_sub.choices.items()},
    }

    def shared(names: str, *flags: str, **kwargs) -> None:
        for name in names.split(","):
            commands[name].add_argument(*flags, **kwargs)

    shared("init,serve,gateway,backup,restore,ls,delete,tenant-stats,"
           "tenant add,tenant list", "--root", required=True)
    shared("backup,restore,ls,delete", "--user", required=True)
    shared("serve,gateway", "--port", type=_flag(tcp_port, int), required=True,
           help="TCP port to listen on (1-65535)")
    shared("serve,gateway", "--host", default="127.0.0.1", help="bind address")
    shared(
        "serve,gateway", "--tenants", default=None, metavar="PATH",
        help="tenant registry JSON enabling authenticated multi-tenant "
             f"mode (defaults to {TENANTS_FILE_NAME} under --root when "
             "present; omit both for open mode)",
    )
    shared(
        "serve,gateway", "--executor-size", type=positive, default=None,
        dest="executor_size", metavar="N",
        help="worker threads executing requests behind the async "
             "front-end (default 8; `serve` runs it only with --async)",
    )
    shared(
        "serve,gateway", "--max-connections", type=positive, default=None,
        dest="max_connections", metavar="N",
        help="connection cap for the async front-end; excess connects "
             "are refused with a typed overload error (default 1000; "
             "`serve` runs it only with --async)",
    )
    shared(
        "serve,gateway", "--write-queue-cap", type=positive, default=None,
        dest="write_queue_cap", metavar="BYTES",
        help="per-connection outbound queue cap; clients that stop "
             "reading past this backlog are evicted (default 16 MB; "
             "`serve` runs it only with --async)",
    )
    shared(
        "backup,restore", "--threads", type=positive, default=1,
        help="encode/transfer threads; >1 moves shares to or from all "
             "clouds concurrently (§4.6), as a restore also does at its "
             "default --pipeline-depth",
    )
    shared(
        "backup,restore", "--pipeline-depth", type=positive, default=None,
        dest="pipeline_depth",
        help="pipeline depth: encode slabs (backup) or 4 MB share windows "
             "(restore) in flight between the codec and the wire; a backup "
             "keeps at least --threads slabs in flight; with --threads 1, "
             "1 encodes and uploads (or fetches and decodes) one at a time "
             f"on the calling thread; unset uses {PIPELINE_DEPTH} (one "
             "encoding or decoding while one is on the wire)",
    )
    shared(
        "backup,restore", "--log-json", action="store_true", dest="log_json",
        help="emit the operation summary as one structured JSON line "
             "(tenant and trace ids included) instead of prose",
    )
    # Every command that drives remote clouds accepts tenant credentials.
    drives_clouds = "gateway,backup,restore,ls,delete,stats,top,tenant-stats"
    shared(
        drives_clouds, "--tenant", default=None,
        help="tenant id to authenticate as against multi-tenant "
             "`repro serve` clouds (defaults to --user; the gateway needs "
             "an admin tenant, as owner scoping would refuse a plain "
             "tenant's cross-tenant fetches)",
    )
    shared(
        drives_clouds + ",tenant add", "--secret-file", default=None,
        dest="secret_file", metavar="PATH",
        help="file holding the tenant shared secret (alternatively set "
             f"${SECRET_ENV}); `tenant add` registers it, the other "
             "commands authenticate with it; omit against open-mode servers",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like a
        # well-behaved UNIX tool.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
