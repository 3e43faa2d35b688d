"""Command-line interface: a persistent deployment across invocations."""

import json
import os
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.cli import main
from repro.client.comm import PIPELINE_DEPTH


@pytest.fixture
def deployment(tmp_path):
    root = tmp_path / "store"
    assert main(["init", "--root", str(root), "--n", "4", "--k", "3", "--salt", "org"]) == 0
    return root


def write_file(tmp_path, name: str, size: int = 30_000) -> str:
    path = tmp_path / name
    path.write_bytes(os.urandom(size))
    return str(path)


class TestInit:
    def test_creates_layout(self, tmp_path):
        root = tmp_path / "s"
        assert main(["init", "--root", str(root)]) == 0
        assert (root / "cdstore.json").exists()
        assert (root / "cloud-0").is_dir()

    def test_double_init_fails(self, deployment):
        assert main(["init", "--root", str(deployment)]) == 1

    def test_missing_deployment_errors(self, tmp_path, capsys):
        assert main(["stats", "--root", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err


class TestBackupRestore:
    def test_roundtrip_across_invocations(self, deployment, tmp_path):
        src = write_file(tmp_path, "data.bin")
        assert main(["backup", "--root", str(deployment), "--user", "alice", src]) == 0
        out = tmp_path / "restored.bin"
        assert main([
            "restore", "--root", str(deployment), "--user", "alice", src,
            "-o", str(out),
        ]) == 0
        assert out.read_bytes() == open(src, "rb").read()

    def test_custom_name(self, deployment, tmp_path):
        src = write_file(tmp_path, "x.bin", 5_000)
        assert main([
            "backup", "--root", str(deployment), "--user", "alice", src,
            "--name", "/backups/monday.tar",
        ]) == 0
        out = tmp_path / "y.bin"
        assert main([
            "restore", "--root", str(deployment), "--user", "alice",
            "/backups/monday.tar", "-o", str(out),
        ]) == 0
        assert out.read_bytes() == open(src, "rb").read()

    def test_dedup_persists_across_invocations(self, deployment, tmp_path, capsys):
        src = write_file(tmp_path, "dup.bin")
        main(["backup", "--root", str(deployment), "--user", "alice", src,
              "--name", "/v1"])
        capsys.readouterr()
        main(["backup", "--root", str(deployment), "--user", "alice", src,
              "--name", "/v2"])
        out = capsys.readouterr().out
        assert "0 share bytes transferred" in out
        assert "100.0%" in out


class TestLsDeleteStats:
    def test_ls_lists_secret_shared_names(self, deployment, tmp_path, capsys):
        src = write_file(tmp_path, "a.bin", 4_000)
        main(["backup", "--root", str(deployment), "--user", "alice", src,
              "--name", "/backups/a.tar"])
        capsys.readouterr()
        assert main(["ls", "--root", str(deployment), "--user", "alice"]) == 0
        assert "/backups/a.tar" in capsys.readouterr().out

    def test_ls_is_per_user(self, deployment, tmp_path, capsys):
        src = write_file(tmp_path, "a.bin", 4_000)
        main(["backup", "--root", str(deployment), "--user", "alice", src,
              "--name", "/private"])
        capsys.readouterr()
        main(["ls", "--root", str(deployment), "--user", "bob"])
        assert "/private" not in capsys.readouterr().out

    def test_delete_with_gc(self, deployment, tmp_path, capsys):
        src = write_file(tmp_path, "d.bin", 20_000)
        main(["backup", "--root", str(deployment), "--user", "alice", src,
              "--name", "/doomed"])
        capsys.readouterr()
        assert main([
            "delete", "--root", str(deployment), "--user", "alice", "/doomed",
            "--gc",
        ]) == 0
        out = capsys.readouterr().out
        assert "GC reclaimed" in out
        # Restore must now fail.
        assert main([
            "restore", "--root", str(deployment), "--user", "alice", "/doomed",
            "-o", str(tmp_path / "no.bin"),
        ]) == 1

    def test_stats(self, deployment, tmp_path, capsys):
        src = write_file(tmp_path, "s.bin", 10_000)
        main(["backup", "--root", str(deployment), "--user", "alice", src])
        capsys.readouterr()
        assert main(["stats", "--root", str(deployment)]) == 0
        out = capsys.readouterr().out
        assert "clouds: 4 (k = 3)" in out
        assert "cloud-0" in out


class TestCost:
    def test_cost_summary(self, capsys):
        assert main(["cost", "--weekly-tb", "16", "--dedup", "10"]) == 0
        out = capsys.readouterr().out
        assert "CDStore" in out
        assert "saving vs AONT-RS" in out


class TestChunkerFlag:
    def test_gear_backup_restore_roundtrip(self, deployment, tmp_path):
        src = write_file(tmp_path, "g.bin")
        assert main([
            "backup", "--root", str(deployment), "--user", "alice", src,
            "--chunker", "gear",
        ]) == 0
        out = tmp_path / "g-restored.bin"
        assert main([
            "restore", "--root", str(deployment), "--user", "alice", src,
            "-o", str(out),
        ]) == 0
        assert out.read_bytes() == open(src, "rb").read()

    def test_parameterised_spec_accepted(self, deployment, tmp_path):
        src = write_file(tmp_path, "p.bin", 60_000)
        assert main([
            "backup", "--root", str(deployment), "--user", "alice", src,
            "--chunker", "gear:avg=4096,min=1024,max=8192",
        ]) == 0

    def test_init_persists_deployment_chunker(self, tmp_path, capsys):
        root = tmp_path / "gearstore"
        assert main([
            "init", "--root", str(root), "--chunker", "gear", "--salt", "org",
        ]) == 0
        assert "chunker=gear" in capsys.readouterr().out
        src = write_file(tmp_path, "d.bin")
        # Backups inherit the deployment default (no --chunker needed) and
        # deduplicate against each other, proving both used gear.
        main(["backup", "--root", str(root), "--user", "alice", src,
              "--name", "/v1"])
        capsys.readouterr()
        main(["backup", "--root", str(root), "--user", "alice", src,
              "--name", "/v2"])
        assert "100.0%" in capsys.readouterr().out


class TestArgumentValidation:
    """Bad flags must die as argparse usage errors (exit code 2), not as
    ValueErrors surfacing from deep inside a half-done backup."""

    def _backup_args(self, deployment, tmp_path, *extra):
        src = write_file(tmp_path, "v.bin", 5_000)
        return ["backup", "--root", str(deployment), "--user", "alice", src,
                *extra]

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_bad_pipeline_depth_rejected(self, deployment, tmp_path, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self._backup_args(deployment, tmp_path, "--pipeline-depth", value))
        assert excinfo.value.code == 2
        assert "--pipeline-depth" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_bad_threads_rejected(self, deployment, tmp_path, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self._backup_args(deployment, tmp_path, "--threads", value))
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "spec",
        [
            "bogus",                    # unknown chunker
            "gear:windowsill=48",       # unknown parameter
            "gear:avg=notanum",         # non-integer value
            "gear:avg=1000",            # not a power of two
            "gear:avg=256,min=512,max=128",  # inverted bounds
        ],
    )
    def test_malformed_chunker_spec_rejected(self, deployment, tmp_path, spec, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self._backup_args(deployment, tmp_path, "--chunker", spec))
        assert excinfo.value.code == 2
        assert "--chunker" in capsys.readouterr().err

    def test_restore_validates_too(self, deployment, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "restore", "--root", str(deployment), "--user", "alice", "/x",
                "-o", str(tmp_path / "o.bin"), "--pipeline-depth", "0",
            ])
        assert excinfo.value.code == 2


class TestNetworkModeValidation:
    """`repro serve` and tcp:// cloud specs die as argparse usage errors
    (exit code 2) on malformed arguments, matching the --chunker style."""

    @pytest.mark.parametrize("port", ["0", "-1", "65536", "http", "9300.5"])
    def test_serve_bad_port_rejected(self, deployment, port, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--root", str(deployment), "--cloud", "0",
                  "--port", port])
        assert excinfo.value.code == 2
        assert "--port" in capsys.readouterr().err

    @pytest.mark.parametrize("cloud", ["-1", "one", "1.5"])
    def test_serve_bad_cloud_rejected(self, deployment, cloud, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--root", str(deployment), "--cloud", cloud,
                  "--port", "9300"])
        assert excinfo.value.code == 2
        assert "--cloud" in capsys.readouterr().err

    def test_serve_cloud_outside_deployment_errors(self, deployment, capsys):
        assert main(["serve", "--root", str(deployment), "--cloud", "7",
                     "--port", "9300"]) == 1
        assert "outside this deployment" in capsys.readouterr().err

    def test_serve_bad_frame_budget_rejected(self, deployment, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--root", str(deployment), "--cloud", "0",
                  "--port", "9300", "--frame-budget", "0"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("spec", [
        "tcp://", "tcp://host", "tcp://host:", "tcp://host:abc",
        "tcp://host:0", "tcp://host:70000", "udp://host:1", "nonsense",
    ])
    def test_init_malformed_cloud_spec_rejected(self, tmp_path, spec, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["init", "--root", str(tmp_path / "s"),
                  "--cloud-spec", spec])
        assert excinfo.value.code == 2
        assert "--cloud-spec" in capsys.readouterr().err

    def test_init_cloud_spec_count_must_match_n(self, tmp_path, capsys):
        assert main(["init", "--root", str(tmp_path / "s"), "--n", "4",
                     "--cloud-spec", "tcp://h:1", "--cloud-spec", "local"]) == 1
        assert "--cloud-spec" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--gateway-cache-bytes", "268435456"),  # GatewaySpec's own default
        ("--gateway-recipe-ttl", "30"),
        ("--gateway-shard-count", "64"),
        ("--gateway-replica", "tcp://127.0.0.1:9412"),
    ])
    def test_init_gateway_option_without_gateway_rejected(
        self, tmp_path, flag, value, capsys
    ):
        root = tmp_path / "s"
        assert main(["init", "--root", str(root), flag, value]) == 1
        assert "--gateway" in capsys.readouterr().err
        assert not root.exists()

    def test_init_gateway_defaults_come_from_the_spec(self, tmp_path):
        from repro.config import GatewaySpec

        root = tmp_path / "s"
        assert main(["init", "--root", str(root),
                     "--gateway", "tcp://127.0.0.1:9411",
                     "--gateway-shard-count", "8"]) == 0
        persisted = json.loads((root / "cdstore.json").read_text())["gateway"]
        want = GatewaySpec(endpoint="tcp://127.0.0.1:9411", shard_count=8)
        assert persisted == want.to_mapping()

    def test_init_persists_cloud_specs(self, tmp_path):
        root = tmp_path / "s"
        assert main(["init", "--root", str(root), "--n", "2", "--k", "1",
                     "--cloud-spec", "local",
                     "--cloud-spec", "tcp://127.0.0.1:9411"]) == 0
        config = json.loads((root / "cdstore.json").read_text())
        assert config["cloud_specs"] == ["local", "tcp://127.0.0.1:9411"]
        # Only local clouds get a backing directory.
        assert (root / "cloud-0").is_dir()
        assert not (root / "cloud-1").exists()


@contextmanager
def served_deployment(tmp_path):
    """Four `repro serve` clouds and a client root whose specs name them."""
    from repro.cli import build_cloud_server

    server_root = tmp_path / "srv"
    assert main(["init", "--root", str(server_root), "--n", "4",
                 "--k", "3", "--salt", "org"]) == 0
    tcps = [build_cloud_server(server_root, i).start() for i in range(4)]
    try:
        init_args = ["init", "--root", str(tmp_path / "cli"), "--n", "4",
                     "--k", "3", "--salt", "org"]
        for tcp in tcps:
            host, port = tcp.address
            init_args += ["--cloud-spec", f"tcp://{host}:{port}"]
        assert main(init_args) == 0
        yield tmp_path / "cli"
    finally:
        for tcp in tcps:
            tcp.shutdown()
            tcp.server.close()


class TestNetworkModeEndToEnd:
    def test_backup_restore_through_served_clouds(self, tmp_path, capsys):
        """A deployment whose clouds all live behind `repro serve`
        processes backs up and restores through real loopback sockets."""
        with served_deployment(tmp_path) as root:
            src = write_file(tmp_path, "data.bin", 40_000)
            assert main(["backup", "--root", str(root),
                         "--user", "alice", src, "--name", "/f"]) == 0
            out = capsys.readouterr().out
            assert f"pipeline depth {PIPELINE_DEPTH})" in out
            dest = tmp_path / "out.bin"
            assert main(["restore", "--root", str(root),
                         "--user", "alice", "/f", "-o", str(dest)]) == 0
            assert dest.read_bytes() == Path(src).read_bytes()
            assert main(["stats", "--root", str(root)]) == 0
            assert "tcp://" in capsys.readouterr().out

    def test_root_whose_config_says_mux_false_still_works(self, tmp_path):
        """`"mux": false` used to pin proxies to the retired serial
        protocol; such a cdstore.json must keep loading and serving."""
        with served_deployment(tmp_path) as root:
            config_path = root / "cdstore.json"
            raw = json.loads(config_path.read_text())
            config_path.write_text(json.dumps({**raw, "mux": False}))

            src = write_file(tmp_path, "data.bin", 40_000)
            assert main(["backup", "--root", str(root),
                         "--user", "alice", src, "--name", "/f"]) == 0
            dest = tmp_path / "out.bin"
            assert main(["restore", "--root", str(root),
                         "--user", "alice", "/f", "-o", str(dest)]) == 0
            assert dest.read_bytes() == Path(src).read_bytes()

    def test_stats_degrades_when_remote_cloud_unreachable(self, tmp_path, capsys):
        """Stats is a diagnostic: a dead remote cloud is reported, not
        fatal, and the reachable clouds still show their numbers."""
        root = tmp_path / "s"
        assert main(["init", "--root", str(root), "--n", "2", "--k", "1",
                     "--cloud-spec", "local",
                     "--cloud-spec", "tcp://127.0.0.1:9"]) == 0
        assert main(["stats", "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "unreachable" in out
        assert "cloud-0" in out

    def test_serve_remote_slot_rejected(self, tmp_path, capsys):
        """Serving a slot whose persisted spec is tcp:// is a config
        error, not a healthy server over an empty directory."""
        root = tmp_path / "s"
        assert main(["init", "--root", str(root), "--n", "2", "--k", "1",
                     "--cloud-spec", "local",
                     "--cloud-spec", "tcp://127.0.0.1:9"]) == 0
        assert main(["serve", "--root", str(root), "--cloud", "1",
                     "--port", "9300"]) == 1
        assert "remote" in capsys.readouterr().err


class TestObsStatsSurface:
    """`repro stats <endpoint>` / `repro top` / `repro tenant-stats`:
    the live observability surface added alongside the metrics registry."""

    @pytest.fixture
    def served_cloud(self, tmp_path):
        from repro.cli import build_cloud_server

        root = tmp_path / "srv"
        assert main(["init", "--root", str(root), "--n", "4", "--k", "3",
                     "--salt", "org"]) == 0
        tcp = build_cloud_server(root, 0).start()
        host, port = tcp.address
        yield f"tcp://{host}:{port}"
        tcp.shutdown()
        tcp.server.close()

    def test_stats_endpoint_renders_snapshot_table(self, served_cloud, capsys):
        assert main(["stats", served_cloud]) == 0
        out = capsys.readouterr().out
        assert "component: server" in out
        assert "spans in ring:" in out

    def test_stats_endpoint_json_is_versioned(self, served_cloud, capsys):
        assert main(["stats", served_cloud, "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["version"] == 1
        assert snapshot["component"] == "server"
        # The connection's own handshake PING is already on the books.
        assert "net_dispatch_seconds" in snapshot["histograms"]

    def test_stats_endpoint_prometheus_exposition(self, served_cloud, capsys):
        assert main(["stats", served_cloud, "--prom"]) == 0
        out = capsys.readouterr().out
        assert 'net_dispatch_seconds_bucket{frame="PING",le="+Inf"}' in out
        assert "net_dispatch_seconds_sum" in out

    def test_top_bounded_rounds(self, served_cloud, capsys):
        assert main(["top", served_cloud, "--interval", "0.05",
                     "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "round 1" in out and "round 2" in out
        assert "frame rates" in out

    def test_stats_requires_root_or_endpoint(self, capsys):
        assert main(["stats"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_tenant_stats_open_mode(self, deployment, capsys):
        assert main(["tenant-stats", "--root", str(deployment)]) == 0
        assert "no tenant registry" in capsys.readouterr().out

    def test_tenant_stats_lists_registered_tenants(self, deployment, tmp_path,
                                                   capsys):
        secret = tmp_path / "alice.key"
        secret.write_bytes(b"s3cret")
        assert main(["tenant", "add", "--root", str(deployment),
                     "--id", "alice", "--secret-file", str(secret),
                     "--max-bytes", "1000000"]) == 0
        capsys.readouterr()
        assert main(["tenant-stats", "--root", str(deployment)]) == 0
        out = capsys.readouterr().out
        assert "rate_limited" in out
        assert "alice" in out
