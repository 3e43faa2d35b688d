"""Checks of the benchmark itself.  Run explicitly — ``perf/`` is not in
pytest's ``testpaths``, so tier-1 never collects this:

    python -m pytest perf/ -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))

from repro.obs.trace import current_context, use_context  # noqa: E402

import payloads  # noqa: E402
import run as perf_run  # noqa: E402
import spans  # noqa: E402

SPEC = perf_run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_verifier_rejects_a_wrong_buffer():
    data = payloads.payload(1, "x", 4096)
    assert payloads.verify(data, bytes(data))
    flipped = bytearray(data)
    flipped[100] ^= 1
    assert not payloads.verify(data, bytes(flipped))
    assert not payloads.verify(data, data[:-1])
    assert not payloads.verify(data, None)


def test_inputs_are_a_function_of_the_seed():
    assert payloads.payload(7, "a", 1000) == payloads.payload(7, "a", 1000)
    assert payloads.payload(7, "a", 1000) != payloads.payload(8, "a", 1000)
    base = payloads.payload(7, "file", 1 << 20)
    nxt = payloads.mutate(base, 7, "file|v1")
    assert nxt == payloads.mutate(base, 7, "file|v1")
    assert len(nxt) == len(base) + payloads.MUTATION_INSERT_BYTES
    assert nxt != payloads.mutate(base, 8, "file|v1")


def test_small_op_schedule_repeats_and_only_restores_what_exists():
    pool = payloads.payload(3, "pool", 1 << 20)

    def first_ops(seed):
        schedule = payloads.SmallOpSchedule(seed, "u0", pool, scale=0.1)
        ops = []
        for _ in range(60):
            kind, path, data = schedule.next_op()
            if kind == "backup":
                schedule.backed_up(path, len(data))
            else:
                assert any(path in paths for paths in schedule.restorable.values())
            ops.append((kind, path, data))
        return ops

    ops = first_ops(3)
    assert ops == first_ops(3)
    assert ops != first_ops(4)
    assert ops[0][0] == "backup"
    # Every block of 12 holds the same mix: 2 backups and a restore per size.
    assert [kind for kind, _, _ in ops[12:24]].count("restore") == 4


def test_span_self_time_and_cause_links():
    tracer = spans.Tracer()
    seen = {}

    def remote():
        # A thread with no open span takes its cause from the trace context.
        span = tracer.begin("server", "query")
        tracer.end(span)
        seen["remote"] = span

    with tracer.op("backup") as op:
        outer = tracer.begin("net.client", "query")
        with tracer.causing(outer):
            context = current_context()

            def carried():
                with use_context(*context):
                    remote()

            thread = threading.Thread(target=carried)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
        inner = tracer.begin("lsm", "get")
        tracer.end(inner)
        tracer.end(outer)
    assert outer.parent == op.id and inner.parent == outer.id
    assert seen["remote"].parent == outer.id and seen["remote"].op == op.id
    assert outer.child_s == pytest.approx(inner.seconds)
    assert outer.self_s == pytest.approx(outer.seconds - inner.seconds)
    assert {s.id for s in tracer.spans()} == {op.id, outer.id, inner.id, seen["remote"].id}
    kept = spans.in_windows(tracer.spans(), [(outer.start, outer.end)])
    assert op.id not in {s.id for s in kept} and outer.id in {s.id for s in kept}


def test_traced_server_is_built_like_build_cloud_server(tmp_path):
    import deployment
    from repro import cli

    plain_root, traced_root = tmp_path / "plain", tmp_path / "traced"
    for root in (plain_root, traced_root):
        assert cli.main(["init", "--root", str(root), "--n", "4", "--k", "3"]) == 0
    plain = cli.build_cloud_server(plain_root, 0, host="127.0.0.1", port=0, use_async=True)
    traced = deployment._build_traced_server(traced_root, 0, spans.Tracer())
    try:
        assert type(traced) is type(plain)
        for name in ("frame_budget", "max_frame", "executor_size", "max_connections",
                     "write_queue_cap", "source_inflight_cap", "max_backlog",
                     "slow_reader_grace", "tenants", "gateway"):
            assert getattr(traced, name) == getattr(plain, name), name
        for name in ("server_id", "recipe_compression", "durable", "tenants"):
            assert getattr(traced.server, name) == getattr(plain.server, name), name
        assert type(traced.server._inner) is type(plain.server)
        assert type(traced.server.index._inner) is type(plain.server.index)
        assert type(traced.server.cloud.backend._inner) is type(plain.server.cloud.backend)
        assert traced.server.containers.journal is not None
    finally:
        for tcp in (plain, traced):
            tcp.server.close()


def test_benchmark_json_meets_the_static_limits():
    assert perf_run.check_spec(SPEC) == []
    assert SPEC["paths"] == ["perf"]
    assert SPEC["command"] == ["python3", "perf/run.py"]


def _run(*extra: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perf" / "run.py"), *extra],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_exactly_the_declared_metrics(workload, trace):
    done = _run("--workload", workload, "--scale", "0.05", "--seconds", "1",
                "--trace", str(trace), "--seed", "5")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in group}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (HERE / "_work").exists()


def test_exits_nonzero_without_a_result_outside_the_repo(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    done = _run("--workload", WORKLOADS[0], "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
