#!/usr/bin/env python3
"""End-to-end benchmark of the served CDStore deployment (see README.md).

    python3 perf/run.py [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                        [--out DIR] [--scale F] [--runs N] [--check]

Each workload runs in a child process of its own; this process only
launches children, checks what they report against ``BENCHMARK.json`` and
prints it.  The last line on standard output is the result object.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SPEC_PATH = REPO / "BENCHMARK.json"
WORK = HERE / "_work"

#: A child that has not finished by then is killed: the slowest traced run
#: takes about a minute, and a run may take 180 s at most.
CHILD_TIMEOUT_S = 170
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


# ---------------------------------------------------------------------------
# child: run one workload, print one JSON object
# ---------------------------------------------------------------------------

def _percentile(values: list[float], share: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def typical_latency(ops) -> float:
    """Count-weighted mean of the median latency of each class of op, a
    class being an op type and a file size (to 64 KiB).  The plain median of
    a mix of classes sits between two of them and jumps with the mix."""
    classes: dict[tuple[str, int], list[float]] = {}
    for op in ops:
        classes.setdefault((op.kind, op.nbytes >> 16), []).append(op.seconds)
    return sum(
        len(seconds) * statistics.median(seconds) for seconds in classes.values()
    ) / len(ops)


def end_to_end_metrics(phase, startup_s: float) -> dict[str, float]:
    ops = [op for op in phase.timed_ops if op.ok]
    moved = sum(op.nbytes for op in ops)
    return {
        "throughput_mbps": phase.moved_mb / phase.timed_s,
        "ops_per_s": len(ops) / phase.timed_s,
        "op_p50_ms": typical_latency(ops) * 1e3,
        "cpu_s_per_mb": phase.cpu_s / phase.moved_mb,
        "wire_bytes_per_logical_byte": sum(op.wire_bytes for op in ops) / moved,
        "stored_bytes_per_logical_byte": phase.stored_growth / phase.stored_logical,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "setup_s": phase.setup_s(startup_s),
    }


def per_layer_metrics(workload: str, reference, traced, threaded) -> dict[str, float]:
    import spans  # needs repro; only the child has src/ on its path

    mb = traced.moved_mb
    rows = spans.totals(spans.in_windows(traced.tracer.spans(), traced.windows))

    def total(field: str, layer: str, *names: str) -> float:
        return sum(
            row[field] for (row_layer, name), row in rows.items()
            if row_layer == layer and (not names or name in names)
        ) / mb

    out = {
        "chunking.busy_s": total("seconds", "chunking"),
        "chunking.bytes": total("bytes", "chunking"),
        "chunking.chunks": total("count", "chunking"),
        "core.encode_s": total("seconds", "core", "encode"),
        "core.encode_secrets": total("count", "core", "encode"),
        "core.decode_s": total("seconds", "core", "decode"),
        "core.decode_secrets": total("count", "core", "decode"),
    }
    calls = ("query", "upload", "finalize", "flush", "resolve", "fetch")
    for name in calls:
        # The wait for a pipelined upload's ack is upload time as well.
        names = ("upload", "upload_ack") if name == "upload" else (name,)
        out[f"net.client.{name}_s"] = total("seconds", "net.client", *names)
        out[f"server.{name}_s"] = total("seconds", "server", name)
    registry = {key: value / mb for key, value in traced.registry.items()}
    # Request/response calls only: a pipelined upload overlaps the client's
    # next work, so client time minus server time means nothing for it.
    blocking = tuple(name for name in calls if name != "upload")
    out.update({
        "net.client.calls": total("count", "net.client"),
        "server.calls": total("count", "server"),
        "server.boot_s": traced.boot_s,
        # The journal fsync has no delegate of its own; the registry times it.
        "server.self_s": total("self_s", "server") - registry["journal_fsync_s"],
        "net.transport_s": (total("seconds", "net.client", *blocking)
                            - total("seconds", "server", *blocking)),
        "net.frames": registry["frames"],
        "net.upload_wire_bytes": total("bytes", "net.client", "upload"),
        "net.thread_frontend_ops_per_s": (
            sum(op.ok for op in threaded.timed_ops) / threaded.timed_s),
        "lsm.get_s": total("seconds", "lsm", "get"),
        "lsm.gets": total("count", "lsm", "get"),
        "lsm.put_s": total("seconds", "lsm", "put"),
        "lsm.puts": total("count", "lsm", "put"),
        "lsm.wal_sync_s": registry["index_sync_s"],
        "lsm.wal_syncs": registry["index_sync_count"],
        "lsm.flushes": registry["lsm_flushes"],
        "lsm.compactions": registry["lsm_compactions"],
        "lsm.disk_bytes_per_logical_byte": traced.index_growth / traced.stored_logical,
        "storage.put_s": total("seconds", "storage", "put"),
        "storage.put_objects": total("count", "storage", "put"),
        "storage.put_bytes": total("bytes", "storage", "put"),
        "storage.get_s": total("seconds", "storage", "get"),
        "storage.get_calls": total("count", "storage", "get"),
        "storage.get_bytes": total("bytes", "storage", "get"),
        "storage.journal_fsync_s": registry["journal_fsync_s"],
        "storage.journal_fsyncs": registry["journal_fsync_count"],
        "storage.cache_hit_ratio": traced.cache_hits / max(1, traced.cache_lookups),
        "client.self_s": total("self_s", "client"),
        "client.op_wall_s": total("seconds", "client"),
        "trace.overhead_ratio": ((reference.moved_mb / reference.timed_s)
                                 / (traced.moved_mb / traced.timed_s)),
    })
    out.update({f"compress.{key}": value / mb for key, value in traced.compress.items()})
    # CPU ledger: each layer's own CPU seconds (children excluded), which add
    # up to the process's; what no delegate sees (event loops, dispatcher,
    # framing, socket readers) is the remainder.
    layers = ("chunking", "core", "net.client", "client", "server", "lsm", "storage")
    for layer in layers:
        out[f"cpu.{layer}_s"] = total("self_cpu_s", layer)
    out["cpu.untraced_s"] = traced.cpu_s / mb - sum(out[f"cpu.{layer}_s"] for layer in layers)
    # The first restore of each file in the run: round 0 after the reboot on
    # `restore` (cold caches); elsewhere the verification pass, which reads
    # containers the write just cached.
    if workload == "restore":
        first = [op for op in traced.timed_ops if op.unit == 0]
    else:
        first = [op for op in traced.ops if op.kind == "restore" and not op.timed]
    out["storage.first_pass_restore_mbps"] = (
        sum(op.nbytes for op in first) / 1e6 / sum(op.seconds for op in first))
    # Latency by op type comes from the untraced reference phase, over every
    # op of the type it ran (timed, precondition or verification).
    for kind in ("backup", "restore"):
        seconds = [op.seconds for op in reference.ops if op.kind == kind and op.ok]
        out[f"client.{kind}_op_p50_ms"] = _percentile(seconds, 0.5) * 1e3
        out[f"client.{kind}_op_p90_ms"] = _percentile(seconds, 0.9) * 1e3
    return out


def run_child(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(REPO / "src"))
    import spans
    import workloads

    startup_s = time.perf_counter() - _STARTED
    workdir = Path(args.child)
    runner = workloads.RUNNERS[args.workload]
    if args.trace:
        reference = workloads.Phase(workdir / "reference")
        runner(reference, args.seed, args.seconds, args.scale)
        measured = workloads.Phase(workdir / "traced", tracer=spans.Tracer())
        runner(measured, args.seed, args.seconds, args.scale)
        threaded = workloads.Phase(workdir / "threaded", use_async=False)
        runner(threaded, args.seed, args.seconds, args.scale)
        phases = [reference, measured, threaded]
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            measured.tracer.write(out / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        measured = workloads.Phase(workdir / "main")
        runner(measured, args.seed, args.seconds, args.scale)
        phases = [measured]
    ops = [op for phase in phases for op in phase.ops]
    failed = sum(not op.ok for op in ops)
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {}, "timed_ops": len(measured.timed_ops)}
    if failed == 0:
        result["metrics"] = (
            per_layer_metrics(args.workload, *phases) if args.trace
            else end_to_end_metrics(measured, startup_s))
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# parent: launch children, check and print what they report
# ---------------------------------------------------------------------------

def declared(spec: dict, trace: int) -> dict[str, str]:
    """Metric name -> unit for the run kind, as BENCHMARK.json declares."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def launch(args: argparse.Namespace, spec: dict, workload: str, seed: int) -> dict:
    """Run one workload in a fresh child; returns its checked result."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    command = [
        sys.executable, str(HERE / "run.py"), "--child", str(workdir),
        "--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", str(args.scale),
    ]
    if args.out:
        command += ["--out", str(Path(args.out).resolve())]
    try:
        child = subprocess.run(command, capture_output=True, text=True, cwd=REPO,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload} (seed {seed}): no result after "
                         f"{CHILD_TIMEOUT_S} s, child killed") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()
    lines = child.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    units = declared(spec, args.trace)
    problem = None
    if result is None:
        problem = f"child exited with code {child.returncode} without a result"
    elif child.returncode != 0 or not result["correct"]:
        problem = f"{result['failed']} of {result['attempted']} operations failed"
    elif set(result["metrics"]) != set(units):
        problem = ("metrics differ from BENCHMARK.json: missing "
                   f"{sorted(set(units) - set(result['metrics']))}, undeclared "
                   f"{sorted(set(result['metrics']) - set(units))}")
    if problem:
        sys.stderr.write(child.stderr)
        if result is not None:
            print(json.dumps({key: result[key] for key in RESULT_KEYS}))
        raise SystemExit(f"{workload} (seed {seed}): {problem}")
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }
    return result


def report(workload: str, seed: int, result: dict) -> None:
    print(f"== {workload}  seed {seed}  {result['attempted']} ops attempted "
          f"({result['timed_ops']} timed), {result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({key: result[key] for key in RESULT_KEYS}))


def report_runs(workload: str, spec: dict, trace: int, results: list[dict]) -> None:
    """Every run's value of each metric, then its median, quartiles and the
    quartile distance as a share of the median (the repeatability test)."""
    group = spec["per_layer" if trace else "end_to_end"]
    print(f"== {workload}  {len(results)} runs")
    print(f"  {'metric':34s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s} {'bound':>6s}")
    for metric in group:
        name = metric["name"]
        values = [result["metrics"][name]["value"] for result in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = metric.get("bound")
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  spread above a third of the bound"
        print(f"  {name:34s} {median:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.2%} "
              f"{'' if bound is None else format(bound, '6.2f')}  {metric['unit']}{flag}")
        print(f"  {'':34s} runs: {' '.join(format(value, '.5g') for value in values)}")


def check_spec(spec: dict) -> list[str]:
    """Violations of the benchmark contract's static limits."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"keys are {sorted(spec)}, want {sorted(keys)}")
    for group, most in (("workloads", 8), ("end_to_end", 16), ("per_layer", 128)):
        if not 1 <= len(spec[group]) <= most:
            problems.append(f"{group} has {len(spec[group])} entries, at most {most}")
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in spec[group]]
    problems += [f"bad name {name!r}" for name in names if not NAME.match(name)]
    problems += [f"name {name!r} used twice" for name in set(names) if names.count(name) > 1]
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            if not UNIT.match(metric["unit"]):
                problems.append(f"bad unit {metric['unit']!r} on {metric['name']}")
            if metric["better"] not in ("lower", "higher"):
                problems.append(f"bad direction on {metric['name']}")
    for metric in spec["end_to_end"]:
        if not 0 <= metric["bound"] <= 0.25:
            problems.append(f"bound of {metric['name']} outside 0..0.25")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"]):
        problems.append("no setup_s metric in s, lower is better")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds outside 1..60")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per run (default: run_seconds of "
                             "BENCHMARK.json); 0 runs exactly one unit")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: run with the timing delegates and print the "
                             "per-layer metrics instead of the end-to-end ones")
    parser.add_argument("--out", help="directory for the traced run's span file (JSON lines)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every file size (smoke tests)")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat with seeds SEED, SEED+1, ... and print "
                             "median, quartiles and spread of every metric")
    parser.add_argument("--check", action="store_true",
                        help="validate BENCHMARK.json and that each workload "
                             "prints exactly the metrics it declares")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (REPO / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"error: {REPO} holds no src/repro to benchmark", file=sys.stderr)
        return 2
    if args.child:
        return run_child(args)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    selected = [args.workload] if args.workload else names
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    if args.check:
        problems = check_spec(spec)
        for problem in problems:
            print(f"BENCHMARK.json: {problem}", file=sys.stderr)
        if problems:
            return 1
        args.seconds, args.scale = 0.0, min(args.scale, 0.05)
        for workload in names:
            for args.trace in (0, 1):
                launch(args, spec, workload, args.seed)
        print(f"BENCHMARK.json agrees with the output of all {len(names)} workloads")
        return 0

    for workload in selected:
        results = [launch(args, spec, workload, args.seed + i) for i in range(args.runs)]
        if args.runs > 1:
            report_runs(workload, spec, args.trace, results)
        else:
            report(workload, args.seed, results[0])
    return 0


if __name__ == "__main__":
    sys.exit(main())
