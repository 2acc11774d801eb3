#!/usr/bin/env python3
"""Run the tracked benchmarks and emit structured BenchReport files.

Drives `bench_env_step` (and, when built, `bench_simulator_perf`) from a
CMake build tree and writes `BENCH_step_throughput.json`, plus
`bench_autotune_sweep` writing `BENCH_autotune_sweep.json`,
`bench_serve_throughput` writing `BENCH_serve_throughput.json` (and a
live `BENCH_serve_snapshots.jsonl` trajectory), `bench_warm_start`
writing `BENCH_warm_start.json` and `bench_net_roundtrip` writing
`BENCH_net_roundtrip.json`, so the per-PR perf trajectory of the
env-step hot path, the autotune sweep engine, the optimization
service, the generalist-policy warm-start payoff and the network
front door's round-trip overhead can be tracked by CI and compared
across revisions with tools/bench_compare.py.

Every report is a versioned BenchReport document (see
docs/OBSERVABILITY.md): schema_version, run metadata (git sha / build /
timestamp), a flat metrics object with units and comparison direction,
and optional simulator/service counter captures. This script validates
the shape of each report after the binary writes it.

Usage:
    tools/run_benchmarks.py [--build-dir build] [--out BENCH_step_throughput.json]
                            [--sweep-out BENCH_autotune_sweep.json]
                            [--serve-out BENCH_serve_throughput.json]
                            [--serve-snapshots BENCH_serve_snapshots.jsonl]
                            [--warm-out BENCH_warm_start.json]
                            [--net-out BENCH_net_roundtrip.json]
                            [--steps N] [--timeout SECONDS]

Exit status: 0 on success (reports written), 1 when a benchmark binary
is missing, fails, or emits an invalid report, 2 on bad arguments.
"""

import argparse
import json
import os
import subprocess
import sys

SCHEMA_VERSION = 1


def resolve_git_sha():
    """Benchmark binaries stamp meta.git_sha from CUASMRL_GIT_SHA (or
    GITHUB_SHA); fill it in from the working tree when absent."""
    if os.environ.get("CUASMRL_GIT_SHA") or os.environ.get("GITHUB_SHA"):
        return
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except (subprocess.SubprocessError, OSError):
        sha = ""
    if sha:
        os.environ["CUASMRL_GIT_SHA"] = sha


def validate_report(report, path):
    """Structural check of one BenchReport document. Returns an error
    string, or None when the report is valid."""
    if not isinstance(report, dict):
        return f"{path}: report is not a JSON object"
    if report.get("schema_version") != SCHEMA_VERSION:
        return (f"{path}: schema_version {report.get('schema_version')!r} "
                f"(expected {SCHEMA_VERSION})")
    if not isinstance(report.get("bench"), str) or not report["bench"]:
        return f"{path}: missing bench name"
    meta = report.get("meta")
    if not isinstance(meta, dict) or "git_sha" not in meta:
        return f"{path}: missing meta.git_sha"
    metrics = report.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        return f"{path}: missing or empty metrics object"
    for name, entry in metrics.items():
        if not isinstance(entry, dict) or \
                not isinstance(entry.get("value"), (int, float)):
            return f"{path}: metric {name!r} has no numeric value"
    return None


def load_report(path):
    """Parses and validates the BenchReport a binary just wrote."""
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read report {path}: {e}", file=sys.stderr)
        return None
    err = validate_report(report, path)
    if err:
        print(f"error: invalid BenchReport: {err}", file=sys.stderr)
        return None
    return report


def run_bench(name, build_dir, out_path, timeout, extra_args=(),
              optional=False):
    """Runs one report-emitting bench binary and returns its validated
    report; "absent" when an optional binary is not built; None on
    failure."""
    exe = os.path.join(build_dir, "bench", name)
    if not os.path.exists(exe):
        if optional:
            print(f"warning: {exe} not found (build the '{name}' target to "
                  "track its throughput); skipping", file=sys.stderr)
            return "absent"
        print(f"error: {exe} not found (build the '{name}' target)",
              file=sys.stderr)
        return None
    cmd = [exe, "--json", out_path, *extra_args]
    print("+ " + " ".join(cmd))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"error: {name} exceeded the {timeout}s guard",
              file=sys.stderr)
        return None
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"error: {name} exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return load_report(out_path)


def run_simulator_perf(build_dir, timeout):
    """Optional: google-benchmark phase microbenchmarks, if built."""
    exe = os.path.join(build_dir, "bench", "bench_simulator_perf")
    if not os.path.exists(exe):
        return None
    cmd = [exe, "--benchmark_format=json", "--benchmark_min_time=0.05"]
    print("+ " + " ".join(cmd))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print("warning: bench_simulator_perf exceeded the guard; "
              "omitting its phases", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("warning: bench_simulator_perf failed; omitting its phases",
              file=sys.stderr)
        return None
    try:
        raw = json.loads(proc.stdout)
    except json.JSONDecodeError:
        print("warning: unparsable bench_simulator_perf output",
              file=sys.stderr)
        return None
    return {
        b["name"]: {"time_ns": b.get("real_time"),
                    "unit": b.get("time_unit")}
        for b in raw.get("benchmarks", [])
    }


def metric(report, name):
    return report["metrics"][name]["value"]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--out", default="BENCH_step_throughput.json")
    parser.add_argument("--sweep-out", default="BENCH_autotune_sweep.json")
    parser.add_argument("--serve-out", default="BENCH_serve_throughput.json")
    parser.add_argument("--serve-snapshots",
                        default="BENCH_serve_snapshots.jsonl",
                        help="live ServiceStats JSONL from the parallel "
                        "phase ('' disables)")
    parser.add_argument("--warm-out", default="BENCH_warm_start.json")
    parser.add_argument("--net-out", default="BENCH_net_roundtrip.json")
    parser.add_argument("--steps", type=int, default=0,
                        help="step budget per kernel (0 = bench default)")
    parser.add_argument("--timeout", type=int, default=1200,
                        help="per-binary wall-clock guard in seconds")
    args = parser.parse_args()

    resolve_git_sha()

    step_args = ["--steps", str(args.steps)] if args.steps else []
    report = run_bench("bench_env_step", args.build_dir, args.out,
                       args.timeout, step_args)
    if report in (None, "absent"):
        return 1

    # Phase microbenchmarks ride along inside the env-step report's
    # free-form extra object (consumers must tolerate extra content).
    phases = run_simulator_perf(args.build_dir, args.timeout)
    if phases is not None:
        report.setdefault("extra", {})["simulator_phase_benchmarks"] = phases
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")

    # Step-throughput summary first: it is already on disk and must not
    # be suppressed by a sweep-bench problem.
    for name, entry in report["metrics"].items():
        if name.endswith(".steps_per_sec"):
            kernel = name[:-len(".steps_per_sec")]
            print(f"{kernel}: {entry['value']:.1f} steps/s")
    print(f"wrote {args.out}")

    sweep = run_bench("bench_autotune_sweep", args.build_dir,
                      args.sweep_out, args.timeout, optional=True)
    if sweep is None:
        return 1
    if sweep != "absent":
        print(f"autotune sweep: {metric(sweep, 'speedup'):.2f}x "
              f"(identical={sweep['extra']['identical_results']})")
        print(f"wrote {args.sweep_out}")

    serve_args = []
    if args.serve_snapshots:
        serve_args = ["--snapshot-log", args.serve_snapshots]
    serve = run_bench("bench_serve_throughput", args.build_dir,
                      args.serve_out, args.timeout, serve_args,
                      optional=True)
    if serve is None:
        return 1
    if serve != "absent":
        print(f"serve throughput: {metric(serve, 'speedup'):.2f}x on "
              f"{serve['extra']['requests']} requests "
              f"(identical={serve['extra']['identical_results']})")
        print(f"wrote {args.serve_out}")
        if args.serve_snapshots and os.path.exists(args.serve_snapshots):
            with open(args.serve_snapshots) as f:
                lines = sum(1 for _ in f)
            print(f"wrote {args.serve_snapshots} ({lines} snapshots)")

    warm = run_bench("bench_warm_start", args.build_dir, args.warm_out,
                     args.timeout, step_args, optional=True)
    if warm is None:
        return 1
    if warm != "absent":
        print(f"warm start: winner in "
              f"{metric(warm, 'warm_updates_to_winner'):.0f} vs "
              f"{metric(warm, 'cold_updates_to_winner'):.0f} updates "
              f"({metric(warm, 'warm_start_tensors'):.0f} tensors "
              f"transferred)")
        print(f"wrote {args.warm_out}")

    net = run_bench("bench_net_roundtrip", args.build_dir, args.net_out,
                    args.timeout, optional=True)
    if net is None:
        return 1
    if net != "absent":
        print(f"net roundtrip: "
              f"{metric(net, 'net_sequential_us_per_request'):.1f} us/req "
              f"sequential vs {metric(net, 'inproc_us_per_request'):.1f} "
              f"in-process over {net['extra']['requests']} requests "
              f"(identical={net['extra']['identical_results']})")
        print(f"wrote {args.net_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
