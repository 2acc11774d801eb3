#!/usr/bin/env python3
"""End-to-end benchmark of the CuAsmRL serving stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the library from ../src and the benchmark driver (perfbench/) with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the repository root), then runs one workload. The driver's
last stdout line is the result object {correct, attempted, failed,
metrics}; a schema-v1 BenchReport and, for traced runs, the spans are
written under the build directory. Build output goes to stderr.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("cold_paper_shapes", "cold_rl_bound", "warm_lookup",
             "mixed_serve")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=600)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "cuasmrl_perfbench"],
                   stdout=sys.stderr, check=True, timeout=1500)
    return os.path.join(build_dir, "cuasmrl_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.SubprocessError, OSError) as err:
        fail(f"build failed: {err}")
    if args.self_test:
        return subprocess.run([binary, "--self-test"], timeout=60).returncode

    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--tmp-root", os.path.join(build_dir, "tmp"),
               "--report", os.path.join(out_dir, stem + ".report.json")]
    if args.trace:
        command += ["--spans", os.path.join(out_dir, stem + ".spans.jsonl")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
