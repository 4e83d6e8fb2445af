#!/usr/bin/env python3
"""Benchmark of record for NetClus: builds the harness, runs one workload.

Run from the root of a source checkout:

    python3 perf_record/run.py --workload adhoc-cold --seed 1 --seconds 40 --trace 0

The harness is compiled from this checkout's sources (Release) into the
build directory named by CARGO_TARGET_DIR (default .bench_build, relative
to the checkout root). Build logs go to stderr. The harness prints its
resolved configuration, a determinism record and, as the last line of
stdout, the result object; this script checks that object against
BENCHMARK.json and exits non-zero when it is malformed, when an answer was
wrong, or when the checkout holds no sources to build.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("adhoc-cold", "serve-live")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perf_record: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def local_env(out_dir):
    """The caller's environment without NETCLUS_* knobs, with temporary
    files kept inside the build directory."""
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("NETCLUS_")}
    env["TMPDIR"] = str(tmp)
    return env


def build(out_dir, env):
    cmake_dir = out_dir / "cmake"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "netclus_perf",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            fail("build failed: " + " ".join(step))
    return cmake_dir / "netclus_perf"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out_dir = build_dir()
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no NetClus sources under {ROOT}; nothing to build")
    env = local_env(out_dir)
    binary = build(out_dir, env)
    work_dir = out_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"harness exited {proc.returncode} without a result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has unexpected keys")
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        fail("metrics differ from BENCHMARK.json: " + ", ".join(sorted(missing)))
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
