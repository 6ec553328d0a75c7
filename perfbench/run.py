#!/usr/bin/env python3
"""Time-to-solution benchmark for the CA-GMRES multi-GPU simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench_driver from source (CMake,
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs one
workload for S seconds and prints, as the last line of standard output, one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. The line before it is the driver's full record: every number it
measured plus the CPU count, thread budget, host-pool workers and LLC size.

An operation is one solve. It fails when it throws, misses its restart
budget, leaves a true residual (original system) above the workload's bound,
or differs bitwise in x or in charged seconds from the run's first solve.
The workloads and their reasons are listed in BENCHMARK.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def clean_env():
    """The parent environment minus OpenMP's own settings (the driver pins
    its thread count; it unsets the library's CAGMRES_* variables itself)."""
    return {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("OMP_", "GOMP_", "KMP_"))
    }


def build(out):
    jobs = str(max(1, len(os.sched_getaffinity(0)) // 2))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, env=clean_env()).returncode:
            return False
    cmd = ["cmake", "--build", out, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, env=clean_env()).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("solver sources (src/) not found next to perfbench/")
        return 1
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 1

    out = build_dir()
    if not build(out):
        log("build failed")
        return 1

    spans_dir = os.path.join(out, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [os.path.join(out, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--spans", os.path.join(spans_dir,
                                   f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=clean_env(),
                              timeout=DRIVER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {DRIVER_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"driver exited with code {proc.returncode}")
        return 1
    lines = [l for l in proc.stdout.splitlines() if l.startswith('{"record"')]
    if not lines:
        log("driver printed no record")
        return 1
    record = json.loads(lines[-1])["record"]

    if args.trace:
        wanted = spec["per_layer"]
        measured = {**record["per_layer"], **record["host"], **record["env"]}
    else:
        wanted = spec["end_to_end"]
        measured = record["end_to_end"]
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            log(f"metric {m['name']} missing or not finite: {value!r}")
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    attempted, failed = int(record["attempted"]), int(record["failed"])
    result = {
        "correct": failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(lines[-1])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
