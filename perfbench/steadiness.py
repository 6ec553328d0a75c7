#!/usr/bin/env python3
"""Steadiness check for the time-to-solution benchmark.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 10]
                                    [--seconds S] [--out PATH]

Run from the repository root. Runs perfbench/run.py on one build in two
sets: in each, every workload once per seed (the same seeds in both sets). Prints, for
each end-to-end metric and workload, each set's median and quartiles, the
spread (quartile distance over the median) against a third of the metric's
bound, and the second set's median against the first's in the metric's
worse direction, against the bound. The spread of setup_s is shown but not
held to the bound.

It also confirms the deterministic numbers repeat bitwise: solve_sim_s for
each seed across the sets and, with one traced run per workload and set
(seed 1), every charged-time, traffic, recovery, iteration and preconditioner
count. Exits 1 if any check fails. All raw results go to --out (JSON).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SETS = 2
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that must repeat bitwise between runs of one seed.
DETERMINISTIC_PREFIXES = ("sim.", "core.iterations", "core.restarts",
                          "core.cholqr_breakdowns", "precond.levels",
                          "precond.fill_nnz", "precond.applies")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          stderr=subprocess.DEVNULL)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return None
    return {"record": json.loads(lines[-2])["record"],
            "result": json.loads(lines[-1]),
            "elapsed_s": time.monotonic() - t0}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", default=os.path.join(
        ROOT, ".bench_build", "perfbench", "steadiness.json"))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    seeds = list(range(1, args.seeds + 1))
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    t_start = time.monotonic()
    runs = {}  # (set, workload) -> {seed: run}
    traced = {}  # (set, workload) -> run
    ok = True
    for s in range(SETS):
        for w in workloads:
            for seed in seeds:
                r = run_once(w, seed, args.seconds, 0)
                if r is None or not r["result"]["correct"]:
                    print(f"set {s + 1} {w} seed {seed}: run failed "
                          f"{r and r['record']['failures']}")
                    ok = False
                    continue
                runs.setdefault((s, w), {})[seed] = r
                m = r["result"]["metrics"]
                print(f"set {s + 1} {w} seed {seed}: " + "  ".join(
                    f"{k}={v['value']:.6g}" for k, v in m.items()) +
                    f"  triad={r['record']['host']['host.triad_gbs']:.3g}"
                    f"  gemm={r['record']['host']['host.gemm_gflops']:.3g}"
                    f"  ({r['elapsed_s']:.1f} s)", flush=True)
            traced[(s, w)] = run_once(w, 1, args.seconds, 1)

    print("\nmetric / workload: set medians [q1, q3], spread vs bound/3, "
          "set-2 change vs bound")
    for w in workloads:
        for name, m in bounds.items():
            meds, line = [], []
            for s in range(SETS):
                vals = [r["result"]["metrics"][name]["value"]
                        for r in runs.get((s, w), {}).values()]
                if not vals:
                    continue
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                gated = name != "setup_s"
                bad = gated and spread > m["bound"]
                ok = ok and not bad
                flag = "FAIL" if bad else (
                    "tight" if gated and spread > m["bound"] / 3 else "ok")
                meds.append(med)
                line.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] "
                            f"spread {spread:.3f} {flag}")
            if len(meds) >= 2:
                sign = 1.0 if m["better"] == "lower" else -1.0
                worse = sign * (meds[-1] - meds[0]) / meds[0]
                bad = worse > m["bound"]
                ok = ok and not bad
                line.append(f"change {worse:+.3f} vs {m['bound']} "
                            f"{'FAIL' if bad else 'ok'}")
            print(f"{name:13s} {w:18s} " + " | ".join(line))

    print("\nbitwise repeats")
    for w in workloads:
        for seed in seeds:
            sims = {repr(runs[(s, w)][seed]["result"]["metrics"]
                         ["solve_sim_s"]["value"])
                    for s in range(SETS) if seed in runs.get((s, w), {})}
            if len(sims) > 1:
                print(f"{w} seed {seed}: solve_sim_s differs across sets {sims}")
                ok = False
        sets = [traced.get((s, w)) for s in range(SETS)]
        if any(t is None for t in sets):
            print(f"{w}: traced run failed")
            ok = False
            continue
        first = sets[0]["record"]["per_layer"]
        diffs = [k for k in first if k.startswith(DETERMINISTIC_PREFIXES)
                 and any(repr(t["record"]["per_layer"][k]) != repr(first[k])
                         for t in sets[1:])]
        n = sum(k.startswith(DETERMINISTIC_PREFIXES) for k in first)
        print(f"{w}: {n} deterministic per-layer metrics, "
              f"{'all repeat' if not diffs else 'DIFFER: ' + ', '.join(diffs)}")
        ok = ok and not diffs

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"runs": {f"{s + 1}/{w}": v for (s, w), v in runs.items()},
                   "traced": {f"{s + 1}/{w}": v
                              for (s, w), v in traced.items()}}, f)
    print(f"\n{'PASS' if ok else 'FAIL'} after {time.monotonic() - t_start:.0f} s"
          f" (raw results in {args.out})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
