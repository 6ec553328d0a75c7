#!/usr/bin/env bash
# Full local gate: the tier-1 suite under the default preset, the
# sanitize-labeled suites rebuilt and rerun under asan-ubsan, and the
# tsan-labeled suites (the host execution engine's concurrency tests) under
# thread sanitizer with the worker pool active. Reruns cover the runtime
# suites with the host worker pool on, a forced 2-node topology, the
# fp32 halo codec (CAGMRES_COMPRESS=halo=fp32), and the ILU
# preconditioner suite under tsan. Run from anywhere; everything happens
# relative to the repo root.
#
#   --bench-smoke   additionally run the wall-clock bench at tiny sizes and
#                   fail unless it produces well-formed BENCH_wallclock.json
#   --chaos-smoke   additionally run the chaos campaigns (single-node and
#                   --nodes=2 multi-node) under the tsan preset; fast
#                   default-build campaigns always run as part of the gate
set -euo pipefail
cd "$(dirname "$0")/.."

bench_smoke=0
chaos_smoke=0
for arg in "$@"; do
  case "$arg" in
    --bench-smoke) bench_smoke=1 ;;
    --chaos-smoke) chaos_smoke=1 ;;
    *) echo "unknown argument: $arg (known: --bench-smoke, --chaos-smoke)" >&2; exit 2 ;;
  esac
done

echo "== default preset: configure + build + full test suite =="
cmake --preset default
cmake --build --preset default -j"$(nproc)"
ctest --preset default -j"$(nproc)"

echo
echo "== asan-ubsan preset: configure + build + sanitize-labeled tests =="
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j"$(nproc)"
ctest --preset asan-ubsan -j"$(nproc)"

echo
echo "== tsan preset: configure + build + tsan-labeled tests (2 workers) =="
cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"
ctest --preset tsan -j"$(nproc)"

echo
echo "== host-worker rerun: sim/ortho/fault/chaos suites, CAGMRES_HOST_WORKERS=2 =="
# Rerun the suites that exercise the runtime, the orthogonalization
# schedules, the fault scenarios and the chaos oracle in the default build
# with the host pool active, so every machine they build without an explicit
# worker count drains its streams on real threads.
CAGMRES_HOST_WORKERS=2 ctest --preset default \
  -R '^(sim_test|ortho_test|faults_test|chaos_test)$' -j"$(nproc)"

echo
echo "== multi-node escape hatch: ortho/mpk suites, CAGMRES_TOPOLOGY=2 =="
# Force a 2-node topology on the suites that exercise the hierarchical
# two-stage reductions and the split halo exchange (DESIGN §13) with the
# host pool, then again under tsan: the node-leader closures and
# per-side pack events must stay race-free with workers draining streams.
CAGMRES_TOPOLOGY=2 CAGMRES_HOST_WORKERS=2 \
  ctest --preset default -R '^(ortho_test|mpk_test)$' -j"$(nproc)"
CAGMRES_TOPOLOGY=2 CAGMRES_HOST_WORKERS=2 \
  ctest --preset tsan -R '^(ortho_test|mpk_test)$' -j"$(nproc)"

echo
echo "== compressed-wire escape hatch: mpk/ortho/fault suites, CAGMRES_COMPRESS =="
# Arm the fp32 halo codec (DESIGN §14) on the suites that drive the halo
# exchange, the solvers built on it and the recovery paths, so the demoted
# wire keeps CI coverage under the default build and under tsan (codec
# passes run on device streams the worker pool drains).
CAGMRES_COMPRESS=halo=fp32 CAGMRES_HOST_WORKERS=2 \
  ctest --preset default -R '^(mpk_test|ortho_test|faults_test)$' -j"$(nproc)"
CAGMRES_COMPRESS=halo=fp32 CAGMRES_HOST_WORKERS=2 \
  ctest --preset tsan -j"$(nproc)"

echo
echo "== precond escape hatch: precond suite, tsan =="
# The ILU(0) handle subsystem (DESIGN §15): each trisolve apply runs as one
# host closure per device on the device streams the worker pool drains,
# with several applies in flight on one stream, so the suite must stay
# race-free under tsan with 2 workers — and bit-stable, which the suite
# itself asserts.
CAGMRES_HOST_WORKERS=2 \
  ctest --preset tsan -L precond -j"$(nproc)"

echo
echo "== chaos gate: 64-schedule campaign, default build =="
# The invariant oracle (DESIGN §11): every randomized fault schedule must
# end converged, cleanly errored, or watchdog-tripped, replay bit-identically,
# and keep zero-fault schedules byte-identical to the baseline.
./build/tools/chaos --schedules=64 --seed=7

echo
echo "== chaos gate: 64-schedule multi-node campaign (--nodes=2) =="
# Node-scoped schedules (atomic node kills, inter-node link rates, node
# corrupt storms) against the hierarchical partner-checkpoint recovery
# ladder (DESIGN §12).
./build/tools/chaos --schedules=64 --seed=7 --nodes=2

echo
echo "== chaos gate: 64-schedule multi-node campaign with compressed wires =="
# The invariant oracle must hold with the fp32 halo codec armed: codec
# passes reprice every halo retransmission, and none of that may open a
# window the fault schedules can exploit.
CAGMRES_COMPRESS=halo=fp32 \
  ./build/tools/chaos --schedules=64 --seed=7 --nodes=2

echo
echo "== chaos gate: 64-schedule multi-node campaign, preconditioned drivers =="
# Widen the alternation with the right-preconditioned ILU drivers
# (--precond): kills and corrupt storms land inside preconditioner setup
# and the trisolves (one kernel per factor, whose NaN latch poisons the
# device's whole output), and the handle's post-repartition rebuilds must
# keep same-seed replays bit-identical.
./build/tools/chaos --schedules=64 --seed=7 --nodes=2 \
  --precond=ilu

if [[ "$chaos_smoke" == 1 ]]; then
  echo
  echo "== chaos smoke: campaigns under the tsan preset =="
  ./build-tsan/tools/chaos --schedules=64 --seed=7
  ./build-tsan/tools/chaos --schedules=32 --seed=7 --nodes=2
fi

if [[ "$bench_smoke" == 1 ]]; then
  echo
  echo "== bench smoke: tiny wall-clock run must emit well-formed JSON =="
  out=build/BENCH_wallclock.smoke.json
  rm -f "$out"
  ./build/bench/wallclock --smoke --out "$out"
  [[ -s "$out" ]] || { echo "bench smoke: $out missing or empty" >&2; exit 1; }
  python3 - "$out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("solver_sweep", "scale_sweep", "hier_reduce",
            "node_kill_recovery", "compress", "precond", "gram_microbench",
            "nproc"):
    if key not in doc:
        sys.exit(f"bench smoke: JSON missing key {key!r}")
if not doc["solver_sweep"]:
    sys.exit("bench smoke: empty solver_sweep")
for row in doc["solver_sweep"]:
    if not row.get("identical_to_serial"):
        sys.exit(f"bench smoke: results diverged across workers: {row}")
if not doc["node_kill_recovery"]:
    sys.exit("bench smoke: empty node_kill_recovery")
for row in doc["node_kill_recovery"]:
    if not (row.get("partner_restores", 0) >= 1
            and row.get("node_failures") == 1):
        sys.exit(f"bench smoke: node kill not restored from a partner: {row}")
if not doc["hier_reduce"]:
    sys.exit("bench smoke: empty hier_reduce")
for row in doc["hier_reduce"]:
    if not row.get("identical_across_workers"):
        sys.exit(f"bench smoke: hier results diverged across workers: {row}")
    if not row.get("at_most_one_msg_per_node"):
        sys.exit(f"bench smoke: >1 inter-node msg per node per reduction: {row}")
print("bench smoke: JSON OK")
EOF
fi

echo
echo "All checks passed."
