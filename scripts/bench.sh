#!/usr/bin/env bash
# Wall-clock bench runner: builds the default preset and runs the host-engine
# worker sweep, the charged-time sections and the blocked-BLAS microbench,
# writing BENCH_wallclock.json at the repo root. Extra arguments pass
# straight through to the bench binary (e.g. --matrix=cant --scale=1.0
# --ng=2); see `wallclock --help`.
#
#   --compare   after the run, gate the scale_sweep and node_kill_recovery
#               sections: every sweep point must have run, and partner
#               checkpointing must beat the flat host-checkpoint restart at
#               every ng >= 16 shape present.
#               The hier_reduce section gates too: the hierarchical
#               two-stage fold must charge strictly less than the flat
#               per-device fold at every ng >= 16 shape, send at most one
#               inter-node message per node per reduction, and match the
#               flat results bitwise. The compress section gates on every
#               coded run shipping strictly fewer net bytes than the
#               uncoded one while staying within the convergence health
#               budget (a coded run may not unconverge a converging shape).
#               The precond section gates on the ILU(k) subsystem earning
#               its keep: on every shape whose unpreconditioned run
#               exhausted the iteration budget, some ILU row must converge
#               with strictly fewer iterations; at least one capped shape
#               must exist at all, and on at least one of them the best
#               ILU row must also charge a lower total (setup + solve)
#               than the capped run.
#               A JSON missing a section (e.g. an older baseline written
#               before that section existed) only warns; the remaining
#               gates still run.
#
# Note: the worker-sweep speedup needs real cores. On a single-core machine
# the sweep still runs (and still checks result identity across worker
# counts) but can show no wall-clock win; "nproc" is recorded in the JSON so
# readers can tell.
set -euo pipefail
cd "$(dirname "$0")/.."

compare=0
passthrough=()
for arg in "$@"; do
  case "$arg" in
    --compare) compare=1 ;;
    *) passthrough+=("$arg") ;;
  esac
done

cmake --preset default
cmake --build --preset default -j"$(nproc)" --target wallclock

./build/bench/wallclock --out BENCH_wallclock.json ${passthrough[@]+"${passthrough[@]}"}

echo
echo "Wrote $(pwd)/BENCH_wallclock.json"

if [[ "$compare" == 1 ]]; then
  echo
  echo "== compare: gate the charged-time sections =="
  python3 - BENCH_wallclock.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)

def warn_missing(name):
    # Older baselines predate some sections; a missing one is a warning,
    # not a gate failure, so comparisons against old JSONs keep working.
    print(f"compare WARNING: JSON has no {name} section (old baseline?)")

sweep = doc.get("scale_sweep")
if not sweep:
    warn_missing("scale_sweep")
kills = doc.get("node_kill_recovery")
if kills is None:
    warn_missing("node_kill_recovery")
    kills = []
for row in kills:
    # Convergence is not gated: g3_circuit runs out its iteration budget at
    # full size with or without faults (see ROADMAP's preconditioning item).
    # The gate is the charged-cost story: partner restore must win at scale.
    if row["ng"] >= 16 and not row.get("partner_cheaper"):
        sys.exit(
            "compare: partner checkpoint lost to host-checkpoint restart "
            f"at ng={row['ng']}: partner {row['partner_sim_seconds']:.6f}s "
            f"vs host {row['host_sim_seconds']:.6f}s"
        )
for row in kills:
    print(
        f"compare OK: ng={row['ng']} node-kill partner "
        f"{row['partner_sim_seconds']:.6f}s vs host "
        f"{row['host_sim_seconds']:.6f}s "
        f"(partner_cheaper={row['partner_cheaper']})"
    )
if sweep:
    print(f"compare OK: scale_sweep covers {len(sweep)} (ng, nodes) points")

hier = doc.get("hier_reduce")
if not hier:
    warn_missing("hier_reduce")
    hier = []
for row in hier:
    if not row.get("identical_results"):
        sys.exit(f"compare: hier and flat folds produced different x: {row}")
    if not row.get("at_most_one_msg_per_node"):
        sys.exit(
            "compare: reduction sent more than one inter-node message per "
            f"node: {row}"
        )
    if row["ng"] >= 16 and not row.get("hier_cheaper"):
        sys.exit(
            "compare: hierarchical fold lost to flat fold at "
            f"ng={row['ng']}: hier {row['hier_sim_seconds']:.6f}s vs "
            f"flat {row['flat_sim_seconds']:.6f}s"
        )
    print(
        f"compare OK: ng={row['ng']} ({row['nodes']} nodes) hier "
        f"{row['hier_sim_seconds']:.6f}s vs flat "
        f"{row['flat_sim_seconds']:.6f}s "
        f"(speedup {row['speedup']:.4f}x, "
        f"reduction net msgs {row['flat_reduction_net_msgs']} -> "
        f"{row['hier_reduction_net_msgs']})"
    )

comp = doc.get("compress")
if not comp:
    warn_missing("compress")
    comp = []
base = next((r for r in comp if r["codec"] == "none"), None)
if comp and base is None:
    sys.exit("compare: compress section has no uncoded baseline row")
for row in comp:
    if row is base:
        continue
    # Every coded run must ship strictly fewer bytes over the inter-node
    # network than the uncoded baseline...
    if row["net_bytes"] >= base["net_bytes"]:
        sys.exit(
            f"compare: codec '{row['codec']}' did not shrink net bytes: "
            f"{row['net_bytes']:.0f} vs {base['net_bytes']:.0f}"
        )
    # ...and stay within the convergence health budget: quantized wires may
    # cost extra restarts, but may not unconverge a converging shape.
    if base["converged"] and not row["converged"]:
        sys.exit(
            f"compare: codec '{row['codec']}' broke convergence "
            f"(baseline converged, coded run did not)"
        )
    print(
        f"compare OK: codec '{row['codec']}' net bytes "
        f"{base['net_bytes']:.3g} -> {row['net_bytes']:.3g} "
        f"(x{base['net_bytes'] / row['net_bytes']:.2f}), "
        f"sim {base['sim_seconds']:.6f}s -> {row['sim_seconds']:.6f}s, "
        f"iterations {base['iterations']} -> {row['iterations']}"
    )

pre = doc.get("precond")
if pre is None:
    warn_missing("precond")
    pre = []
by_matrix = {}
for row in pre:
    by_matrix.setdefault(row["matrix"], {})[row["precond"]] = row
capped = 0
rescued = 0
for matrix, rows in by_matrix.items():
    none = rows.get("none")
    if none is None:
        sys.exit(f"compare: precond section has no 'none' row for {matrix}")
    ilus = [rows[k] for k in ("ilu0", "ilu1") if k in rows]
    if not ilus:
        sys.exit(f"compare: precond section has no ILU rows for {matrix}")
    if none["converged"]:
        continue
    # This shape exhausted its unpreconditioned iteration budget: some ILU
    # row must converge it with strictly fewer iterations. Charged total is
    # allowed to lose per shape (deep level schedules price each
    # preconditioned iteration up), but at least ONE capped shape across
    # the section must also win on total — see the `rescued` check below.
    capped += 1
    winners = [
        r for r in ilus
        if r["converged"] and r["iterations"] < none["iterations"]
    ]
    if not winners:
        sys.exit(
            f"compare: no ILU row converges the capped shape {matrix} in "
            f"fewer iterations: none it={none['iterations']} vs "
            + "; ".join(
                f"{r['precond']} it={r['iterations']} "
                f"converged={r['converged']}" for r in ilus
            )
        )
    best = min(winners, key=lambda r: r["total_sim_seconds"])
    cheaper = best["total_sim_seconds"] < none["total_sim_seconds"]
    if cheaper:
        rescued += 1
    print(
        f"compare OK: {matrix} capped at {none['iterations']} iterations "
        f"unpreconditioned; {best['precond']} converges in "
        f"{best['iterations']} (setup {best['setup_sim_seconds']:.6f}s + "
        f"solve {best['solve_sim_seconds']:.6f}s = "
        f"{best['total_sim_seconds']:.6f}s vs "
        f"{none['total_sim_seconds']:.6f}s"
        f"{', cheaper' if cheaper else ', dearer per-shape'})"
    )
if pre and capped == 0:
    sys.exit(
        "compare: precond section has no budget-capped unpreconditioned "
        "shape — the ILU gate never engaged"
    )
if pre and capped > 0 and rescued == 0:
    sys.exit(
        "compare: ILU converged every capped shape but never beat the "
        "unpreconditioned charged total on any of them"
    )
EOF
fi
