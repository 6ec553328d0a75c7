#!/usr/bin/env bash
# Wall-clock bench runner: builds the default preset and runs the host-engine
# worker sweep, the charged-time sections and the blocked-BLAS microbench,
# writing BENCH_wallclock.json at the repo root. Extra arguments pass
# straight through to the bench binary (e.g. --matrix=cant --scale=1.0
# --ng=2); see `wallclock --help`.
#
#   --compare   after the run, gate the scale_sweep and node_kill_recovery
#               sections: every sweep point must have run, and at every
#               multi-node shape the node kill must be one node failure
#               restored from at least one partner copy (the checkpoint
#               hierarchy engaged).
#               The hier_reduce section gates too: the two-stage
#               node-leader fold must send at most one inter-node message
#               per node per reduction and give bitwise-identical results
#               across host worker counts. The compress section gates on
#               time to solution: every row must converge, and the
#               halo=fp32 row must ship strictly fewer net bytes AND charge
#               strictly fewer seconds than the uncoded row.
#               The precond section gates on the ILU(0) subsystem earning
#               its keep: on every shape whose unpreconditioned run
#               exhausted the iteration budget, the ILU row must converge
#               with strictly fewer iterations and charge a lower total
#               (setup + solve) than the capped run; at least one capped
#               shape must exist at all.
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
    # The gate is that the buddy hierarchy engaged: exactly the one killed
    # node failed, and its shard came back from a partner copy.
    if not (row["partner_restores"] >= 1 and row["node_failures"] == 1):
        sys.exit(
            f"compare: node kill at ng={row['ng']} did not recover from a "
            f"partner copy: partner_restores={row['partner_restores']}, "
            f"node_failures={row['node_failures']}"
        )
    print(
        f"compare OK: ng={row['ng']} node-kill "
        f"{row['partner_sim_seconds']:.6f}s, "
        f"partner_restores={row['partner_restores']}"
    )
if sweep:
    print(f"compare OK: scale_sweep covers {len(sweep)} (ng, nodes) points")

hier = doc.get("hier_reduce")
if not hier:
    warn_missing("hier_reduce")
    hier = []
for row in hier:
    if not row.get("identical_across_workers"):
        sys.exit(f"compare: hier fold results diverged across workers: {row}")
    if not row.get("at_most_one_msg_per_node"):
        sys.exit(
            "compare: reduction sent more than one inter-node message per "
            f"node: {row}"
        )
    print(
        f"compare OK: ng={row['ng']} ({row['nodes']} nodes) hier "
        f"{row['sim_seconds']:.6f}s, "
        f"reduction net msgs {row['reduction_net_msgs']}"
    )

comp = doc.get("compress")
if not comp:
    warn_missing("compress")
    comp = []
base = next((r for r in comp if r["codec"] == "none"), None)
if comp and base is None:
    sys.exit("compare: compress section has no uncoded baseline row")
if comp and len(comp) < 2:
    sys.exit("compare: compress section has no coded row")
for row in comp:
    # The rows are judged on time to a converged solution, so a row that
    # ran out of restarts proves nothing either way.
    if not row["converged"]:
        sys.exit(f"compare: compress row '{row['codec']}' did not converge")
for row in comp:
    if row is base:
        continue
    # The coded run must ship strictly fewer bytes over the inter-node
    # network than the uncoded baseline...
    if row["net_bytes"] >= base["net_bytes"]:
        sys.exit(
            f"compare: codec '{row['codec']}' did not shrink net bytes: "
            f"{row['net_bytes']:.0f} vs {base['net_bytes']:.0f}"
        )
    # ...and reach the solution in strictly less charged time.
    if row["sim_seconds"] >= base["sim_seconds"]:
        sys.exit(
            f"compare: codec '{row['codec']}' is not faster to solution: "
            f"{row['sim_seconds']:.6f}s vs {base['sim_seconds']:.6f}s"
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
for matrix, rows in by_matrix.items():
    none = rows.get("none")
    if none is None:
        sys.exit(f"compare: precond section has no 'none' row for {matrix}")
    ilus = [rows[k] for k in ("ilu0",) if k in rows]
    if not ilus:
        sys.exit(f"compare: precond section has no ILU rows for {matrix}")
    if none["converged"]:
        continue
    # This shape exhausted its unpreconditioned iteration budget: some ILU
    # row must converge it with strictly fewer iterations, and the
    # cheapest such row must charge a lower total. Each trisolve is one
    # kernel per factor whose dependency wait is priced per level at a
    # memory round-trip pair, not a launch, so even cant's ~290-level
    # factors no longer price a preconditioned iteration above what the
    # saved iterations pay back.
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
    summary = (
        f"{best['precond']} converges in {best['iterations']} (setup "
        f"{best['setup_sim_seconds']:.6f}s + solve "
        f"{best['solve_sim_seconds']:.6f}s = {best['total_sim_seconds']:.6f}s "
        f"vs {none['total_sim_seconds']:.6f}s)"
    )
    if best["total_sim_seconds"] >= none["total_sim_seconds"]:
        sys.exit(
            f"compare: ILU converges the capped shape {matrix} but charges "
            f"no less in total: {summary}"
        )
    print(
        f"compare OK: {matrix} capped at {none['iterations']} iterations "
        f"unpreconditioned; {summary}"
    )
if pre and capped == 0:
    sys.exit(
        "compare: precond section has no budget-capped unpreconditioned "
        "shape — the ILU gate never engaged"
    )
EOF
fi
