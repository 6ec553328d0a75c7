// Chaos campaign driver (see src/sim/chaos.hpp and DESIGN.md §11).
//
// Default: generate --schedules randomized fault schedules from --seed, run
// each over {0, 2 host workers} with alternating CA-GMRES / GMRES, and
// check the invariant oracle. Any violation is
// delta-debugged to a minimal reproducer and printed as a --faults spec.
// Exit code 1 when violations were found.
//
//   ./tools/chaos --schedules=64 --seed=7
//   ./tools/chaos --faults="seed=42;kill:*@t=5ms;corrupt:p=0.7" --solver=ca
//   ./tools/chaos --faults="seed=3;nan:p=0.01" --solver=gmres
//   ./tools/chaos --schedules=16 --demo-bug-kills=2   # exercise the minimizer
#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/options.hpp"
#include "sim/chaos.hpp"

namespace {

using cagmres::sim::ChaosConfig;
using cagmres::sim::ChaosRunner;
using cagmres::sim::ChaosSchedule;
using cagmres::sim::ChaosSolver;
using cagmres::sim::ChaosViolation;

void print_violation(const ChaosViolation& v) {
  std::printf("VIOLATION schedule=%d solver=%s workers=%d\n",
              v.schedule_index, to_string(v.solver).c_str(), v.workers);
  std::printf("  what: %s\n  spec: %s\n", v.what.c_str(), v.spec.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  cagmres::Options opts(
      "Chaos campaign: randomized fault schedules vs the invariant oracle");
  opts.add("schedules", "64", "number of schedules to generate and run");
  opts.add("seed", "7", "campaign seed (fixes every schedule)");
  opts.add("devices", "4", "simulated GPU count");
  opts.add("nodes", "1",
           "fault domains: devices are split into this many nodes (must "
           "divide --devices); >1 adds node kills and link faults");
  opts.add("matrix", "",
           "paper-matrix analog instead of the Laplacian: cant | g3_circuit "
           "| dielfilter | nlpkkt");
  opts.add("matrix-scale", "1.0", "size scale for --matrix");
  opts.add("workers", "0,2", "host worker counts to cover");
  opts.add("solver", "both",
           "both (alternate CA-GMRES and GMRES by index) | ca; a --faults "
           "replay also takes gmres (or any solver name a violation "
           "prints)");
  opts.add("precond", "",
           "preconditioner spec (ilu = block ILU(0)): widen the alternation "
           "with right-preconditioned drivers so faults land in precond "
           "setup and the trisolve kernels too");
  opts.add("deadline-factor", "50",
           "watchdog deadline as a multiple of the fault-free baseline");
  opts.add("minimize", "1", "delta-debug violations to minimal reproducers");
  opts.add("faults", "",
           "run ONE schedule from this spec instead of a campaign");
  opts.add("demo-bug-kills", "-1",
           "demo oracle: flag runs with >= this many device kills (-1 off)");
  opts.add("progress", "0", "print one line per schedule");
  if (!opts.parse(argc, argv)) return 0;

  ChaosConfig cfg;
  cfg.n_devices = opts.get_int("devices");
  cfg.n_nodes = opts.get_int("nodes");
  cfg.matrix = opts.get("matrix");
  cfg.matrix_scale = opts.get_double("matrix-scale");
  cfg.deadline_factor = opts.get_double("deadline-factor");
  cfg.worker_counts = opts.get_int_list("workers");
  cfg.demo_bug_kills = opts.get_int("demo-bug-kills");
  cfg.precond = opts.get("precond");
  const std::string spec = opts.get("faults");
  // A campaign alternates the roster by index ("both") or runs CA-GMRES
  // only ("ca"); a --faults replay runs the named solver ("both": CA-GMRES,
  // the roster's first). Replays of a non-CA solver keep the full roster,
  // so baselines and the watchdog deadline match the campaign they came
  // from.
  const std::string solver_arg = opts.get("solver");
  ChaosSolver replay_solver = ChaosSolver::kCaGmres;
  if (solver_arg != "both") {
    try {
      replay_solver = cagmres::sim::parse_chaos_solver(solver_arg);
    } catch (const cagmres::Error& e) {
      std::fprintf(stderr, "chaos: %s\n\n%s", e.what(), opts.help().c_str());
      return 2;
    }
    if (spec.empty() && replay_solver != ChaosSolver::kCaGmres) {
      std::fprintf(stderr,
                   "chaos: --solver=%s needs --faults (campaigns take "
                   "--solver=both or ca)\n\n%s",
                   solver_arg.c_str(), opts.help().c_str());
      return 2;
    }
  }
  cfg.both_solvers =
      solver_arg == "both" || replay_solver != ChaosSolver::kCaGmres;

  ChaosRunner runner(cfg);
  std::vector<ChaosViolation> violations;

  if (!spec.empty()) {
    const ChaosSchedule sched = ChaosSchedule::from_spec(spec);
    std::printf("schedule: %s\nsolver: %s\n", sched.to_spec().c_str(),
                to_string(replay_solver).c_str());
    violations = runner.run_schedule(sched, replay_solver);
    if (violations.empty()) std::printf("ok: no invariant violations\n");
  } else {
    int n = opts.get_int("schedules");
    if (!cfg.matrix.empty() && n > 16) {
      // Paper-matrix analogs are orders of magnitude bigger than the 24x24
      // default; budget the campaign so a --matrix run stays in the same
      // wall-clock ballpark. Ask for <= 16 schedules explicitly to silence.
      std::printf("note: --matrix campaign budgeted to 16 schedules "
                  "(asked for %d)\n", n);
      n = 16;
    }
    const std::uint64_t seed = static_cast<std::uint64_t>(opts.get_int("seed"));
    const bool progress = opts.get_bool("progress");
    const auto stats = runner.run_campaign(
        seed, n,
        [&](int i, const ChaosSchedule& s,
            const std::vector<ChaosViolation>& v) {
          if (progress || !v.empty()) {
            std::printf("[%3d] %-9s %s%s\n", i,
                        s.armed() ? "faulty" : "zero-fault",
                        s.to_spec().c_str(), v.empty() ? "" : "  <-- VIOLATES");
          }
        });
    violations = stats.violations;
    std::printf(
        "campaign: %d schedules (%d zero-fault), %d runs: "
        "%d converged, %d unconverged, %d clean errors, %d watchdog trips, "
        "%d degraded to cpu_gmres\n",
        stats.schedules, stats.zero_fault, stats.runs, stats.converged,
        stats.unconverged, stats.clean_errors, stats.watchdogs,
        stats.degraded);
    // Campaign-wide interconnect traffic; with CAGMRES_COMPRESS armed the
    // achieved per-tier compression ratio (payload/wire) rides along.
    const cagmres::core::TierTraffic& t = stats.traffic;
    if (t.compressed()) {
      std::printf(
          "traffic: peer %.1f MB (x%.2f), pcie %.1f MB (x%.2f), "
          "net %.1f MB (x%.2f)\n",
          t.peer_bytes / 1048576.0, t.peer_ratio(), t.pcie_bytes / 1048576.0,
          t.pcie_ratio(), t.net_bytes / 1048576.0, t.net_ratio());
    } else {
      std::printf("traffic: peer %.1f MB, pcie %.1f MB, net %.1f MB\n",
                  t.peer_bytes / 1048576.0, t.pcie_bytes / 1048576.0,
                  t.net_bytes / 1048576.0);
    }
  }

  if (violations.empty()) {
    std::printf("oracle: PASS\n");
    return 0;
  }
  std::printf("oracle: FAIL (%zu violations)\n", violations.size());
  for (const ChaosViolation& v : violations) print_violation(v);

  if (opts.get_bool("minimize")) {
    // Minimize the first violation per (solver) — later ones are usually
    // the same schedule seen through another configuration.
    const ChaosViolation& v = violations.front();
    std::printf("minimizing schedule %d for %s...\n", v.schedule_index,
                to_string(v.solver).c_str());
    const ChaosSchedule full = ChaosSchedule::from_spec(v.spec);
    const ChaosSchedule min = runner.minimize(full, v.solver);
    std::printf("minimal reproducer (%zu events):\n  --faults=\"%s\"\n",
                min.events.size(), min.to_spec().c_str());
  }
  return 1;
}
