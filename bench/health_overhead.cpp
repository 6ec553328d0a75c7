// Measures what the numerical health monitors (core/health.hpp) cost in
// simulated time. The free monitors (false-convergence guard, stagnation
// watchdog) are host-side scans of numbers the solver already has and must
// charge nothing; the condition monitor charges one Gram
// condition-number sample per `kappa_every` committed blocks, and the table
// shows how that overhead scales with the cadence.
#include <cstdio>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/cagmres.hpp"
#include "sim/machine.hpp"

using namespace cagmres;

namespace {

core::SolveStats run(const core::Problem& p, int ng,
                     const core::SolverOptions& so) {
  sim::Machine machine(ng);
  return core::ca_gmres(machine, p, so).stats;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(
      "health_overhead — simulated-time cost of the numerical health "
      "monitors at different condition-sampling cadences");
  bench::add_matrix_options(opts, "cant", "0.5");
  opts.add("ng", "3", "simulated GPUs");
  opts.add("s", "10", "CA-GMRES block size");
  opts.add("m", "", "restart length (default: the paper's per-matrix value)");
  if (!opts.parse(argc, argv)) return 0;

  const sparse::CsrMatrix a = bench::load_matrix(opts);
  const std::vector<double> b =
      bench::make_rhs(a.n_rows, opts.get_int("seed"));
  const int ng = opts.get_int("ng");
  const core::Problem p =
      core::make_problem(a, b, ng, graph::Ordering::kNatural, true, 1);

  core::SolverOptions base;
  base.s = opts.get_int("s");
  base.m = opts.get("m").empty() ? bench::default_m(opts.get("matrix"))
                                 : opts.get_int("m");

  bench::print_header("health monitor overhead", a);
  Table table({"config", "time (ms)", "overhead", "iters", "kappa samples",
               "events", "ladder steps"});

  const core::SolveStats off = run(p, ng, base);
  table.add_row({"monitors off", bench::ms(off.time_total), "--",
                 Table::fmt_int(off.iterations), "0", "0", "0"});

  // Free monitors only: identical simulated time is the expected result.
  core::SolverOptions watch = base;
  watch.health.monitor_residual_gap = true;
  watch.health.monitor_stagnation = true;
  const core::SolveStats w = run(p, ng, watch);
  table.add_row({"watchdogs (free)", bench::ms(w.time_total),
                 Table::fmt((w.time_total / off.time_total - 1.0) * 100.0, 2) +
                     "%",
                 Table::fmt_int(w.iterations), "0",
                 Table::fmt_int(static_cast<long long>(w.health_events.size())),
                 Table::fmt_int(w.ladder_steps)});

  for (const int every : {8, 4, 2, 1}) {
    core::SolverOptions cond = watch;
    cond.health.monitor_condition = true;
    cond.health.condition_sample_every = every;
    const core::SolveStats c = run(p, ng, cond);
    // One sample per `every` committed blocks.
    const long long samples =
        (static_cast<long long>(c.block_sizes.size()) + every - 1) / every;
    char name[64];
    std::snprintf(name, sizeof(name), "+kappa every %d", every);
    table.add_row(
        {name, bench::ms(c.time_total),
         Table::fmt((c.time_total / off.time_total - 1.0) * 100.0, 2) + "%",
         Table::fmt_int(c.iterations), Table::fmt_int(samples),
         Table::fmt_int(static_cast<long long>(c.health_events.size())),
         Table::fmt_int(c.ladder_steps)});
  }

  std::printf("%s\n", table.str().c_str());
  return 0;
}
