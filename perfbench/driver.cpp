// Time-to-solution benchmark driver: one workload, one seed.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--spans PATH]
//
// Pins its thread budget in-process (one OpenMP thread, no host-pool
// workers) and unsets every CAGMRES_* variable before the first Machine
// exists, so no setting leaks in from the environment; each Machine is then
// configured explicitly (workloads.cpp make_machine). Then, for S seconds
// (at least 5 rounds), it repeats a round of
//   1. set-up, three times: core::make_problem plus PrecondHandle::build
//      where the workload arms one; the last preparation is solved;
//   2. a solve on a fresh machine, checked by the oracle: converged within
//      the restart budget, true residual in the ORIGINAL system within the
//      workload's bound, x and the charged seconds bitwise equal to the
//      first solve's.
// Set-up and solves interleave so both sample the same stretch of machine
// time. After the window:
//   3. with --trace 1, rounds of an untraced solve, a traced solve and a
//      replay of one restart cycle through the layers' public entry points
//      (replay.cpp). Each round's tracing overhead (traced minus untraced)
//      and layer times (the replay scaled by the traced solve's counts, set
//      against the round's untraced solve) come from adjacent measurements,
//      so a shared host's slow and fast phases cannot split them; the
//      medians over the rounds are reported. Spans go to --spans;
//   4. the machine-drift probe (probe.cpp).
// Prints one JSON line, {"record": {...}}, with every number measured.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "blas/blas1.hpp"
#include "measure.hpp"
#include "sim/trace.hpp"
#include "sparse/generators.hpp"

extern char** environ;

using namespace perfbench;

namespace {

// One OpenMP thread and no host-pool workers: on a shared 4-CPU host a
// second thread let one busy neighbour core swing single solves between
// 0.65 s and 1.1 s, while one thread held them within 5%.
constexpr int kThreads = 1;
constexpr int kWorkers = 0;
/// Rounds of untraced solve, traced solve and layer replay.
constexpr int kTraceRounds = 9;

/// Unsets every CAGMRES_* variable, so the library's defaults and the
/// explicit Machine settings apply; returns the names it removed.
std::vector<std::string> unset_library_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv(*e);
    if (kv.rfind("CAGMRES_", 0) == 0) {
      names.push_back(kv.substr(0, kv.find('=')));
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  return names;
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// Threads OpenMP actually runs a parallel region with.
int effective_threads() {
  int n = 1;
#ifdef _OPENMP
#pragma omp parallel
  {
#pragma omp single
    n = omp_get_num_threads();
  }
#endif
  return n;
}

double llc_bytes() {
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<double>(v) : 105.0 * 1024 * 1024;
}

bool same_bits(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

bool same_bits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

std::string quote(const std::string& s) {
  std::string q = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') q += '\\';
    q += (c == '\n' ? ' ' : c);
  }
  return q + "\"";
}

/// Minimal JSON object writer (numbers with all 17 significant digits).
class Json {
 public:
  void num(const std::string& k, double v) {
    char buf[64] = "null";
    if (std::isfinite(v)) std::snprintf(buf, sizeof(buf), "%.17g", v);
    raw(k, buf);
  }
  void str(const std::string& k, const std::string& v) { raw(k, quote(v)); }
  void raw(const std::string& k, const std::string& v) {
    s_ += (s_.empty() ? "{" : ", ") + quote(k) + ": " + v;
  }
  std::string done() const { return s_.empty() ? "{}" : s_ + "}"; }

 private:
  std::string s_;
};

std::string metric_object(const MetricList& list) {
  Json j;
  for (const auto& [k, v] : list) j.num(k, v);
  return j.done();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

/// The oracle: checks each solve and counts attempts and failures.
class Oracle {
 public:
  Oracle(const Workload& w, const sparse::CsrMatrix& a,
         const std::vector<double>& b)
      : w_(w), a_(a), b_(b), b_norm_(blas::nrm2(a.n_rows, b.data())) {}

  /// Solves on `machine`; returns the wall seconds of a solve that passed,
  /// or -1 (and records why) for one that failed.
  double solve_checked(sim::Machine& machine, const Prepared& prep,
                       core::SolveResult& res) {
    ++attempted;
    try {
      const double t0 = now_s();
      res = solve(w_, machine, prep);
      const double wall = now_s() - t0;
      const std::string verdict = check(res);
      if (verdict.empty()) return wall;
      failures.push_back(verdict);
    } catch (const std::exception& e) {
      failures.push_back(std::string("threw: ") + e.what());
    }
    return -1.0;
  }

  int attempted = 0;
  std::vector<std::string> failures;
  std::vector<double> ref_x;  ///< first passing solve's x
  double ref_sim = 0.0;       ///< and its charged seconds

 private:
  std::string check(const core::SolveResult& r) {
    if (!r.stats.converged) {
      return "missed restart budget (" + std::to_string(r.stats.restarts) +
             " restarts)";
    }
    const double rel = core::true_residual(a_, b_, r.x) / b_norm_;
    if (!(rel <= w_.check_tol)) {
      return "true residual " + std::to_string(rel) + " > " +
             std::to_string(w_.check_tol);
    }
    if (ref_x.empty()) {
      ref_x = r.x;
      ref_sim = r.stats.time_total;
      return "";
    }
    if (!same_bits(r.x, ref_x)) return "x differs bitwise from first solve";
    if (!same_bits(r.stats.time_total, ref_sim)) {
      return "solve_sim_s differs bitwise from first solve";
    }
    return "";
  }

  const Workload& w_;
  const sparse::CsrMatrix& a_;
  const std::vector<double>& b_;
  double b_norm_;
};

/// The workload's machine, with the pinned worker count verified.
std::unique_ptr<sim::Machine> checked_machine(const Workload& w,
                                              std::uint64_t seed) {
  auto m = make_machine(w, seed);
  if (m->host_workers() != kWorkers) {
    throw Error("host pool runs " + std::to_string(m->host_workers()) +
                " workers, configured " + std::to_string(kWorkers));
  }
  return m;
}

/// Share of the SpMV kernels charged in `phase` on the first surviving
/// device that came after the solve's first device kill (0 without one).
double share_after_kill(const sim::Machine& mach, const std::string& phase) {
  const std::vector<sim::TraceEvent>& ev = mach.trace().events();
  double kill = -1.0;
  for (const sim::TraceEvent& e : ev) {
    if (e.name == "fault:kill" && (kill < 0.0 || e.t_start < kill)) {
      kill = e.t_start;
    }
  }
  if (kill < 0.0) return 0.0;
  const int dev = mach.physical_device(0);
  double total = 0.0, after = 0.0;
  for (const sim::TraceEvent& e : ev) {
    if (e.device == dev && e.phase == phase && e.name.rfind("spmv_", 0) == 0) {
      total += 1.0;
      if (e.t_start >= kill) after += 1.0;
    }
  }
  return total > 0.0 ? after / total : 0.0;
}

/// Per-layer numbers of one traced solve: charged phases, traffic, counts.
/// `pcs` are the preconditioner's stats from before the solve.
MetricList solve_metrics(sim::Machine& mach, const core::SolveStats& st,
                         const precond::PrecondStats& pcs,
                         std::int64_t applies) {
  MetricList out;
  // Charged phases of the solve machine; every other label the solver used
  // counts as other, so the phases sum to solve_sim_s.
  double other = mach.phases().total();
  for (const char* k :
       {"mpk", "spmv", "orth", "borth", "tsqr", "precond", "precond_setup"}) {
    const double v = mach.phases().get(k);
    out.emplace_back(std::string("sim.phase.") + k + "_s", v);
    other -= v;
  }
  out.emplace_back("sim.phase.other_s", other);
  std::int64_t kernels = 0;
  for (const std::int64_t k : mach.counters().kernel_count) kernels += k;
  const core::TierTraffic& tr = st.traffic;
  const auto d = [](auto v) { return static_cast<double>(v); };
  out.insert(out.end(),
             {{"sim.peer_bytes", tr.peer_bytes},
              {"sim.peer_msgs", d(tr.peer_msgs)},
              {"sim.pcie_bytes", tr.pcie_bytes},
              {"sim.pcie_msgs", d(tr.pcie_msgs)},
              {"sim.net_bytes", tr.net_bytes},
              {"sim.net_msgs", d(tr.net_msgs)},
              {"sim.kernels_charged", d(kernels)},
              {"core.iterations", d(st.iterations)},
              {"core.restarts", d(st.restarts)},
              {"core.cholqr_breakdowns", d(st.cholqr_breakdowns)},
              {"sim.recovery.faults_injected", d(st.recovery.faults_injected)},
              {"sim.recovery.transfer_retries", d(st.recovery.transfer_retries)},
              {"sim.recovery.repartitions", d(st.recovery.repartitions)},
              {"sim.recovery.partner_restores",
               d(st.recovery.partner_restores)},
              {"sim.recovery.time_lost_s", st.recovery.time_lost},
              {"precond.levels", d(std::max(pcs.max_levels_l, pcs.max_levels_u))},
              {"precond.fill_nnz", d(pcs.fill_nnz)},
              {"precond.applies", d(applies)}});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans PATH]\n");
    return 2;
  }
  const std::vector<std::string> unset_env = unset_library_env();
  const int nproc = usable_cpus();
#ifdef _OPENMP
  omp_set_dynamic(0);
  omp_set_num_threads(kThreads);
#endif
  const int eff = effective_threads();
  if (eff != kThreads) {
    std::fprintf(stderr, "effective OpenMP threads %d != configured %d\n", eff,
                 kThreads);
    return 3;
  }

  try {
    const Workload& w = find_workload(args.workload);
    const sparse::CsrMatrix a = sparse::make_paper_matrix(w.matrix, w.scale);
    const std::vector<double> b = make_rhs(a.n_rows, args.seed, w.rhs_noise);

    Oracle oracle(w, a, b);
    Prepared prep;
    std::vector<double> setup_s, make_problem_s, build_s, solve_wall;
    int first_iterations = 0, first_restarts = 0;
    const double t_start = now_s();
    while (oracle.attempted < 5 || now_s() - t_start < args.seconds) {
      for (int rep = 0; rep < 3; ++rep) {
        double mp = 0.0, bd = 0.0;
        prep = prepare(w, a, b, &mp, &bd);
        setup_s.push_back(mp + bd);
        make_problem_s.push_back(mp);
        build_s.push_back(bd);
      }
      const auto m = checked_machine(w, args.seed);
      core::SolveResult res;
      const double wall = oracle.solve_checked(*m, prep, res);
      if (wall < 0.0) continue;
      if (solve_wall.empty()) {
        first_iterations = res.stats.iterations;
        first_restarts = res.stats.restarts;
      }
      solve_wall.push_back(wall);
    }
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    const double wall_med = quantile(solve_wall, 0.5);

    // Wall times are reported as the fastest of the run's repetitions, not
    // the median: on a shared 4-CPU cloud VM each vCPU's throughput was
    // measured swinging up to 2x within seconds, and a run's median lands
    // anywhere in between depending on how much of its window was slow,
    // while the minimum stays with the least contended stretch. Over equal
    // runs there it spread less than the 10th percentile or the median.
    // Median and 90th percentile go into the record next to it.
    const MetricList e2e = {{"solve_wall_s", quantile(solve_wall, 0.0)},
                            {"solve_sim_s", oracle.ref_sim},
                            {"setup_s", quantile(setup_s, 0.0)},
                            {"peak_rss_mb", peak_rss_mb}};
    MetricList layers = {
        {"core.make_problem_wall_s", quantile(make_problem_s, 0.0)},
        {"precond.build_wall_s", prep.pc ? quantile(build_s, 0.0) : 0.0}};

    if (args.trace) {
      const precond::PrecondStats pcs =
          prep.pc ? prep.pc->stats() : precond::PrecondStats{};
      // The last traced machine is kept for its trace and phases.
      std::vector<double> plain_wall, traced_wall, overhead;
      std::vector<ReplayPass> passes;
      SpanLog log;
      std::unique_ptr<sim::Machine> tm;
      core::SolveResult res;
      std::int64_t applies = 0;
      const auto plain_solve = [&] {
        const auto m = checked_machine(w, args.seed);
        core::SolveResult plain;
        return oracle.solve_checked(*m, prep, plain);
      };
      const auto traced_solve = [&] {
        tm.reset();
        tm = checked_machine(w, args.seed);
        tm->enable_trace(true);
        const std::int64_t applies0 = prep.pc ? prep.pc->stats().applies : 0;
        const double wall = oracle.solve_checked(*tm, prep, res);
        applies = (prep.pc ? prep.pc->stats().applies : 0) - applies0;
        return wall;
      };
      for (int rep = 0; rep < kTraceRounds; ++rep) {
        // Which solve runs first alternates, so neither always follows the
        // previous round's replay (cold caches, fresh page faults).
        double pw = 0.0, tw = 0.0;
        if (rep % 2 == 0) {
          pw = plain_solve();
          tw = traced_solve();
        } else {
          tw = traced_solve();
          pw = plain_solve();
        }
        if (pw < 0.0 || tw < 0.0) continue;  // the oracle counted it
        plain_wall.push_back(pw);
        traced_wall.push_back(tw);
        overhead.push_back(tw - pw);
        std::vector<int> survivors;
        for (int d = 0; d < tm->n_devices(); ++d) {
          survivors.push_back(tm->physical_device(d));
        }
        passes.push_back(replay_pass(w, prep, a, survivors, log));
      }
      if (passes.empty()) throw Error("every traced solve failed");
      const MetricList sm = solve_metrics(*tm, res.stats, pcs, applies);
      layers.insert(layers.end(), sm.begin(), sm.end());
      layers.emplace_back("trace.solve_wall_s", quantile(traced_wall, 0.5));
      layers.emplace_back("trace.overhead_s", quantile(overhead, 0.5));

      SolveCounts counts;
      counts.iterations = res.stats.iterations;
      counts.restarts = res.stats.restarts;
      counts.repartitions = res.stats.recovery.repartitions;
      for (const int k : res.stats.block_sizes) counts.ca_steps += k;
      counts.reorth_blocks = res.stats.reorth_blocks;
      counts.precond_applies = applies;
      counts.spmv_share_after = share_after_kill(*tm, "spmv");
      counts.mpk_share_after = share_after_kill(*tm, "mpk");
      std::vector<MetricList> rounds;
      for (std::size_t r = 0; r < passes.size(); ++r) {
        counts.wall_s = plain_wall[r];
        rounds.push_back(layer_metrics(w, passes[r], counts));
      }
      for (std::size_t k = 0; k < rounds.front().size(); ++k) {
        std::vector<double> v;
        for (const MetricList& r : rounds) v.push_back(r[k].second);
        layers.emplace_back(rounds.front()[k].first, quantile(v, 0.5));
      }
      if (!args.spans.empty() && !log.write(args.spans)) {
        std::fprintf(stderr, "could not write spans to %s\n",
                     args.spans.c_str());
      }
    }

    // Machine-drift probe, after peak RSS was read: its arrays are not the
    // workload's memory.
    const double llc = llc_bytes();
    const MetricList host = run_host_probe(llc);
    const MetricList env = {{"env.nproc", nproc},
                            {"env.threads", eff},
                            {"env.workers", kWorkers},
                            {"env.llc_mb", llc / (1024.0 * 1024.0)}};

    std::string fail_list = "[";
    for (std::size_t i = 0; i < oracle.failures.size(); ++i) {
      fail_list += (i ? ", " : "") + quote(oracle.failures[i]);
    }
    std::string samples = "[";
    for (std::size_t i = 0; i < solve_wall.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.6f", i ? ", " : "", solve_wall[i]);
      samples += buf;
    }
    std::string unset_list = "[";
    for (std::size_t i = 0; i < unset_env.size(); ++i) {
      unset_list += (i ? ", " : "") + quote(unset_env[i]);
    }
    // Bytes a solve streams through repeatedly: the Krylov basis, the
    // prepared matrix and its MPK plan copy (CSR/ELL, ~12 B per nonzero
    // each), and the ILU factors.
    const double nnz = static_cast<double>(prep.problem.a.nnz());
    const double fill =
        prep.pc ? static_cast<double>(prep.pc->stats().fill_nnz) : 0.0;

    Json rec;
    rec.str("workload", w.name);
    rec.num("seed", static_cast<double>(args.seed));
    rec.num("n", a.n_rows);
    rec.num("nnz", nnz);
    rec.num("working_set_mb",
            (8.0 * a.n_rows * (w.m + 1) + 24.0 * nnz + 12.0 * fill) / 1e6);
    rec.num("attempted", oracle.attempted);
    rec.num("failed", static_cast<double>(oracle.failures.size()));
    rec.raw("failures", fail_list + "]");
    rec.num("first_iterations", first_iterations);
    rec.num("first_restarts", first_restarts);
    rec.num("setups_timed", static_cast<double>(setup_s.size()));
    rec.num("setup_median_s", quantile(setup_s, 0.5));
    rec.num("solves_timed", static_cast<double>(solve_wall.size()));
    rec.num("solve_wall_median_s", wall_med);
    rec.num("solve_wall_p90_s", quantile(solve_wall, 0.9));
    rec.raw("solve_wall_samples", samples + "]");
    rec.raw("end_to_end", metric_object(e2e));
    rec.raw("per_layer", metric_object(layers));
    rec.raw("host", metric_object(host));
    rec.raw("env", metric_object(env));
    rec.raw("env_unset", unset_list + "]");
    Json top;
    top.raw("record", rec.done());
    std::printf("%s\n", top.done().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
