#include "sim/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "blas/blas1.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cagmres.hpp"
#include "core/gmres.hpp"
#include "core/pipelined.hpp"
#include "core/solver_common.hpp"
#include "precond/precond.hpp"
#include "sparse/generators.hpp"

namespace cagmres::sim {

namespace {

std::string fmt_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// FNV-1a over a byte range, chained through `h`.
std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv1a_double(double v, std::uint64_t h) {
  return fnv1a(&v, sizeof(v), h);
}

}  // namespace

std::string to_string(ChaosSolver s) {
  switch (s) {
    case ChaosSolver::kCaGmres:
      return "ca_gmres";
    case ChaosSolver::kGmres:
      return "gmres";
    case ChaosSolver::kPrecondCaGmres:
      return "precond_ca_gmres";
    case ChaosSolver::kPrecondGmres:
      return "precond_gmres";
    case ChaosSolver::kPipelined:
      return "pipelined_gmres";
  }
  return "?";
}

ChaosSolver parse_chaos_solver(const std::string& name) {
  if (name == "ca") return ChaosSolver::kCaGmres;
  if (name == "pipelined") return ChaosSolver::kPipelined;
  for (const ChaosSolver s :
       {ChaosSolver::kCaGmres, ChaosSolver::kGmres,
        ChaosSolver::kPrecondCaGmres, ChaosSolver::kPrecondGmres,
        ChaosSolver::kPipelined}) {
    if (name == to_string(s)) return s;
  }
  throw Error("unknown chaos solver '" + name +
                  "' (ca | gmres | pipelined | ca_gmres | pipelined_gmres | "
                  "precond_ca_gmres | precond_gmres)",
              ErrorCode::kBadInput);
}

namespace {

bool is_precond(ChaosSolver s) {
  return s == ChaosSolver::kPrecondCaGmres || s == ChaosSolver::kPrecondGmres;
}

bool is_ca(ChaosSolver s) {
  return s == ChaosSolver::kCaGmres || s == ChaosSolver::kPrecondCaGmres;
}

}  // namespace

std::string to_string(ChaosOutcome o) {
  switch (o) {
    case ChaosOutcome::kConverged:
      return "converged";
    case ChaosOutcome::kUnconverged:
      return "unconverged";
    case ChaosOutcome::kCleanError:
      return "clean_error";
    case ChaosOutcome::kWatchdog:
      return "watchdog";
  }
  return "?";
}

bool ChaosSchedule::armed() const {
  return !events.empty() || rates.kernel_nan > 0.0 ||
         rates.transfer_corrupt > 0.0 || rates.transfer_stall > 0.0 ||
         rates.link_corrupt > 0.0 || rates.link_stall > 0.0 ||
         (rates.node_corrupt > 0.0 && rates.corrupt_node >= 0);
}

std::string ChaosSchedule::to_spec() const {
  std::string out = "seed=" + std::to_string(seed);
  out += ";stall_us=" + fmt_double(stall_us);
  for (const FaultEvent& e : events) {
    out += ";" + to_string(e.kind) + ":";
    // A node kill's device field names a NODE, rendered n<k>.
    const char prefix = e.kind == FaultKind::kNodeFail ? 'n' : 'd';
    out += e.device < 0 ? "*" : prefix + std::to_string(e.device);
    if (e.at_time >= 0.0) {
      out += "@t=" + fmt_double(e.at_time);  // bare number = seconds
    } else {
      out += "@op=" + std::to_string(e.at_op);
    }
  }
  if (rates.kernel_nan > 0.0) out += ";nan:p=" + fmt_double(rates.kernel_nan);
  if (rates.transfer_corrupt > 0.0) {
    out += ";corrupt:p=" + fmt_double(rates.transfer_corrupt);
  }
  if (rates.transfer_stall > 0.0) {
    out += ";stall:p=" + fmt_double(rates.transfer_stall);
  }
  if (rates.link_corrupt > 0.0) {
    out += ";linkcorrupt:p=" + fmt_double(rates.link_corrupt);
  }
  if (rates.link_stall > 0.0) {
    out += ";linkstall:p=" + fmt_double(rates.link_stall);
  }
  if (rates.node_corrupt > 0.0 && rates.corrupt_node >= 0) {
    out += ";nodecorrupt:n" + std::to_string(rates.corrupt_node) +
           "@p=" + fmt_double(rates.node_corrupt);
  }
  return out;
}

void ChaosSchedule::arm(FaultInjector& fi) const {
  fi.set_seed(seed);
  fi.set_stall_seconds(stall_us * 1e-6);
  for (FaultEvent e : events) {
    e.fired = false;
    fi.schedule(e);
  }
  fi.set_rates(rates);
}

ChaosSchedule ChaosSchedule::from_spec(const std::string& spec) {
  FaultInjector fi;
  parse_fault_spec(spec, fi);
  ChaosSchedule out;
  out.seed = fi.seed();
  // Recover stall_us from the text, not via seconds: the us -> s -> us
  // conversion chain is lossy in the last ulp and would break the
  // to_spec/from_spec fixed point.
  const std::size_t pos = spec.find("stall_us=");
  out.stall_us = pos != std::string::npos
                     ? std::strtod(spec.c_str() + pos + 9, nullptr)
                     : fi.stall_seconds() * 1e6;
  out.events = fi.events();
  out.rates = fi.rates();
  return out;
}

// ---------------------------------------------------------------------

struct ChaosRunner::Impl {
  ChaosConfig cfg;
  sparse::CsrMatrix a;       ///< original (unprepared) system — the oracle
  std::vector<double> b;     ///< checks the TRUE residual against it
  double b_norm = 0.0;
  core::Problem prob;
  precond::PrecondSpec pspec;  ///< parsed cfg.precond (kNone when empty)

  struct Baseline {
    std::uint64_t fingerprint = 0;
    double elapsed = 0.0;
  };
  /// Fault-free fingerprints per (solver, workers) configuration.
  std::map<int, Baseline> baselines;
  bool baselines_ready = false;
  double time_hint = 0.0;  ///< slowest fault-free run (scales triggers)
  double deadline = 0.0;   ///< watchdog armed on every faulty run

  explicit Impl(const ChaosConfig& c) : cfg(c) {
    a = cfg.matrix.empty()
            ? sparse::make_laplace2d(cfg.nx, cfg.ny, 0.1, 0.02)
            : sparse::make_paper_matrix(cfg.matrix, cfg.matrix_scale);
    b.assign(static_cast<std::size_t>(a.n_rows), 1.0);
    b_norm = blas::nrm2(a.n_rows, b.data());
    prob = core::make_problem(a, b, cfg.n_devices, graph::Ordering::kNatural,
                              true, 1);
    pspec = precond::parse_precond_spec(cfg.precond);
  }

  /// Applies the configured multi-node topology to a fresh machine (no-op
  /// for the flat default, so single-node campaigns are byte-identical to
  /// the pre-topology engine).
  void shape(Machine& m) const {
    if (cfg.n_nodes > 1) {
      m.set_topology(cfg.n_nodes, cfg.n_devices / cfg.n_nodes);
    }
  }

  core::SolverOptions solver_opts() const {
    core::SolverOptions o;
    o.m = cfg.m;
    o.s = cfg.s;
    o.tol = cfg.tol;
    o.max_restarts = cfg.max_restarts;
    o.min_devices = cfg.min_devices;
    return o;
  }

  int config_key(ChaosSolver solver, int workers) const {
    return static_cast<int>(solver) * 1000 + workers;
  }

  /// The campaign's driver roster: the unpreconditioned solvers, widened
  /// by the preconditioned pair when a spec is armed.
  std::vector<ChaosSolver> roster() const {
    std::vector<ChaosSolver> out = {ChaosSolver::kCaGmres};
    if (cfg.both_solvers) {
      out.push_back(ChaosSolver::kGmres);
      out.push_back(ChaosSolver::kPipelined);
    }
    if (pspec.armed()) {
      out.push_back(ChaosSolver::kPrecondCaGmres);
      if (cfg.both_solvers) out.push_back(ChaosSolver::kPrecondGmres);
    }
    return out;
  }

  ChaosSolver solver_for(int index) const {
    const std::vector<ChaosSolver> r = roster();
    return r[static_cast<std::size_t>(index) % r.size()];
  }

  /// Runs the solver on an already-armed machine and applies the per-run
  /// half of the oracle. Never throws: every escape is classified.
  ChaosRunResult run_with(Machine& m, ChaosSolver solver) {
    ChaosRunResult r;
    const double t0 = m.clock().elapsed();
    core::SolveResult sr;
    bool have_x = false;
    // A fresh handle per run: its build/rebuild sequence is a pure function
    // of the run (same schedule + same machine state => same factors), so
    // the same-seed replay after Machine::reset stays bit-identical even
    // across mid-solve repartition rebuilds.
    precond::PrecondHandle handle(pspec);
    core::SolverOptions opts = solver_opts();
    if (is_precond(solver)) opts.precond = &handle;
    try {
      if (is_ca(solver)) {
        sr = core::ca_gmres(m, prob, opts);
      } else if (solver == ChaosSolver::kPipelined) {
        sr = core::pipelined_gmres(m, prob, opts);
      } else {
        sr = core::gmres(m, prob, opts);
      }
      have_x = true;
      r.outcome =
          sr.stats.converged ? ChaosOutcome::kConverged : ChaosOutcome::kUnconverged;
      r.degraded = sr.stats.degraded.active;
      r.final_residual = sr.stats.final_residual;
      r.traffic = sr.stats.traffic;
    } catch (const Error& e) {
      r.error_code = to_string(e.code());
      if (e.code() == ErrorCode::kDeadlineExceeded && m.deadline() > 0.0 &&
          m.clock().elapsed() > m.deadline()) {
        r.outcome = ChaosOutcome::kWatchdog;
      } else if (e.code() == ErrorCode::kBadInput) {
        r.outcome = ChaosOutcome::kCleanError;
        r.violation = "solver rejected its own input mid-run: " +
                      std::string(e.what());
      } else {
        r.outcome = ChaosOutcome::kCleanError;
      }
    } catch (const std::exception& e) {
      r.outcome = ChaosOutcome::kCleanError;
      r.error_code = "untyped";
      r.violation = "untyped exception escaped the solver: " +
                    std::string(e.what());
    }
    r.elapsed = m.clock().elapsed() - t0;
    r.device_failures = m.fault_injector().stats().device_failures;

    if (have_x) {
      for (const double v : sr.x) {
        if (!std::isfinite(v)) {
          r.violation = "solver returned a non-finite solution";
          break;
        }
      }
      if (r.violation.empty() && r.outcome == ChaosOutcome::kConverged) {
        // The solver claimed convergence: hold it to the TRUE residual of
        // the original system (generous slack for fault-perturbed paths —
        // a false claim is orders of magnitude off).
        const double rel = core::true_residual(a, b, sr.x) / b_norm;
        if (!(rel <= cfg.tol * 100.0)) {
          r.violation =
              "claimed convergence but true relative residual is " +
              fmt_double(rel);
        }
      }
    }

    // Fingerprint: solution bytes + terminal state + charged time.
    std::uint64_t h = 1469598103934665603ULL;
    if (have_x) h = fnv1a(sr.x.data(), sr.x.size() * sizeof(double), h);
    const int oc = static_cast<int>(r.outcome);
    h = fnv1a(&oc, sizeof(oc), h);
    h = fnv1a(r.error_code.data(), r.error_code.size(), h);
    h = fnv1a_double(r.elapsed, h);
    if (have_x) {
      h = fnv1a(&sr.stats.restarts, sizeof(sr.stats.restarts), h);
      h = fnv1a(&sr.stats.iterations, sizeof(sr.stats.iterations), h);
      const int deg = r.degraded ? 1 : 0;
      h = fnv1a(&deg, sizeof(deg), h);
    }
    r.fingerprint = h;
    return r;
  }

  void ensure_baselines() {
    if (baselines_ready) return;
    const ChaosSchedule none;  // unarmed: the byte-identity reference
    for (const ChaosSolver solver : roster()) {
      for (const int w : cfg.worker_counts) {
        Machine m(cfg.n_devices);
        shape(m);
        m.set_host_workers(w);
        none.arm(m.fault_injector());
        const ChaosRunResult r = run_with(m, solver);
        CAGMRES_REQUIRE(r.outcome == ChaosOutcome::kConverged &&
                            r.violation.empty(),
                        "chaos baseline run failed to converge");
        baselines[config_key(solver, w)] = {r.fingerprint, r.elapsed};
        time_hint = std::max(time_hint, r.elapsed);
      }
    }
    deadline = cfg.deadline_factor * time_hint;
    baselines_ready = true;
  }

  /// Full oracle for one schedule/solver over every configuration.
  std::vector<ChaosViolation> collect(const ChaosSchedule& sched,
                                      ChaosSolver solver, int index,
                                      ChaosCampaignStats* stats) {
    ensure_baselines();
    std::vector<ChaosViolation> out;
    auto flag = [&](int w, const std::string& what) {
      out.push_back({index, solver, w, what, sched.to_spec()});
    };
    for (const int w : cfg.worker_counts) {
      Machine m(cfg.n_devices);
      shape(m);
      m.set_host_workers(w);
      sched.arm(m.fault_injector());
      if (sched.armed()) m.set_deadline(deadline);
      const ChaosRunResult r1 = run_with(m, solver);
      if (stats != nullptr) {
        ++stats->runs;
        switch (r1.outcome) {
          case ChaosOutcome::kConverged: ++stats->converged; break;
          case ChaosOutcome::kUnconverged: ++stats->unconverged; break;
          case ChaosOutcome::kCleanError: ++stats->clean_errors; break;
          case ChaosOutcome::kWatchdog: ++stats->watchdogs; break;
        }
        if (r1.degraded) ++stats->degraded;
        stats->traffic += r1.traffic;
      }
      if (!r1.violation.empty()) flag(w, r1.violation);
      if (cfg.demo_bug_kills >= 0 &&
          r1.device_failures >= cfg.demo_bug_kills) {
        flag(w, "[demo oracle] observed " +
                    std::to_string(r1.device_failures) +
                    " device kills (threshold " +
                    std::to_string(cfg.demo_bug_kills) + ")");
      }
      if (cfg.check_replay) {
        m.reset();
        const ChaosRunResult r2 = run_with(m, solver);
        if (r2.fingerprint != r1.fingerprint) {
          flag(w, "same-seed replay diverged (fingerprint " +
                      std::to_string(r1.fingerprint) + " vs " +
                      std::to_string(r2.fingerprint) + ")");
        }
      }
      if (!sched.armed()) {
        const Baseline& base = baselines.at(config_key(solver, w));
        if (r1.fingerprint != base.fingerprint) {
          flag(w, "zero-fault schedule diverged from baseline");
        }
      }
    }
    return out;
  }
};

ChaosRunner::ChaosRunner(const ChaosConfig& cfg)
    : impl_(std::make_unique<Impl>(cfg)) {
  CAGMRES_REQUIRE(cfg.n_devices >= 1 && !cfg.worker_counts.empty(),
                  "chaos: empty configuration");
  CAGMRES_REQUIRE(cfg.n_nodes >= 1 && cfg.n_devices % cfg.n_nodes == 0,
                  "chaos: n_nodes must divide n_devices");
}

ChaosRunner::~ChaosRunner() = default;

const ChaosConfig& ChaosRunner::config() const { return impl_->cfg; }

ChaosSchedule ChaosRunner::generate(std::uint64_t campaign_seed, int index) {
  impl_->ensure_baselines();
  const double hint = impl_->time_hint;
  ChaosSchedule s;
  // Every 8th schedule is zero-fault: those pin the armed-but-empty layer
  // to the unarmed baseline bytes.
  if (index % 8 == 0) return s;

  Rng g(campaign_seed ^
        (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(index) + 1)));
  s.seed = g.next_u64() & 0xffffffffULL;  // must survive the spec round-trip
  s.stall_us = g.uniform(50.0, 500.0);

  auto rand_device = [&]() {
    return g.uniform() < 0.4
               ? -1
               : static_cast<int>(g.bounded(
                     static_cast<std::uint64_t>(impl_->cfg.n_devices)));
  };
  auto rand_op = [&]() {
    // Log-uniform op trigger: early, mid and late faults all likely.
    return static_cast<std::int64_t>(
        std::exp(g.uniform(std::log(10.0), std::log(20000.0))));
  };
  auto push_event = [&](FaultKind kind, int device, double at_time,
                        std::int64_t at_op) {
    FaultEvent e;
    e.kind = kind;
    e.device = device;
    e.at_time = at_time;
    e.at_op = at_op;
    s.events.push_back(e);
  };

  const int nn = impl_->cfg.n_nodes;
  auto rand_node = [&]() {
    return g.uniform() < 0.3
               ? -1
               : static_cast<int>(g.bounded(static_cast<std::uint64_t>(nn)));
  };

  // Permanent kills: none (50%), one (30%), or a cascading cluster (20%)
  // whose members land close enough together that the later kills hit the
  // checkpoint-restart of the earlier ones. On a multi-node topology a
  // third of the kill schedules are atomic whole-node kills instead —
  // including clusters where a second node dies mid-recovery of the first
  // (the partner-checkpoint double-loss path).
  const double kill_roll = g.uniform();
  if (kill_roll >= 0.5) {
    const int kills = kill_roll < 0.8 ? 1 : 2 + static_cast<int>(g.bounded(2));
    const bool node_kill = nn > 1 && g.uniform() < 1.0 / 3.0;
    const FaultKind kkind =
        node_kill ? FaultKind::kNodeFail : FaultKind::kDeviceFail;
    auto target = [&]() { return node_kill ? rand_node() : rand_device(); };
    if (g.uniform() < 0.4) {  // op-triggered
      std::int64_t op = rand_op();
      for (int i = 0; i < kills; ++i) {
        push_event(kkind, target(), -1.0, op);
        op += 1 + static_cast<std::int64_t>(g.bounded(200));
      }
    } else {  // time-triggered cluster
      double t = g.uniform(0.02, 1.0) * hint;
      for (int i = 0; i < kills; ++i) {
        push_event(kkind, target(), t, -1);
        t += g.uniform(0.0, 0.15) * hint;
      }
    }
  }

  // Transient one-shot events.
  const int transients = static_cast<int>(g.bounded(4));
  for (int i = 0; i < transients; ++i) {
    const std::uint64_t pick = g.bounded(3);
    const FaultKind kind = pick == 0   ? FaultKind::kKernelNan
                           : pick == 1 ? FaultKind::kTransferCorrupt
                                       : FaultKind::kTransferStall;
    if (g.uniform() < 0.5) {
      push_event(kind, rand_device(), g.uniform(0.0, 1.2) * hint, -1);
    } else {
      push_event(kind, rand_device(), -1.0, rand_op());
    }
  }

  // Continuous rates (half of the schedules).
  if (g.uniform() < 0.5) {
    if (g.uniform() < 0.5) s.rates.kernel_nan = g.uniform(0.0, 0.002);
    if (g.uniform() < 0.5) {
      // Mostly survivable drizzle; occasionally a storm strong enough to
      // exhaust the transfer retry budget.
      s.rates.transfer_corrupt = g.uniform() < 0.15 ? g.uniform(0.5, 0.9)
                                                    : g.uniform(0.0, 0.03);
    }
    if (g.uniform() < 0.5) s.rates.transfer_stall = g.uniform(0.0, 0.05);
  }

  // Node- and link-scoped rates (multi-node topologies only): degradation
  // of the inter-node links, and corrupt storms pinned to one node.
  if (nn > 1 && g.uniform() < 0.4) {
    if (g.uniform() < 0.5) s.rates.link_corrupt = g.uniform(0.0, 0.05);
    if (g.uniform() < 0.5) s.rates.link_stall = g.uniform(0.0, 0.08);
    if (g.uniform() < 0.4) {
      s.rates.corrupt_node =
          static_cast<int>(g.bounded(static_cast<std::uint64_t>(nn)));
      s.rates.node_corrupt = g.uniform(0.0, 0.05);
    }
  }

  if (!s.armed()) {
    // Degenerate draw: keep the schedule interesting with one transient.
    push_event(FaultKind::kKernelNan, rand_device(), -1.0, rand_op());
  }
  return s;
}

std::vector<ChaosViolation> ChaosRunner::run_schedule(
    const ChaosSchedule& schedule, int index) {
  return impl_->collect(schedule, impl_->solver_for(index), index, nullptr);
}

std::vector<ChaosViolation> ChaosRunner::run_schedule(
    const ChaosSchedule& schedule, ChaosSolver solver) {
  const std::vector<ChaosSolver> r = impl_->roster();
  if (std::find(r.begin(), r.end(), solver) == r.end()) {
    throw Error("chaos: solver " + to_string(solver) +
                    " is not in this configuration's roster",
                ErrorCode::kBadInput);
  }
  return impl_->collect(schedule, solver, 0, nullptr);
}

ChaosCampaignStats ChaosRunner::run_campaign(
    std::uint64_t campaign_seed, int n_schedules,
    const std::function<void(int, const ChaosSchedule&,
                             const std::vector<ChaosViolation>&)>& progress) {
  ChaosCampaignStats stats;
  for (int i = 0; i < n_schedules; ++i) {
    const ChaosSchedule sched = generate(campaign_seed, i);
    ++stats.schedules;
    if (!sched.armed()) ++stats.zero_fault;
    const std::vector<ChaosViolation> v =
        impl_->collect(sched, impl_->solver_for(i), i, &stats);
    stats.violations.insert(stats.violations.end(), v.begin(), v.end());
    if (progress) progress(i, sched, v);
  }
  return stats;
}

ChaosRunResult ChaosRunner::run_one(const ChaosSchedule& schedule,
                                    ChaosSolver solver, int workers) {
  impl_->ensure_baselines();
  Machine m(impl_->cfg.n_devices);
  impl_->shape(m);
  m.set_host_workers(workers);
  schedule.arm(m.fault_injector());
  if (schedule.armed()) m.set_deadline(impl_->deadline);
  return impl_->run_with(m, solver);
}

bool ChaosRunner::violates(const ChaosSchedule& schedule, ChaosSolver solver) {
  return !impl_->collect(schedule, solver, -1, nullptr).empty();
}

ChaosSchedule ChaosRunner::minimize(
    const ChaosSchedule& schedule,
    const std::function<bool(const ChaosSchedule&)>& still_violates) {
  CAGMRES_REQUIRE(still_violates(schedule),
                  "minimize: the schedule does not violate the oracle");
  ChaosSchedule cur = schedule;

  // Phase 1: ddmin over the event list (Zeller's algorithm: try each chunk
  // alone, then each complement, refining granularity until 1-minimal).
  auto chunk = [](const std::vector<FaultEvent>& ev, std::size_t i,
                  std::size_t n, bool complement) {
    std::vector<FaultEvent> out;
    const std::size_t lo = ev.size() * i / n;
    const std::size_t hi = ev.size() * (i + 1) / n;
    for (std::size_t k = 0; k < ev.size(); ++k) {
      const bool inside = k >= lo && k < hi;
      if (inside != complement) out.push_back(ev[k]);
    }
    return out;
  };
  std::size_t n = 2;
  while (cur.events.size() >= 2) {
    if (n > cur.events.size()) n = cur.events.size();
    const std::size_t before = cur.events.size();
    bool reduced = false;
    for (int complement = 0; complement < 2 && !reduced; ++complement) {
      for (std::size_t i = 0; i < n && !reduced; ++i) {
        ChaosSchedule cand = cur;
        cand.events = chunk(cur.events, i, n, complement != 0);
        if (cand.events.size() >= before) continue;
        if (still_violates(cand)) {
          cur = cand;
          n = complement != 0 ? std::max<std::size_t>(n - 1, 2) : 2;
          reduced = true;
        }
      }
    }
    if (!reduced) {
      if (n >= cur.events.size()) break;
      n = std::min(2 * n, cur.events.size());
    }
  }
  if (!cur.events.empty()) {
    ChaosSchedule cand = cur;
    cand.events.clear();
    if (still_violates(cand)) cur = cand;
  }

  // Phase 2: zero each continuous rate that is not needed.
  const auto try_zero = [&](double FaultRates::* field) {
    if (cur.rates.*field == 0.0) return;
    ChaosSchedule cand = cur;
    cand.rates.*field = 0.0;
    if (still_violates(cand)) cur = cand;
  };
  try_zero(&FaultRates::kernel_nan);
  try_zero(&FaultRates::transfer_corrupt);
  try_zero(&FaultRates::transfer_stall);
  try_zero(&FaultRates::link_corrupt);
  try_zero(&FaultRates::link_stall);
  try_zero(&FaultRates::node_corrupt);
  return cur;
}

ChaosSchedule ChaosRunner::minimize(const ChaosSchedule& schedule,
                                    ChaosSolver solver) {
  return minimize(schedule, [this, solver](const ChaosSchedule& s) {
    return violates(s, solver);
  });
}

}  // namespace cagmres::sim
