// Chaos engine tests: deterministic schedule generation, --faults spec
// round-trips, the simulated watchdog, the graceful-degradation floor, the
// invariant oracle on zero-fault schedules, and the ddmin minimizer.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas1.hpp"
#include "common/error.hpp"
#include "core/cagmres.hpp"
#include "core/gmres.hpp"
#include "core/solver_common.hpp"
#include "precond/precond.hpp"
#include "sim/chaos.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"
#include "sparse/generators.hpp"

#include "kill_probe.hpp"

namespace cagmres {
namespace {

using sim::ChaosConfig;
using sim::ChaosOutcome;
using sim::ChaosRunner;
using sim::ChaosSchedule;
using sim::ChaosSolver;
using sim::FaultEvent;
using sim::FaultKind;
using sim::Machine;

/// A slim config for the unit tests: one solver, one worker count, so
/// each oracle check costs two solves (run + replay).
ChaosConfig slim_config() {
  ChaosConfig cfg;
  cfg.worker_counts = {0};
  cfg.both_solvers = false;
  return cfg;
}

TEST(ChaosGenerate, SameSeedSameIndexIsIdentical) {
  ChaosRunner a(slim_config());
  ChaosRunner b(slim_config());
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(a.generate(7, i).to_spec(), b.generate(7, i).to_spec());
  }
  EXPECT_NE(a.generate(7, 1).to_spec(), a.generate(7, 2).to_spec());
  EXPECT_NE(a.generate(7, 1).to_spec(), a.generate(8, 1).to_spec());
}

TEST(ChaosGenerate, EveryEighthScheduleIsZeroFault) {
  ChaosRunner r(slim_config());
  EXPECT_FALSE(r.generate(7, 0).armed());
  EXPECT_FALSE(r.generate(7, 8).armed());
  EXPECT_TRUE(r.generate(7, 1).armed());
}

TEST(ChaosSpec, RoundTripsThroughTheFaultsGrammar) {
  ChaosRunner r(slim_config());
  for (int i = 0; i < 24; ++i) {
    const ChaosSchedule s = r.generate(3, i);
    const std::string spec = s.to_spec();
    EXPECT_EQ(ChaosSchedule::from_spec(spec).to_spec(), spec) << spec;
  }
}

TEST(ChaosSpec, HandRoundTripKeepsEventOrderAndRates) {
  const std::string spec =
      "seed=42;stall_us=125;kill:*@t=0.001;kill:*@t=0.001;"
      "nan:d2@op=99;corrupt:p=0.69999999999999996";
  const ChaosSchedule s = ChaosSchedule::from_spec(spec);
  ASSERT_EQ(s.events.size(), 3u);
  EXPECT_EQ(s.events[0].kind, FaultKind::kDeviceFail);
  EXPECT_EQ(s.events[1].kind, FaultKind::kDeviceFail);
  EXPECT_EQ(s.events[2].kind, FaultKind::kKernelNan);
  EXPECT_EQ(s.events[2].device, 2);
  EXPECT_EQ(ChaosSchedule::from_spec(s.to_spec()).to_spec(), s.to_spec());
}

TEST(ChaosSpec, NodeScopedFaultsRoundTrip) {
  // The node-scoped grammar: atomic node kills (n<k> or wildcard targets),
  // inter-node link rates, and the node-targeted corrupt storm all survive
  // spec -> schedule -> spec.
  const std::string spec =
      "seed=9;nodekill:n1@op=600;nodekill:*@t=0.002;"
      "linkcorrupt:p=0.03;linkstall:p=0.0625;nodecorrupt:n0@p=0.015625";
  const ChaosSchedule s = ChaosSchedule::from_spec(spec);
  ASSERT_EQ(s.events.size(), 2u);
  EXPECT_EQ(s.events[0].kind, FaultKind::kNodeFail);
  EXPECT_EQ(s.events[0].device, 1);  // the *node* id for kNodeFail
  EXPECT_EQ(s.events[1].device, -1);
  EXPECT_EQ(s.rates.link_corrupt, 0.03);
  EXPECT_EQ(s.rates.link_stall, 0.0625);
  EXPECT_EQ(s.rates.node_corrupt, 0.015625);
  EXPECT_EQ(s.rates.corrupt_node, 0);
  EXPECT_EQ(ChaosSchedule::from_spec(s.to_spec()).to_spec(), s.to_spec());
}

TEST(ChaosGenerate, MultiNodeCampaignMixesNodeFaultsSingleNodeUnchanged) {
  // n_nodes > 1 mixes node kills and link rates into generated schedules;
  // every new RNG draw is short-circuit-guarded, so the single-node stream
  // (and thus every existing campaign) is byte-identical to before.
  ChaosConfig multi = slim_config();
  multi.n_nodes = 2;
  ChaosRunner m(multi);
  ChaosRunner flat(slim_config());
  bool saw_node_fault = false;
  for (int i = 1; i < 48; ++i) {
    const ChaosSchedule s = m.generate(3, i);
    for (const FaultEvent& e : s.events) {
      saw_node_fault |= e.kind == FaultKind::kNodeFail;
    }
    saw_node_fault |= s.rates.link_corrupt > 0.0 ||
                      s.rates.link_stall > 0.0 || s.rates.node_corrupt > 0.0;
    const std::string spec = s.to_spec();
    EXPECT_EQ(ChaosSchedule::from_spec(spec).to_spec(), spec) << spec;
    // The flat generator never emits node-scoped faults.
    const ChaosSchedule f = flat.generate(3, i);
    for (const FaultEvent& e : f.events) {
      EXPECT_NE(e.kind, FaultKind::kNodeFail);
    }
    EXPECT_EQ(f.rates.link_corrupt, 0.0);
  }
  EXPECT_TRUE(saw_node_fault);
}

TEST(ChaosCampaign, MultiNodeSmokeCampaignIsViolationFree) {
  ChaosConfig cfg = slim_config();
  cfg.n_devices = 4;
  cfg.n_nodes = 2;
  ChaosRunner r(cfg);
  const auto stats = r.run_campaign(7, 9);
  EXPECT_EQ(stats.schedules, 9);
  EXPECT_EQ(stats.runs, 9);
  EXPECT_TRUE(stats.violations.empty());
  EXPECT_EQ(stats.converged + stats.unconverged + stats.clean_errors +
                stats.watchdogs,
            stats.runs);
}

TEST(Watchdog, DeadlineTripsAsTypedError) {
  const auto a = sparse::make_laplace2d(24, 24, 0.1, 0.02);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const auto p = core::make_problem(a, b, 3, graph::Ordering::kNatural,
                                    true, 1);
  Machine machine(3);
  machine.set_deadline(1e-6);  // far below any full solve
  core::SolverOptions opts;
  opts.m = 30;
  opts.tol = 1e-6;
  opts.max_restarts = 400;
  try {
    core::gmres(machine, p, opts);
    FAIL() << "a 1us deadline must trip the watchdog";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded) << e.what();
  }
  EXPECT_GT(machine.clock().elapsed(), 1e-6);
  // Disarmed machines never trip, and reset() keeps the configuration.
  machine.reset();
  EXPECT_DOUBLE_EQ(machine.deadline(), 1e-6);
  machine.set_deadline(0.0);
  const auto res = core::gmres(machine, p, opts);
  EXPECT_TRUE(res.stats.converged);
}

TEST(DegradationFloor, LosingEveryDeviceHandsOffToCpuGmres) {
  const auto a = sparse::make_laplace2d(24, 24, 0.1, 0.02);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const auto p = core::make_problem(a, b, 3, graph::Ordering::kNatural,
                                    true, 1);
  core::SolverOptions opts;
  opts.m = 30;
  opts.s = 6;
  opts.tol = 1e-6;
  opts.max_restarts = 400;
  Machine clean(sim::Topology{1, 3});
  core::ca_gmres(clean, p, opts);

  // One node of three devices: the node kill takes every device at once,
  // so no survivor is left to repartition onto. The node's devices run
  // ~396 ops in the fault-free solve: op 200 lands mid-solve.
  Machine machine(sim::Topology{1, 3});
  sim::parse_fault_spec("nodekill:n0@op=200", machine.fault_injector());
  const auto res = core::ca_gmres(machine, p, opts);
  EXPECT_TRUE(res.stats.converged);
  ASSERT_TRUE(res.stats.degraded.active);
  EXPECT_EQ(res.stats.degraded.devices_at_handoff, 3);
  EXPECT_NE(res.stats.degraded.reason.find("floor"), std::string::npos);
  const double rel =
      core::true_residual(a, b, res.x) / blas::nrm2(a.n_rows, b.data());
  EXPECT_LT(rel, 1e-5);
  EXPECT_TRUE(test::kill_landed_mid_solve(machine, clean));
}

TEST(ChaosOracle, ZeroFaultScheduleMatchesBaselineBytes) {
  ChaosRunner r(slim_config());
  const ChaosSchedule zero = r.generate(7, 0);
  ASSERT_FALSE(zero.armed());
  EXPECT_TRUE(r.run_schedule(zero, 0).empty());
}

TEST(ChaosOracle, FaultyScheduleRunsCleanAndReplaysIdentically) {
  ChaosRunner r(slim_config());
  const ChaosSchedule s =
      ChaosSchedule::from_spec("seed=5;kill:*@t=2ms;nan:p=0.001");
  EXPECT_TRUE(r.run_schedule(s, 1).empty());
  const auto one = r.run_one(s, ChaosSolver::kCaGmres, 0);
  EXPECT_TRUE(one.violation.empty()) << one.violation;
  EXPECT_EQ(one.outcome, ChaosOutcome::kConverged);
  EXPECT_GE(one.device_failures, 1);
}

TEST(ChaosMinimize, SyntheticPredicateReachesOneMinimalEvent) {
  ChaosRunner r(slim_config());
  // A noisy 6-event schedule whose "bug" is any kill aimed at device 1.
  ChaosSchedule s = ChaosSchedule::from_spec(
      "seed=11;nan:d0@op=50;stall:*@t=1ms;kill:d1@op=100;corrupt:d2@op=30;"
      "nan:*@t=2ms;stall:d0@op=900;nan:p=0.001;stall:p=0.01");
  int probes = 0;
  const auto predicate = [&](const ChaosSchedule& cand) {
    ++probes;
    for (const FaultEvent& e : cand.events) {
      if (e.kind == FaultKind::kDeviceFail && e.device == 1) return true;
    }
    return false;
  };
  const ChaosSchedule min = r.minimize(s, predicate);
  ASSERT_EQ(min.events.size(), 1u);
  EXPECT_EQ(min.events[0].kind, FaultKind::kDeviceFail);
  EXPECT_EQ(min.events[0].device, 1);
  EXPECT_EQ(min.rates.kernel_nan, 0.0);   // rates zeroed away
  EXPECT_EQ(min.rates.transfer_stall, 0.0);
  EXPECT_GT(probes, 1);
}

TEST(ChaosMinimize, RejectsNonViolatingInput) {
  ChaosRunner r(slim_config());
  const ChaosSchedule s;
  EXPECT_THROW(
      r.minimize(s, [](const ChaosSchedule&) { return false; }), Error);
}

TEST(ChaosCampaign, SmokeCampaignIsViolationFree) {
  ChaosConfig cfg = slim_config();
  cfg.check_replay = true;
  ChaosRunner r(cfg);
  const auto stats = r.run_campaign(7, 9);
  EXPECT_EQ(stats.schedules, 9);
  EXPECT_EQ(stats.zero_fault, 2);  // indices 0 and 8
  EXPECT_EQ(stats.runs, 9);
  EXPECT_TRUE(stats.violations.empty());
  EXPECT_EQ(stats.converged + stats.unconverged + stats.clean_errors +
                stats.watchdogs,
            stats.runs);
}

TEST(ChaosDemoOracle, SeededBugMinimizesToAtMostThreeEvents) {
  // The acceptance drill: plant a deliberately broken oracle (any device
  // kill is a "violation"), find a violating schedule, and check ddmin
  // brings the reproducer down to <= 3 events.
  ChaosConfig cfg = slim_config();
  cfg.demo_bug_kills = 1;
  ChaosRunner r(cfg);
  ChaosSchedule bad;
  bool found = false;
  for (int i = 1; i < 32 && !found; ++i) {
    const ChaosSchedule s = r.generate(7, i);
    if (r.violates(s, ChaosSolver::kCaGmres)) {
      bad = s;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no schedule tripped the demo oracle";
  const ChaosSchedule min = r.minimize(bad, ChaosSolver::kCaGmres);
  EXPECT_LE(min.events.size(), 3u);
  EXPECT_TRUE(r.violates(min, ChaosSolver::kCaGmres));
  bool has_kill = false;
  for (const FaultEvent& e : min.events) {
    if (e.kind == FaultKind::kDeviceFail) has_kill = true;
  }
  EXPECT_TRUE(has_kill);
}

// --- GMRES in the alternation -----------------------------------------

TEST(ChaosGmres, FaultyScheduleRecoversAndReplaysBitIdentically) {
  // GMRES runs on the shared restart driver, so a device kill must
  // repartition and a NaN drizzle roll back like CA-GMRES, and a same-seed
  // rerun must reproduce the run bit for bit.
  ChaosConfig cfg = slim_config();
  cfg.both_solvers = true;  // roster {ca, gmres}: index 1
  ChaosRunner r(cfg);
  EXPECT_EQ(to_string(ChaosSolver::kGmres), "gmres");
  const ChaosSchedule s =
      ChaosSchedule::from_spec("seed=5;kill:*@t=2ms;nan:p=0.001");
  EXPECT_TRUE(r.run_schedule(s, 1).empty());  // includes the reset replay
  const auto one = r.run_one(s, ChaosSolver::kGmres, 0);
  const auto two = r.run_one(s, ChaosSolver::kGmres, 0);
  EXPECT_TRUE(one.violation.empty()) << one.violation;
  EXPECT_EQ(one.outcome, ChaosOutcome::kConverged);
  EXPECT_GE(one.device_failures, 1);
  EXPECT_EQ(one.fingerprint, two.fingerprint);
}

TEST(ChaosReplay, NamedSolverReplaysTheScheduleOnThatSolver) {
  // The one-schedule replay (tools/chaos --faults=... --solver=gmres)
  // must run the named solver, not the roster's first. The demo oracle
  // flags every run, so the violations name the solver that ran.
  ChaosConfig cfg = slim_config();
  cfg.both_solvers = true;
  cfg.demo_bug_kills = 0;
  ChaosRunner r(cfg);
  const ChaosSchedule s = ChaosSchedule::from_spec("seed=5;nan:p=0.001");
  for (const ChaosSolver solver :
       {ChaosSolver::kGmres, ChaosSolver::kCaGmres}) {
    const auto v = r.run_schedule(s, solver);
    ASSERT_FALSE(v.empty());
    for (const auto& e : v) EXPECT_EQ(e.solver, solver) << e.what;
  }
  // A solver outside the configured roster has no baseline to check.
  ChaosRunner ca_only(slim_config());
  EXPECT_THROW(ca_only.run_schedule(s, ChaosSolver::kGmres), Error);
}

TEST(ChaosReplay, SolverNamesParseAndUnknownOnesAreRejected) {
  for (const ChaosSolver solver :
       {ChaosSolver::kCaGmres, ChaosSolver::kGmres,
        ChaosSolver::kPrecondCaGmres, ChaosSolver::kPrecondGmres}) {
    EXPECT_EQ(sim::parse_chaos_solver(to_string(solver)), solver);
  }
  EXPECT_EQ(sim::parse_chaos_solver("ca"), ChaosSolver::kCaGmres);
  for (const char* bad :
       {"both", "pipe", "", "GMRES", "pipelined", "pipelined_gmres"}) {
    try {
      sim::parse_chaos_solver(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadInput);
    }
  }
}

// --- preconditioned drivers in the alternation ------------------------

TEST(ChaosPrecond, CampaignWithIluDriversIsViolationFree) {
  // An armed precond spec widens the slim roster to {ca, precond_ca}: half
  // the schedules chaos the right-preconditioned driver — kills and NaN
  // storms land inside ILU setup and the trisolve kernels — and
  // the full oracle (sanctioned terminal state, true-residual check on
  // convergence claims, same-seed replay bit-identity across the handle's
  // repartition rebuilds, zero-fault baseline bytes) must stay clean.
  ChaosConfig cfg = slim_config();
  cfg.precond = "ilu";
  ChaosRunner r(cfg);
  const auto stats = r.run_campaign(7, 10);
  EXPECT_EQ(stats.schedules, 10);
  EXPECT_EQ(stats.runs, 10);
  EXPECT_TRUE(stats.violations.empty()) << stats.violations.front().what;
  EXPECT_EQ(stats.converged + stats.unconverged + stats.clean_errors +
                stats.watchdogs,
            stats.runs);
}

TEST(ChaosPrecond, KillAndCorruptStormSurvivePreconditionedRuns) {
  ChaosConfig cfg = slim_config();
  cfg.precond = "ilu";
  ChaosRunner r(cfg);
  // An early op-triggered kill (lands around preconditioner setup of the
  // first restart) plus a transfer-corrupt drizzle; index 1 selects the
  // preconditioned CA-GMRES slot of the widened roster.
  const ChaosSchedule s =
      ChaosSchedule::from_spec("seed=5;kill:*@op=10;corrupt:p=0.01");
  EXPECT_TRUE(r.run_schedule(s, 1).empty());
  const auto one = r.run_one(s, ChaosSolver::kPrecondCaGmres, 0);
  EXPECT_TRUE(one.violation.empty()) << one.violation;
  EXPECT_GE(one.device_failures, 1);
  // The preconditioned GMRES variant holds up under the same schedule.
  const auto two = r.run_one(s, ChaosSolver::kPrecondGmres, 0);
  EXPECT_TRUE(two.violation.empty()) << two.violation;

  // The kill must land inside each solve, not after it converged: rerun
  // both on machines the test can inspect, with the runner's problem and
  // options (its elapsed time pins the mirror to the runner's run).
  const sparse::CsrMatrix a =
      sparse::make_laplace2d(cfg.nx, cfg.ny, 0.1, 0.02);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const auto p = core::make_problem(a, b, cfg.n_devices,
                                    graph::Ordering::kNatural, true, 1);
  for (const auto& [ca, run] :
       {std::pair{true, &one}, std::pair{false, &two}}) {
    auto solve = [&](Machine& m) {
      precond::PrecondHandle handle(precond::parse_precond_spec(cfg.precond));
      core::SolverOptions opts;
      opts.m = cfg.m;
      opts.s = cfg.s;
      opts.tol = cfg.tol;
      opts.max_restarts = cfg.max_restarts;
      opts.precond = &handle;
      return ca ? core::ca_gmres(m, p, opts) : core::gmres(m, p, opts);
    };
    Machine clean(cfg.n_devices);
    solve(clean);
    Machine machine(cfg.n_devices);
    s.arm(machine.fault_injector());
    solve(machine);
    EXPECT_EQ(machine.clock().elapsed(), run->elapsed) << "ca=" << ca;
    EXPECT_TRUE(test::kill_landed_mid_solve(machine, clean)) << "ca=" << ca;
  }
}

TEST(ChaosPrecond, EmptySpecKeepsRosterAndBytesUnchanged) {
  // No spec: solver_for must keep the historical 2-cycle and the runs'
  // fingerprints must match a pre-widening runner bit for bit.
  ChaosRunner plain(slim_config());
  ChaosConfig cfg = slim_config();
  cfg.precond = "none";  // parses to kNone: also unarmed
  ChaosRunner none(cfg);
  const ChaosSchedule s =
      ChaosSchedule::from_spec("seed=5;kill:*@t=2ms;nan:p=0.001");
  const auto a = plain.run_one(s, ChaosSolver::kCaGmres, 0);
  const auto b = none.run_one(s, ChaosSolver::kCaGmres, 0);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

}  // namespace
}  // namespace cagmres
