// Numerical health monitor + escalation ladder tests (core/health.hpp):
// the deterministic rung walk, each monitor's trip conditions, the
// byte-identity of solves whose monitors never charge anything, and the
// acceptance scenarios — a monomial basis pushed past its breaking point
// converging under the ladder, and a stagnating solve exiting with
// kDeadlineExceeded instead of hanging.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas1.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cagmres.hpp"
#include "core/gmres.hpp"
#include "core/health.hpp"
#include "core/solver_common.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"
#include "sparse/generators.hpp"

namespace cagmres {
namespace {

using core::EscalationPolicy;
using core::EscalationStep;
using core::HealthEventKind;
using core::HealthOptions;
using core::LadderCapabilities;
using core::SolveHealthMonitor;
using sim::Machine;

struct TestSystem {
  sparse::CsrMatrix a;
  std::vector<double> b;
  core::Problem p;
};

TestSystem make_system(int ng) {
  TestSystem s;
  s.a = sparse::make_laplace2d(24, 24, 0.1, 0.02);
  s.b.assign(static_cast<std::size_t>(s.a.n_rows), 1.0);
  s.p = core::make_problem(s.a, s.b, ng, graph::Ordering::kNatural, true, 1);
  return s;
}

/// Pure (unshifted) 2D Laplacian: condition ~ grid^2, spectral radius ~ 8,
/// so a monomial s-step basis's R diagonal spans ~8^s — the regime the
/// paper's Fig. 13 shows breaking CholQR at large s.
TestSystem make_hard_system(int ng, int grid = 30) {
  TestSystem s;
  s.a = sparse::make_laplace2d(grid, grid, 0.0, 0.0);
  // A random RHS (unlike the smooth all-ones vector) puts weight on the
  // dominant eigenvector, so the monomial columns really do grow like
  // rho^j; with balancing off the raw spectral radius ~8 is kept and an
  // s=12 block spans ~8^12 in column norm — the regime that breaks CholQR.
  s.b.resize(static_cast<std::size_t>(s.a.n_rows));
  Rng rng(42);
  for (auto& e : s.b) e = rng.normal();
  s.p = core::make_problem(s.a, s.b, ng, graph::Ordering::kNatural,
                           /*balance=*/false, 1);
  return s;
}

/// Cyclic shift (permutation) matrix with b = e1: the classic GMRES
/// stagnation example. Every Krylov vector is a fresh unit coordinate, the
/// least-squares minimizer is y = 0, and the residual stays exactly ||b||
/// for n-1 steps — so restarted GMRES with m < n never moves at all.
TestSystem make_stagnating_system(int n, int ng) {
  TestSystem s;
  s.a.n_rows = n;
  s.a.n_cols = n;
  s.a.row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int i = 0; i < n; ++i) {
    s.a.col_idx.push_back((i + n - 1) % n);  // row i picks up x_{i-1}
    s.a.vals.push_back(1.0);
    s.a.row_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<std::int64_t>(s.a.col_idx.size());
  }
  s.b.assign(static_cast<std::size_t>(n), 0.0);
  s.b[0] = 1.0;
  s.p = core::make_problem(s.a, s.b, ng, graph::Ordering::kNatural,
                           /*balance=*/false, 1);
  return s;
}

core::SolverOptions base_opts() {
  core::SolverOptions o;
  o.m = 30;
  o.s = 6;
  o.tol = 1e-6;
  o.max_restarts = 400;
  return o;
}

double relative_residual(const TestSystem& s, const std::vector<double>& x) {
  return core::true_residual(s.a, s.b, x) /
         blas::nrm2(s.a.n_rows, s.b.data());
}

int count_instants(const Machine& m, const std::string& name) {
  int n = 0;
  for (const auto& e : m.trace().events()) {
    if (e.name == name) ++n;
  }
  return n;
}

std::optional<ErrorCode> solve_error_code(Machine& m, const TestSystem& s,
                                          const core::SolverOptions& o,
                                          bool ca) {
  try {
    if (ca) {
      core::ca_gmres(m, s.p, o);
    } else {
      core::gmres(m, s.p, o);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "solve threw [%s]: %s\n",
                 to_string(e.code()).c_str(), e.what());
    return e.code();
  }
  return std::nullopt;
}

// --- policy / engine unit tests --------------------------------------

TEST(EscalationPolicy, WalksRungsInLadderOrderThenExhausts) {
  LadderCapabilities caps;
  caps.force_reorth = true;
  caps.shrink_s = true;
  caps.rebuild_shifts = true;
  caps.tsqr_switches = 2;
  caps.fallback_gmres = true;
  EscalationPolicy policy(caps);
  EXPECT_EQ(policy.next(), EscalationStep::kForceReorth);
  EXPECT_EQ(policy.next(), EscalationStep::kShrinkS);
  EXPECT_EQ(policy.next(), EscalationStep::kRebuildShifts);
  EXPECT_EQ(policy.next(), EscalationStep::kSwitchTsqr);
  EXPECT_EQ(policy.next(), EscalationStep::kSwitchTsqr);
  EXPECT_FALSE(policy.exhausted());
  EXPECT_EQ(policy.next(), EscalationStep::kFallbackGmres);
  EXPECT_TRUE(policy.exhausted());
  EXPECT_EQ(policy.next(), EscalationStep::kNone);
  EXPECT_EQ(policy.next(), EscalationStep::kNone);
}

TEST(EscalationPolicy, GmresLadderIsJustTheOrthSwitch) {
  LadderCapabilities caps;
  caps.switch_orth = true;
  EscalationPolicy policy(caps);
  EXPECT_EQ(policy.next(), EscalationStep::kSwitchOrth);
  EXPECT_EQ(policy.next(), EscalationStep::kNone);
}

TEST(HealthOptions, AnyReflectsEveryMonitor) {
  HealthOptions h;
  EXPECT_FALSE(h.any());
  h.monitor_condition = true;
  EXPECT_TRUE(h.any());
  h = HealthOptions{};
  h.monitor_residual_gap = true;
  EXPECT_TRUE(h.any());
  h = HealthOptions{};
  h.monitor_stagnation = true;
  EXPECT_TRUE(h.any());
  // The sample cadence alone arms nothing.
  h = HealthOptions{};
  h.condition_sample_every = 1;
  EXPECT_FALSE(h.any());
}

TEST(SolveHealthMonitor, FalseConvergenceTrip) {
  Machine m(1);
  HealthOptions h;
  h.monitor_residual_gap = true;
  SolveHealthMonitor hm(m, h, LadderCapabilities{});
  // Recurrence claimed convergence, truth disagrees: must trip even though
  // the gap itself is below the plain gap limit.
  const HealthEventKind trip = hm.check_residual_gap(
      /*true_res=*/2e-4, /*recurrence_res=*/5e-5, /*claimed_converged=*/true,
      /*still_unconverged=*/true, 1, 30);
  EXPECT_EQ(trip, HealthEventKind::kFalseConvergence);
  ASSERT_EQ(hm.events().size(), 1u);
  EXPECT_EQ(hm.events()[0].kind, HealthEventKind::kFalseConvergence);
  EXPECT_NEAR(hm.residual_gap_last(), 4.0, 1e-12);
}

TEST(SolveHealthMonitor, GapTripAndStatsTracking) {
  Machine m(1);
  HealthOptions h;
  h.monitor_residual_gap = true;
  SolveHealthMonitor hm(m, h, LadderCapabilities{});
  // The gap limit is 10: a 9.5x gap clears it, a 10.5x gap trips it.
  EXPECT_EQ(hm.check_residual_gap(9.5, 1.0, false, true, 0, 0),
            HealthEventKind::kNone);
  EXPECT_EQ(hm.check_residual_gap(10.5, 1.0, false, true, 1, 0),
            HealthEventKind::kResidualGap);
  EXPECT_EQ(hm.check_residual_gap(1.0, 0.01, false, true, 2, 0),
            HealthEventKind::kResidualGap);
  EXPECT_NEAR(hm.residual_gap_last(), 100.0, 1e-9);
  EXPECT_NEAR(hm.residual_gap_max(), 100.0, 1e-9);
  EXPECT_EQ(hm.check_residual_gap(2.0, 1.0, false, true, 3, 0),
            HealthEventKind::kNone);
  EXPECT_NEAR(hm.residual_gap_last(), 2.0, 1e-12);
  EXPECT_NEAR(hm.residual_gap_max(), 100.0, 1e-9);
  // No recurrence estimate available -> no check, stats unchanged.
  EXPECT_EQ(hm.check_residual_gap(1.0, -1.0, false, true, 4, 0),
            HealthEventKind::kNone);
  EXPECT_NEAR(hm.residual_gap_last(), 2.0, 1e-12);
}

TEST(SolveHealthMonitor, StagnationAndDivergenceTrips) {
  // The window is 4 restarts and the residual must shrink by more than 10%
  // over it; divergence is 1000x past the best-so-far.
  Machine m(1);
  HealthOptions h;
  h.monitor_stagnation = true;
  {
    SolveHealthMonitor hm(m, h, LadderCapabilities{});
    // Four flat restarts fill the window without judging it...
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(hm.check_progress(1.0, r, 0), HealthEventKind::kNone);
    }
    // ... and the fifth, only 9% below the one four restarts ago, trips.
    EXPECT_EQ(hm.check_progress(0.91, 4, 0), HealthEventKind::kStagnation);
  }
  {
    SolveHealthMonitor hm(m, h, LadderCapabilities{});
    EXPECT_EQ(hm.check_progress(1.0, 0, 0), HealthEventKind::kNone);
    EXPECT_EQ(hm.check_progress(0.99, 1, 0), HealthEventKind::kNone);
    EXPECT_EQ(hm.check_progress(0.98, 2, 0), HealthEventKind::kNone);
    EXPECT_EQ(hm.check_progress(0.97, 3, 0), HealthEventKind::kNone);
    // 11% over the window clears it, at every later restart too.
    EXPECT_EQ(hm.check_progress(0.89, 4, 0), HealthEventKind::kNone);
    EXPECT_EQ(hm.check_progress(0.85, 5, 0), HealthEventKind::kNone);
    // 800x the best-so-far (0.85) is not divergence (the window trips
    // instead); 1200x is.
    EXPECT_EQ(hm.check_progress(680.0, 6, 0), HealthEventKind::kStagnation);
    EXPECT_EQ(hm.check_progress(1020.0, 7, 0), HealthEventKind::kDivergence);
  }
}

TEST(SolveHealthMonitor, EscalateBurnsInapplicableRungsInOrder) {
  Machine m(1);
  HealthOptions h;
  h.monitor_stagnation = true;
  LadderCapabilities caps;
  caps.force_reorth = true;
  caps.shrink_s = true;
  caps.fallback_gmres = true;
  SolveHealthMonitor hm(m, h, caps);
  // force_reorth is reported not-applicable: the walk must burn it and land
  // on shrink_s, never revisiting the burnt rung.
  const auto skip_reorth = [](EscalationStep s) {
    return s != EscalationStep::kForceReorth;
  };
  EXPECT_EQ(hm.escalate(HealthEventKind::kStagnation, 1.0, 0, 0, skip_reorth),
            EscalationStep::kShrinkS);
  EXPECT_EQ(hm.escalate(HealthEventKind::kStagnation, 1.0, 9, 0, skip_reorth),
            EscalationStep::kFallbackGmres);
  EXPECT_EQ(hm.escalate(HealthEventKind::kStagnation, 1.0, 18, 0, skip_reorth),
            EscalationStep::kNone);
  // Events: escalation, escalation, ladder_exhausted.
  ASSERT_EQ(hm.events().size(), 3u);
  EXPECT_EQ(hm.events()[0].action, EscalationStep::kShrinkS);
  EXPECT_EQ(hm.events()[1].action, EscalationStep::kFallbackGmres);
  EXPECT_EQ(hm.events()[2].kind, HealthEventKind::kLadderExhausted);
}

TEST(SolveHealthMonitor, ConditionMonitorTripsOnBadRDiagonal) {
  Machine m(1);
  HealthOptions h;
  h.monitor_condition = true;
  h.condition_sample_every = 0;  // free estimate only
  SolveHealthMonitor hm(m, h, LadderCapabilities{});
  sim::DistMultiVec v({4}, 3);
  blas::DMat r(3, 3);
  r(0, 0) = 1.0;
  r(1, 1) = 1.0;
  // The limit is 1e7: a 1e3 diagonal ratio (and 1e6) is healthy...
  r(2, 2) = 1e-3;
  EXPECT_EQ(hm.check_block(r, v, 0, 3, 0, 6), HealthEventKind::kNone);
  r(2, 2) = 1e-6;
  EXPECT_EQ(hm.check_block(r, v, 0, 3, 0, 9), HealthEventKind::kNone);
  // ... a 1e9 ratio trips.
  r(2, 2) = 1e-9;
  EXPECT_EQ(hm.check_block(r, v, 0, 3, 0, 12),
            HealthEventKind::kConditionTrip);
  // A zero diagonal entry means numerically dependent columns: inf, trip.
  r(2, 2) = 0.0;
  EXPECT_EQ(hm.check_block(r, v, 0, 3, 0, 18),
            HealthEventKind::kConditionTrip);
}

// --- byte-identity ----------------------------------------------------

TEST(HealthOff, DefaultOptionsChargeAndComputeNothingExtra) {
  const TestSystem s = make_system(3);
  const core::SolverOptions opts = base_opts();
  ASSERT_FALSE(opts.health.any());

  Machine m1(3);
  const core::SolveResult r1 = core::ca_gmres(m1, s.p, opts);
  EXPECT_TRUE(r1.stats.health_events.empty());
  EXPECT_EQ(r1.stats.ladder_steps, 0);
  EXPECT_EQ(r1.stats.residual_gap, 0.0);

  // The free monitors (gap guard + stagnation watchdog) only read numbers
  // the solver already has on the host; armed on a healthy solve that never
  // trips them, the solve must stay byte-identical in results AND
  // simulated time.
  core::SolverOptions armed = opts;
  armed.health.monitor_residual_gap = true;
  armed.health.monitor_stagnation = true;
  ASSERT_TRUE(armed.health.any());
  Machine m2(3);
  const core::SolveResult r2 = core::ca_gmres(m2, s.p, armed);

  EXPECT_EQ(r1.x, r2.x);
  EXPECT_EQ(r1.stats.time_total, r2.stats.time_total);
  EXPECT_EQ(r1.stats.iterations, r2.stats.iterations);
  EXPECT_EQ(r1.stats.residual_history, r2.stats.residual_history);
  EXPECT_EQ(m1.clock().elapsed(), m2.clock().elapsed());
  EXPECT_EQ(r2.stats.ladder_steps, 0);
  EXPECT_TRUE(r2.stats.health_events.empty());
  // ... and the armed run now reports the (healthy) residual gap.
  EXPECT_GT(r2.stats.residual_gap, 0.0);
}

TEST(HealthOff, GmresFreeMonitorsAreByteIdentical) {
  const TestSystem s = make_system(2);
  const core::SolverOptions opts = base_opts();
  Machine m1(2);
  const core::SolveResult r1 = core::gmres(m1, s.p, opts);

  core::SolverOptions armed = opts;
  armed.health.monitor_residual_gap = true;
  armed.health.monitor_stagnation = true;
  Machine m2(2);
  const core::SolveResult r2 = core::gmres(m2, s.p, armed);

  EXPECT_EQ(r1.x, r2.x);
  EXPECT_EQ(r1.stats.time_total, r2.stats.time_total);
  EXPECT_EQ(r1.stats.residual_history, r2.stats.residual_history);
  EXPECT_EQ(m1.clock().elapsed(), m2.clock().elapsed());
  EXPECT_TRUE(r2.stats.health_events.empty());
}

// --- acceptance: ladder rescues a broken monomial basis ---------------

TEST(Ladder, RescuesMonomialBasisAtLargeS) {
  // s = 15 monomial on a 40x40 pure Laplacian: the first block's R diagonal
  // already spans > 1e7, and single-pass CGS as the in-block TSQR (which,
  // unlike CholQR, never signals a breakdown that would force a second
  // pass) keeps losing orthogonality, so within an 8-restart budget the
  // unmonitored solve cannot reach 1e-6. The monitors must notice, the
  // ladder must land it, and the walk must be recorded.
  const TestSystem s = make_hard_system(3, /*grid=*/40);

  core::SolverOptions opts;
  opts.m = 45;
  opts.s = 15;
  opts.tol = 1e-6;
  opts.max_restarts = 8;
  opts.basis = core::Basis::kMonomial;
  opts.tsqr = ortho::Method::kCgs;
  opts.reorthogonalize = false;

  // Control: with no monitors the degraded basis burns the whole restart
  // budget without converging.
  {
    Machine control(3);
    const core::SolveResult bare = core::ca_gmres(control, s.p, opts);
    ASSERT_FALSE(bare.stats.converged);
  }

  opts.health.monitor_condition = true;
  opts.health.monitor_residual_gap = true;
  opts.health.monitor_stagnation = true;

  Machine machine(3);
  const core::SolveResult res = core::ca_gmres(machine, s.p, opts);
  EXPECT_TRUE(res.stats.converged);
  EXPECT_LT(relative_residual(s, res.x), 1e-5);
  EXPECT_GT(res.stats.ladder_steps, 0);
  ASSERT_FALSE(res.stats.health_events.empty());
  // The log must contain at least one trip and the matching escalation.
  bool saw_trip = false;
  bool saw_action = false;
  for (const auto& e : res.stats.health_events) {
    if (e.kind == HealthEventKind::kConditionTrip ||
        e.kind == HealthEventKind::kStagnation ||
        e.kind == HealthEventKind::kResidualGap ||
        e.kind == HealthEventKind::kFalseConvergence) {
      saw_trip = true;
    }
    if (e.kind == HealthEventKind::kEscalation) {
      EXPECT_NE(e.action, EscalationStep::kNone);
      saw_action = true;
    }
  }
  EXPECT_TRUE(saw_trip);
  EXPECT_TRUE(saw_action);
}

TEST(Ladder, ArmedSolveIsDeterministic) {
  const TestSystem s = make_hard_system(3);

  core::SolverOptions opts;
  opts.m = 36;
  opts.s = 12;
  opts.tol = 1e-6;
  opts.max_restarts = 400;
  opts.basis = core::Basis::kMonomial;
  opts.tsqr = ortho::Method::kCgs;  // no breakdown signal: the ladder acts
  opts.health.monitor_condition = true;
  opts.health.monitor_stagnation = true;

  Machine m1(3);
  const core::SolveResult r1 = core::ca_gmres(m1, s.p, opts);
  Machine m2(3);
  const core::SolveResult r2 = core::ca_gmres(m2, s.p, opts);
  EXPECT_EQ(r1.x, r2.x);
  EXPECT_EQ(r1.stats.time_total, r2.stats.time_total);
  EXPECT_GT(r1.stats.ladder_steps, 0);
  EXPECT_EQ(r1.stats.ladder_steps, r2.stats.ladder_steps);
  ASSERT_EQ(r1.stats.health_events.size(), r2.stats.health_events.size());
  for (std::size_t i = 0; i < r1.stats.health_events.size(); ++i) {
    EXPECT_EQ(r1.stats.health_events[i].kind, r2.stats.health_events[i].kind);
    EXPECT_EQ(r1.stats.health_events[i].action,
              r2.stats.health_events[i].action);
    EXPECT_EQ(r1.stats.health_events[i].time, r2.stats.health_events[i].time);
  }
}

// --- acceptance: deadlines and stagnation exit cleanly ----------------

TEST(Deadline, MachineWatchdogStopsCaGmresAndMarksTrace) {
  // The one simulated-time bound on a solve is the machine watchdog.
  const TestSystem s = make_system(3);
  core::SolverOptions opts = base_opts();
  opts.tol = 1e-14;  // unreachable: would run to max_restarts
  Machine machine(3);
  machine.enable_trace();
  machine.set_deadline(1e-4);  // a fraction of one restart
  EXPECT_EQ(solve_error_code(machine, s, opts, /*ca=*/true),
            ErrorCode::kDeadlineExceeded);
  // SolveStats dies with the throw; the trace marker survives it.
  EXPECT_EQ(count_instants(machine, "watchdog:deadline"), 1);
}

TEST(Stagnation, SingularSystemExitsWithDeadlineNotHang) {
  // The dead row makes progress below ||e_dead|| impossible; without the
  // watchdog this runs all max_restarts. With it, GMRES trips stagnation,
  // downshifts CGS -> MGS, trips again, finds the ladder exhausted, and
  // exits with kDeadlineExceeded — in a handful of restarts.
  const TestSystem s = make_stagnating_system(64, 2);
  core::SolverOptions opts = base_opts();
  opts.max_restarts = 200;
  opts.health.monitor_stagnation = true;
  Machine machine(2);
  machine.enable_trace();
  EXPECT_EQ(solve_error_code(machine, s, opts, /*ca=*/false),
            ErrorCode::kDeadlineExceeded);
  // The ladder actually acted (CGS -> MGS) before giving up.
  EXPECT_EQ(count_instants(machine, "health:escalate:switch_orth"), 1);
  EXPECT_GE(count_instants(machine, "health:ladder_exhausted"), 1);
}

TEST(Stagnation, CaGmresWalksItsFullLadderThenExits) {
  const TestSystem s = make_stagnating_system(64, 2);
  core::SolverOptions opts = base_opts();
  opts.max_restarts = 200;
  opts.health.monitor_stagnation = true;
  Machine machine(2);
  machine.enable_trace();
  EXPECT_EQ(solve_error_code(machine, s, opts, /*ca=*/true),
            ErrorCode::kDeadlineExceeded);
  // The terminal rung (standard-GMRES fallback) must have been reached
  // before the ladder was declared exhausted.
  EXPECT_EQ(count_instants(machine, "health:escalate:fallback_gmres"), 1);
  EXPECT_GE(count_instants(machine, "health:ladder_exhausted"), 1);
}

// --- false-convergence guard on a real solve --------------------------

TEST(ResidualGap, HealthySolveReportsGapNearOne) {
  const TestSystem s = make_system(3);
  core::SolverOptions opts = base_opts();
  opts.health.monitor_residual_gap = true;
  Machine machine(3);
  const core::SolveResult res = core::ca_gmres(machine, s.p, opts);
  EXPECT_TRUE(res.stats.converged);
  EXPECT_GT(res.stats.residual_gap, 0.0);
  EXPECT_LT(res.stats.residual_gap_max, 10.0);  // recurrence tracked truth
  EXPECT_GE(res.stats.recurrence_residual, 0.0);
}

TEST(ResidualGap, DriftedRecurrenceTripsTheGuardInSolve) {
  // Regression for silent false convergence: single-pass CGS as the block
  // orthogonalizer loses orthogonality on the hard monomial basis (the
  // paper's Fig. 13 "CGS needs 2x" case), so the recurrence residual
  // drifts from the explicitly computed one. With a long restart (m = 160)
  // the drift passes the 10x gap limit — before the guard existed this
  // mismatch was invisible: the solver just kept restarting off bad LS
  // solves, and within a 16-restart budget it never gets there.
  const TestSystem s = make_hard_system(3, /*grid=*/50);

  core::SolverOptions opts;
  opts.m = 160;
  opts.s = 24;
  opts.tol = 1e-6;
  opts.max_restarts = 16;
  opts.basis = core::Basis::kMonomial;
  opts.tsqr = ortho::Method::kCgs;
  opts.reorthogonalize = false;

  // Control: unmonitored, the drifting recurrence burns the budget.
  {
    Machine control(3);
    const core::SolveResult bare = core::ca_gmres(control, s.p, opts);
    ASSERT_FALSE(bare.stats.converged);
  }

  opts.health.monitor_residual_gap = true;
  Machine machine(3);
  const core::SolveResult res = core::ca_gmres(machine, s.p, opts);
  bool saw_gap_trip = false;
  for (const auto& e : res.stats.health_events) {
    if (e.kind == HealthEventKind::kResidualGap) saw_gap_trip = true;
  }
  EXPECT_TRUE(saw_gap_trip);
  EXPECT_GT(res.stats.residual_gap_max, 10.0);
  // The trip walked the ladder, and the solve finished honestly: converged
  // means the TRUE residual met the tolerance at a restart boundary.
  EXPECT_GT(res.stats.ladder_steps, 0);
  EXPECT_TRUE(res.stats.converged);
  EXPECT_LT(relative_residual(s, res.x), 1e-5);
}

// --- kShrinkS x Newton interaction -----------------------------------

TEST(Ladder, ShrinkSPersistsAndNewtonShiftsStayConsistent) {
  // The Newton basis never breaks CholQR on this system — that is its
  // whole point — so the shrink is induced through the ladder: with
  // reorthogonalize already on, the force-reorth rung is unavailable and
  // the first condition trip goes straight to kShrinkS. At s = 30 even the
  // Newton block's R diagonal spans > 1e7 (~3e8), past the condition
  // limit. The shrunk blocks keep clipping the Newton shift train (pair
  // demotion), which shifts_consistent asserts internally, and nothing
  // grows s back.
  const TestSystem s = make_hard_system(3);

  core::SolverOptions opts;
  opts.m = 60;
  opts.s = 30;
  opts.tol = 1e-8;
  opts.max_restarts = 400;
  opts.basis = core::Basis::kNewton;
  opts.reorthogonalize = true;  // burns the force-reorth rung
  opts.health.monitor_condition = true;
  opts.health.condition_sample_every = 0;  // free estimate only

  Machine machine(3);
  const core::SolveResult res = core::ca_gmres(machine, s.p, opts);
  EXPECT_TRUE(res.stats.converged);
  EXPECT_LT(relative_residual(s, res.x), 1e-7);
  // The shrink rung fired...
  bool shrank = false;
  for (const auto& e : res.stats.health_events) {
    if (e.action == EscalationStep::kShrinkS) shrank = true;
  }
  EXPECT_TRUE(shrank);
  // ...some block actually ran shorter than s...
  const std::vector<int>& sizes = res.stats.block_sizes;
  const auto first_shrunk = std::find_if(
      sizes.begin(), sizes.end(), [&](int bs) { return bs < opts.s; });
  ASSERT_NE(first_shrunk, sizes.end());
  // ...and the shrink persisted: no later block is larger than that one.
  for (auto it = first_shrunk + 1; it != sizes.end(); ++it) {
    EXPECT_LE(*it, *first_shrunk) << "block " << (it - sizes.begin());
  }
}

TEST(Ladder, CursorSurvivesCheckpointRollback) {
  // A device kill mid-solve makes the solver repartition, restore the
  // checkpointed x, and replay the restart — and the replayed cycle trips
  // the condition monitor all over again. The EscalationPolicy cursor must
  // NOT rewind with the rollback: rungs already consumed stay consumed, so
  // the ladder keeps making forward progress instead of re-trying
  // force-reorth after every fault.
  const TestSystem s = make_hard_system(3, /*grid=*/40);

  core::SolverOptions opts;
  opts.m = 45;
  opts.s = 15;
  opts.tol = 1e-6;
  opts.max_restarts = 8;
  opts.basis = core::Basis::kMonomial;
  opts.tsqr = ortho::Method::kCgs;  // no breakdown signal: the ladder acts
  opts.reorthogonalize = false;

  // Control: unmonitored, the same fault schedule leaves the solve short
  // of the tolerance within the budget.
  {
    Machine control(3);
    sim::parse_fault_spec("kill:d1@op=400", control.fault_injector());
    const core::SolveResult bare = core::ca_gmres(control, s.p, opts);
    ASSERT_FALSE(bare.stats.converged);
  }

  opts.health.monitor_condition = true;
  opts.health.monitor_residual_gap = true;
  opts.health.monitor_stagnation = true;

  Machine machine(3);
  sim::parse_fault_spec("kill:d1@op=400", machine.fault_injector());
  const core::SolveResult res = core::ca_gmres(machine, s.p, opts);

  // The fault actually fired and forced a rollback...
  EXPECT_EQ(machine.n_devices(), 2);
  EXPECT_EQ(res.stats.recovery.device_failures, 1);
  EXPECT_GE(res.stats.recovery.rollbacks, 1);
  // ...and the ladder still acted (the same trips as the fault-free run).
  EXPECT_GT(res.stats.ladder_steps, 0);

  // Pin the cursor semantics: single-shot rungs fire at most once across
  // the whole solve (rollback included), and the action sequence never
  // steps back down the ladder.
  auto rung_index = [](EscalationStep a) {
    switch (a) {
      case EscalationStep::kForceReorth: return 0;
      case EscalationStep::kShrinkS: return 1;
      case EscalationStep::kRebuildShifts: return 2;
      case EscalationStep::kSwitchTsqr: return 3;
      case EscalationStep::kSwitchOrth: return 4;
      case EscalationStep::kFallbackGmres: return 5;
      case EscalationStep::kNone: return 6;
    }
    return 6;
  };
  int n_force_reorth = 0, n_shrink = 0, n_rebuild = 0, n_fallback = 0;
  int last_rung = -1;
  for (const auto& e : res.stats.health_events) {
    if (e.kind != HealthEventKind::kEscalation) continue;
    n_force_reorth += e.action == EscalationStep::kForceReorth;
    n_shrink += e.action == EscalationStep::kShrinkS;
    n_rebuild += e.action == EscalationStep::kRebuildShifts;
    n_fallback += e.action == EscalationStep::kFallbackGmres;
    EXPECT_GE(rung_index(e.action), last_rung)
        << "ladder stepped backwards after the rollback: "
        << core::to_string(e.action);
    last_rung = rung_index(e.action);
  }
  EXPECT_LE(n_force_reorth, 1);
  EXPECT_LE(n_shrink, 1);
  EXPECT_LE(n_rebuild, 1);
  EXPECT_LE(n_fallback, 1);
}

}  // namespace
}  // namespace cagmres
