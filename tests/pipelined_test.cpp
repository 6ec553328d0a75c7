// Tests for depth-1 pipelined GMRES (Ghysels et al., paper ref [19]).
#include <cmath>

#include <gtest/gtest.h>

#include "blas/blas1.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/gmres.hpp"
#include "core/pipelined.hpp"
#include "core/solver_common.hpp"
#include "sim/machine.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"

namespace cagmres::core {
namespace {

TEST(Pipelined, ConvergesAndMatchesGmresSolution) {
  const sparse::CsrMatrix a = sparse::make_laplace2d(20, 18, 0.25, 0.3);
  std::vector<double> b(static_cast<std::size_t>(a.n_rows));
  Rng rng(21);
  for (auto& e : b) e = rng.normal();
  const Problem p = make_problem(a, b, 2, graph::Ordering::kNatural, false, 1);
  SolverOptions opts;
  opts.m = 25;
  opts.tol = 1e-8;

  sim::Machine m1(2), m2(2);
  const SolveResult rg = gmres(m1, p, opts);
  const SolveResult rp = pipelined_gmres(m2, p, opts);
  ASSERT_TRUE(rg.stats.converged);
  ASSERT_TRUE(rp.stats.converged);
  // Same Krylov space, CGS-grade recurrence: solutions agree well beyond
  // the solve tolerance.
  for (int i = 0; i < a.n_rows; ++i) {
    EXPECT_NEAR(rp.x[static_cast<std::size_t>(i)],
                rg.x[static_cast<std::size_t>(i)], 1e-5);
  }
  EXPECT_NEAR(rp.stats.restarts, rg.stats.restarts, 1.0);
}

TEST(Pipelined, SolvesAcrossDeviceCounts) {
  const sparse::CsrMatrix a = sparse::make_laplace2d(15, 15, 0.1, 0.4);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  for (int ng = 1; ng <= 3; ++ng) {
    const Problem p =
        make_problem(a, b, ng, graph::Ordering::kNatural, true, 1);
    sim::Machine machine(ng);
    SolverOptions opts;
    opts.m = 20;
    opts.tol = 1e-7;
    const SolveResult res = pipelined_gmres(machine, p, opts);
    EXPECT_TRUE(res.stats.converged) << ng;
    const double rel =
        true_residual(a, b, res.x) / blas::nrm2(a.n_rows, b.data());
    EXPECT_LT(rel, 1e-5) << ng;
  }
}

TEST(Pipelined, FewerMessagesPerIterationThanCgsGmres) {
  // One fused reduction (projections + norm) per iteration vs CGS-GMRES's
  // two separate ones.
  const sparse::CsrMatrix a = sparse::make_laplace2d(20, 20, 0.2, 0.3);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const Problem p = make_problem(a, b, 3, graph::Ordering::kNatural, false, 1);
  SolverOptions opts;
  opts.m = 20;
  opts.max_restarts = 2;
  sim::Machine m1(3), m2(3);
  const auto rg = gmres(m1, p, opts).stats;
  const auto rp = pipelined_gmres(m2, p, opts).stats;
  const double g =
      static_cast<double>(m1.counters().total_msgs()) / std::max(rg.iterations, 1);
  const double pm =
      static_cast<double>(m2.counters().total_msgs()) / std::max(rp.iterations, 1);
  EXPECT_LT(pm, g);
}

TEST(Pipelined, HidesLatencyBetterThanCgsGmresWhenLatencyGrows) {
  const sparse::CsrMatrix a = sparse::make_cant_like(0.25);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const Problem p = make_problem(a, b, 3, graph::Ordering::kNatural, true, 1);
  SolverOptions opts;
  opts.m = 30;
  opts.max_restarts = 2;

  auto ratio_at = [&](double lat_scale) {
    sim::PerfModel pm;
    pm.pcie_latency_s *= lat_scale;
    sim::Machine m1(3, pm), m2(3, pm);
    const auto tg = gmres(m1, p, opts).stats.time_total;
    const auto tp = pipelined_gmres(m2, p, opts).stats.time_total;
    return tg / tp;  // >1 = pipelining wins
  };
  const double low = ratio_at(1.0);
  const double high = ratio_at(10.0);
  EXPECT_GT(high, low);   // the advantage grows with latency
  EXPECT_GT(high, 1.05);  // and is material when latency dominates
}

TEST(Pipelined, HappyBreakdownKeepsTheFinalColumn) {
  // A = I: v_1 = z_0 - v_0 is exactly zero after the first step. The
  // breakdown column [1; 0] is complete and solves the system, so — like
  // GMRES — the cycle must keep it rather than discard it.
  sparse::CooBuilder builder(4, 4);
  for (int i = 0; i < 4; ++i) builder.add(i, i, 1.0);
  const sparse::CsrMatrix a = builder.build();
  const std::vector<double> b(4, 1.0);
  const Problem p = make_problem(a, b, 1, graph::Ordering::kNatural, false, 1);
  SolverOptions opts;
  opts.m = 10;
  opts.tol = 1e-10;
  opts.max_restarts = 20;
  sim::Machine m1(1), m2(1);
  const SolveResult rg = gmres(m1, p, opts);
  const SolveResult rp = pipelined_gmres(m2, p, opts);
  for (const SolveResult* r : {&rg, &rp}) {
    EXPECT_TRUE(r->stats.converged);
    EXPECT_EQ(r->stats.restarts, 1);
    EXPECT_EQ(r->stats.iterations, 1);
    for (const double xi : r->x) EXPECT_NEAR(xi, 1.0, 1e-12);
  }
}

TEST(Pipelined, HonestNonConvergenceUnderCap) {
  const sparse::CsrMatrix a = sparse::make_laplace2d(30, 30);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const Problem p = make_problem(a, b, 1, graph::Ordering::kNatural, true, 1);
  sim::Machine machine(1);
  SolverOptions opts;
  opts.m = 5;
  opts.tol = 1e-12;
  opts.max_restarts = 2;
  const SolveResult res = pipelined_gmres(machine, p, opts);
  EXPECT_FALSE(res.stats.converged);
  EXPECT_EQ(res.stats.restarts, 2);
}

// A cyclic shift: the GMRES residual stays exactly 1 for n iterations, so
// a restarted solve stagnates forever — the watchdog's canonical prey.
Problem make_stagnating_problem(int n, int ng) {
  sparse::CsrMatrix a;
  a.n_rows = n;
  a.n_cols = n;
  a.row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int i = 0; i < n; ++i) {
    a.col_idx.push_back((i + n - 1) % n);
    a.vals.push_back(1.0);
    a.row_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<std::int64_t>(a.col_idx.size());
  }
  std::vector<double> b(static_cast<std::size_t>(n), 0.0);
  b[0] = 1.0;
  return make_problem(a, b, ng, graph::Ordering::kNatural, false, 1);
}

TEST(PipelinedHealth, StagnationWatchdogStopsAHopelessSolve) {
  const Problem p = make_stagnating_problem(64, 2);
  SolverOptions opts;
  opts.m = 20;
  opts.tol = 1e-6;
  opts.max_restarts = 200;
  opts.health.monitor_stagnation = true;
  opts.health.stagnation_window = 2;
  sim::Machine machine(2);
  ErrorCode code = ErrorCode::kBadInput;
  try {
    pipelined_gmres(machine, p, opts);
    FAIL() << "stagnating solve ran to the restart cap";
  } catch (const Error& e) {
    code = e.code();
  }
  // The pipelined recurrence has an empty ladder: a stagnation trip with
  // nothing left to try stops the solve instead of burning 200 restarts.
  EXPECT_EQ(code, ErrorCode::kDeadlineExceeded);
}

TEST(PipelinedHealth, ReportOnlyModeObservesWithoutChangingTheSolve) {
  const sparse::CsrMatrix a = sparse::make_laplace2d(18, 16, 0.2, 0.3);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const Problem p = make_problem(a, b, 2, graph::Ordering::kNatural, false, 1);
  SolverOptions opts;
  opts.m = 25;
  opts.tol = 1e-8;

  sim::Machine m_plain(2);
  const SolveResult plain = pipelined_gmres(m_plain, p, opts);

  opts.health.monitor_stagnation = true;
  opts.health.monitor_residual_gap = true;
  opts.health.escalate = false;  // log, never act
  sim::Machine m_watched(2);
  const SolveResult watched = pipelined_gmres(m_watched, p, opts);

  // The watchdogs read host-side state only: results and simulated times
  // are byte-identical to the unmonitored solve.
  EXPECT_EQ(plain.x, watched.x);
  EXPECT_EQ(plain.stats.time_total, watched.stats.time_total);
  EXPECT_EQ(plain.stats.residual_history, watched.stats.residual_history);
  EXPECT_EQ(m_plain.clock().elapsed(), m_watched.clock().elapsed());
  // ...and monitor 2 actually measured the recurrence/true gap.
  EXPECT_GT(watched.stats.residual_gap, 0.0);
}

TEST(PipelinedHealth, IterationBudgetIsEnforced) {
  const sparse::CsrMatrix a = sparse::make_laplace2d(20, 20, 0.0, 0.01);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const Problem p = make_problem(a, b, 1, graph::Ordering::kNatural, false, 1);
  SolverOptions opts;
  opts.m = 10;
  opts.tol = 1e-12;
  opts.max_restarts = 100;
  opts.health.max_iterations = 15;
  sim::Machine machine(1);
  EXPECT_THROW(pipelined_gmres(machine, p, opts), Error);
}

}  // namespace
}  // namespace cagmres::core
