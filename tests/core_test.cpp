// Unit tests for the core solver machinery: Newton/Leja shifts, Hessenberg
// recovery, problem preparation, and the GMRES / CA-GMRES / CPU-GMRES
// solvers on small systems.
#include <algorithm>
#include <cmath>
#include <complex>

#include <gtest/gtest.h>

#include "blas/blas1.hpp"
#include "blas/blas3.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cagmres.hpp"
#include "core/cpu_gmres.hpp"
#include "core/gmres.hpp"
#include "core/hessenberg.hpp"
#include "core/shifts.hpp"
#include "core/solver_common.hpp"
#include "sparse/generators.hpp"

namespace cagmres::core {
namespace {

using sparse::CsrMatrix;

std::vector<double> ones_rhs(int n) {
  return std::vector<double>(static_cast<std::size_t>(n), 1.0);
}

TEST(Shifts, LejaFirstIsLargestAndPairsAdjacent) {
  std::vector<std::complex<double>> vals = {
      {1.0, 0.0}, {0.5, 2.0}, {0.5, -2.0}, {-3.0, 0.0}, {0.1, 0.0}};
  const Shifts s = leja_order(vals);
  ASSERT_EQ(s.size(), 5);
  EXPECT_DOUBLE_EQ(s.re[0], -3.0);  // largest magnitude first
  EXPECT_DOUBLE_EQ(s.im[0], 0.0);
  // The complex pair appears adjacently, +im then -im.
  for (int k = 0; k < s.size(); ++k) {
    if (s.im[static_cast<std::size_t>(k)] > 0.0) {
      ASSERT_LT(k + 1, s.size());
      EXPECT_DOUBLE_EQ(s.im[static_cast<std::size_t>(k) + 1],
                       -s.im[static_cast<std::size_t>(k)]);
      EXPECT_DOUBLE_EQ(s.re[static_cast<std::size_t>(k) + 1],
                       s.re[static_cast<std::size_t>(k)]);
    }
  }
}

TEST(Shifts, LejaMaximizesDistanceGreedily) {
  // On the real line {0, 1, 10}: start at 10, then 0 (distance 10), then 1.
  std::vector<std::complex<double>> vals = {{0., 0.}, {1., 0.}, {10., 0.}};
  const Shifts s = leja_order(vals);
  EXPECT_DOUBLE_EQ(s.re[0], 10.0);
  EXPECT_DOUBLE_EQ(s.re[1], 0.0);
  EXPECT_DOUBLE_EQ(s.re[2], 1.0);
}

TEST(Shifts, NewtonShiftsCycleAndDemoteStraddlingPairs) {
  std::vector<std::complex<double>> ritz = {{2.0, 1.0}, {2.0, -1.0}};
  // s = 3: pair + wrapped first member, which must degrade to real.
  const Shifts s = newton_shifts(ritz, 3);
  ASSERT_EQ(s.size(), 3);
  EXPECT_DOUBLE_EQ(s.im[0], 1.0);
  EXPECT_DOUBLE_EQ(s.im[1], -1.0);
  EXPECT_DOUBLE_EQ(s.im[2], 0.0);  // wrapped pair-first demoted
}

TEST(Shifts, BlockShiftsDemoteTrailingPairFirst) {
  Shifts s;
  s.re = {1.0, 1.0, 2.0};
  s.im = {0.5, -0.5, 0.0};
  const Shifts b1 = block_shifts(s, 1);  // cuts inside the pair
  EXPECT_DOUBLE_EQ(b1.im[0], 0.0);
  const Shifts b2 = block_shifts(s, 2);
  EXPECT_DOUBLE_EQ(b2.im[0], 0.5);
  EXPECT_DOUBLE_EQ(b2.im[1], -0.5);
}

TEST(Shifts, ConsistencyPredicateAcceptsIntactPairsOnly) {
  Shifts good;
  good.re = {1.0, 1.0, 2.0};
  good.im = {0.5, -0.5, 0.0};
  EXPECT_TRUE(shifts_consistent(good));

  Shifts orphan_open;  // +im with no conjugate following
  orphan_open.re = {1.0, 2.0};
  orphan_open.im = {0.5, 0.0};
  EXPECT_FALSE(shifts_consistent(orphan_open));

  Shifts orphan_close;  // -im with no conjugate preceding
  orphan_close.re = {2.0, 1.0};
  orphan_close.im = {0.0, -0.5};
  EXPECT_FALSE(shifts_consistent(orphan_close));

  Shifts mismatched;  // pair with different real parts
  mismatched.re = {1.0, 3.0};
  mismatched.im = {0.5, -0.5};
  EXPECT_FALSE(shifts_consistent(mismatched));
}

TEST(Shifts, BlockShiftsAlwaysProduceConsistentTrains) {
  // Every clip length of a train mixing reals and pairs must come out
  // pair-consistent (the CA block loop relies on this at every block).
  Shifts s;
  s.re = {2.0, 1.0, 1.0, 0.5, 0.5, -1.0};
  s.im = {0.0, 0.7, -0.7, 0.3, -0.3, 0.0};
  for (int len = 1; len <= 6; ++len) {
    const Shifts b = block_shifts(s, len);
    EXPECT_TRUE(shifts_consistent(b)) << "clip length " << len;
  }
}

TEST(Hessenberg, ChangeOfBasisStructure) {
  Shifts cs;
  cs.re = {2.0, 1.0, 1.0, 0.5};
  cs.im = {0.0, 0.7, -0.7, 0.0};
  const blas::DMat b = build_change_of_basis(cs);
  EXPECT_EQ(b.rows(), 5);
  EXPECT_EQ(b.cols(), 4);
  EXPECT_DOUBLE_EQ(b(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(b(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(b(1, 2), -0.49);  // -beta^2 above the pair's second col
  EXPECT_DOUBLE_EQ(b(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(b(3, 2), 1.0);
  EXPECT_DOUBLE_EQ(b(4, 3), 1.0);
}

TEST(Hessenberg, RecoveryIsExactOnSyntheticData) {
  // Choose random upper-triangular R and shifts; H must satisfy
  // H * R(1:m,1:m) == R * B exactly (that is the defining identity).
  const int m = 6;
  Rng rng(5);
  blas::DMat r(m + 1, m + 1);
  for (int j = 0; j <= m; ++j) {
    for (int i = 0; i < j; ++i) r(i, j) = rng.normal();
    r(j, j) = 1.0 + rng.uniform();
  }
  Shifts cs;
  cs.re.assign(static_cast<std::size_t>(m), 0.3);
  cs.im.assign(static_cast<std::size_t>(m), 0.0);
  cs.im[2] = 0.9;
  cs.im[3] = -0.9;
  const blas::DMat b = build_change_of_basis(cs);
  const blas::DMat h = hessenberg_from_basis(r, b);

  blas::DMat rb(m + 1, m), hr(m + 1, m);
  blas::gemm(blas::Trans::N, blas::Trans::N, m + 1, m, m + 1, 1.0, r.data(),
             r.ld(), b.data(), b.ld(), 0.0, rb.data(), rb.ld());
  // H is (m+1) x m, so the contracted dimension of H * R(1:m,1:m) is m.
  blas::DMat r_mm(m, m);
  for (int j = 0; j < m; ++j) {
    for (int i = 0; i <= j; ++i) r_mm(i, j) = r(i, j);
  }
  blas::gemm(blas::Trans::N, blas::Trans::N, m + 1, m, m, 1.0, h.data(),
             h.ld(), r_mm.data(), r_mm.ld(), 0.0, hr.data(), hr.ld());
  for (int j = 0; j < m; ++j) {
    for (int i = 0; i <= m; ++i) EXPECT_NEAR(hr(i, j), rb(i, j), 1e-10);
  }
  // Hessenberg structure.
  for (int j = 0; j < m; ++j) {
    for (int i = j + 2; i <= m; ++i) EXPECT_EQ(h(i, j), 0.0);
  }
}

TEST(ProblemSetup, RecoversPermutedScaledSolution) {
  const CsrMatrix a = sparse::make_laplace2d(9, 7, 0.2);
  const int n = a.n_rows;
  Rng rng(6);
  std::vector<double> x_true(static_cast<std::size_t>(n));
  for (auto& v : x_true) v = rng.normal();
  std::vector<double> b(static_cast<std::size_t>(n));
  sparse::spmv(a, x_true.data(), b.data());

  for (const bool balance : {false, true}) {
    const Problem p =
        make_problem(a, b, 2, graph::Ordering::kKway, balance, 3);
    // Solve the prepared system directly (dense-free check): verify that
    // y with y_i = x_true[perm[i]] / col_scale satisfies the prepared system.
    std::vector<double> y(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      y[static_cast<std::size_t>(i)] =
          x_true[static_cast<std::size_t>(p.perm[static_cast<std::size_t>(i)])] /
          p.scaling.col[static_cast<std::size_t>(i)];
    }
    std::vector<double> lhs(static_cast<std::size_t>(n));
    sparse::spmv(p.a, y.data(), lhs.data());
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(lhs[static_cast<std::size_t>(i)], p.b[static_cast<std::size_t>(i)], 1e-10);
    }
    // recover_solution maps y back to x_true.
    const std::vector<double> x = recover_solution(p, y);
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(x[static_cast<std::size_t>(i)], x_true[static_cast<std::size_t>(i)], 1e-10);
    }
  }
}

// ---------------------------------------------------------------------------
// Solver convergence tests.
// ---------------------------------------------------------------------------

struct SolverCase {
  int ng;
  graph::Ordering ordering;
};

class GmresTest : public ::testing::TestWithParam<SolverCase> {};

TEST_P(GmresTest, ConvergesOnConvectionDiffusion) {
  const auto [ng, ordering] = GetParam();
  const CsrMatrix a = sparse::make_laplace2d(24, 24, 0.3, 0.2);
  const std::vector<double> b = ones_rhs(a.n_rows);
  const Problem p = make_problem(a, b, ng, ordering, true, 1);
  sim::Machine machine(ng);
  SolverOptions opts;
  opts.m = 30;
  opts.tol = 1e-6;
  const SolveResult res = gmres(machine, p, opts);
  EXPECT_TRUE(res.stats.converged);
  // The tolerance applies to the prepared system; allow slack in the
  // original space where the scaling differs.
  const double rel = true_residual(a, b, res.x) /
                     blas::nrm2(a.n_rows, b.data());
  EXPECT_LT(rel, 1e-4);
  EXPECT_GT(res.stats.iterations, 0);
  EXPECT_GT(res.stats.time_total, 0.0);
  EXPECT_GT(res.stats.time_spmv, 0.0);
  EXPECT_GT(res.stats.time_orth, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    DevicesAndOrderings, GmresTest,
    ::testing::Values(SolverCase{1, graph::Ordering::kNatural},
                      SolverCase{2, graph::Ordering::kRcm},
                      SolverCase{3, graph::Ordering::kKway}),
    [](const auto& info) {
      return "ng" + std::to_string(info.param.ng) + "_" +
             graph::to_string(info.param.ordering);
    });

TEST(Gmres, MgsAndCgsAgreeOnSolution) {
  const CsrMatrix a = sparse::make_laplace2d(18, 18, 0.4, 0.3);
  const std::vector<double> b = ones_rhs(a.n_rows);
  const Problem p = make_problem(a, b, 2, graph::Ordering::kNatural, false, 1);
  SolverOptions opts;
  opts.m = 25;
  opts.tol = 1e-8;

  sim::Machine m1(2), m2(2);
  opts.gmres_orth = ortho::Method::kMgs;
  const SolveResult r_mgs = gmres(m1, p, opts);
  opts.gmres_orth = ortho::Method::kCgs;
  const SolveResult r_cgs = gmres(m2, p, opts);
  ASSERT_TRUE(r_mgs.stats.converged);
  ASSERT_TRUE(r_cgs.stats.converged);
  for (int i = 0; i < a.n_rows; ++i) {
    EXPECT_NEAR(r_mgs.x[static_cast<std::size_t>(i)],
                r_cgs.x[static_cast<std::size_t>(i)], 1e-5);
  }
  // MGS pays many more messages per restart (Fig. 10's latency story).
  EXPECT_GT(m1.counters().total_msgs(), 2 * m2.counters().total_msgs());
}

TEST(Gmres, ZeroRhsConvergesImmediately) {
  const CsrMatrix a = sparse::make_laplace2d(6, 6);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 0.0);
  const Problem p = make_problem(a, b, 1, graph::Ordering::kNatural, false, 1);
  sim::Machine machine(1);
  const SolveResult res = gmres(machine, p, SolverOptions{});
  EXPECT_TRUE(res.stats.converged);
  EXPECT_EQ(res.stats.iterations, 0);
  for (const double v : res.x) EXPECT_EQ(v, 0.0);
}

TEST(Gmres, ResidualHistoryDecreasesAcrossRestarts) {
  // Harder problem to force several restarts.
  const CsrMatrix a = sparse::make_laplace2d(30, 30, 0.0, 0.0);
  const std::vector<double> b = ones_rhs(a.n_rows);
  const Problem p = make_problem(a, b, 1, graph::Ordering::kNatural, false, 1);
  sim::Machine machine(1);
  SolverOptions opts;
  opts.m = 10;
  opts.tol = 1e-6;
  opts.max_restarts = 300;
  const SolveResult res = gmres(machine, p, opts);
  EXPECT_TRUE(res.stats.converged);
  EXPECT_GT(res.stats.restarts, 2);
  const auto& h = res.stats.residual_history;
  for (std::size_t i = 1; i < h.size(); ++i) {
    EXPECT_LE(h[i], h[i - 1] * (1.0 + 1e-10));  // GMRES is monotone
  }
}

struct CaCase {
  int ng;
  int s;
  ortho::Method tsqr;
  Basis basis;
};

class CaGmresTest : public ::testing::TestWithParam<CaCase> {};

TEST_P(CaGmresTest, ConvergesAndMatchesDirectResidual) {
  const auto& c = GetParam();
  const CsrMatrix a = sparse::make_laplace2d(24, 24, 0.3, 0.25);
  const std::vector<double> b = ones_rhs(a.n_rows);
  const Problem p =
      make_problem(a, b, c.ng, graph::Ordering::kKway, false, 11);
  sim::Machine machine(c.ng);
  SolverOptions opts;
  opts.m = 24;
  opts.s = c.s;
  opts.tsqr = c.tsqr;
  opts.basis = c.basis;
  opts.tol = 1e-6;
  const SolveResult res = ca_gmres(machine, p, opts);
  EXPECT_TRUE(res.stats.converged)
      << to_string(c.tsqr) << " s=" << c.s << " ng=" << c.ng;
  const double rel =
      true_residual(a, b, res.x) / blas::nrm2(a.n_rows, b.data());
  EXPECT_LT(rel, 1e-5) << to_string(c.tsqr);
  if (c.s > 1) {
    EXPECT_GT(res.stats.time_mpk, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CaGmresTest,
    ::testing::Values(
        CaCase{1, 4, ortho::Method::kCholQr, Basis::kNewton},
        CaCase{2, 4, ortho::Method::kCholQr, Basis::kNewton},
        CaCase{3, 6, ortho::Method::kCholQr, Basis::kNewton},
        CaCase{2, 4, ortho::Method::kSvqr, Basis::kNewton},
        CaCase{2, 4, ortho::Method::kCaqr, Basis::kNewton},
        CaCase{2, 4, ortho::Method::kMgs, Basis::kNewton},
        CaCase{2, 4, ortho::Method::kCgs, Basis::kNewton},
        CaCase{2, 4, ortho::Method::kCholQr, Basis::kMonomial},
        CaCase{3, 1, ortho::Method::kCholQr, Basis::kNewton},
        CaCase{2, 8, ortho::Method::kSvqr, Basis::kMonomial}),
    [](const auto& info) {
      const CaCase& c = info.param;
      return "ng" + std::to_string(c.ng) + "_s" + std::to_string(c.s) + "_" +
             ortho::to_string(c.tsqr) + "_" + to_string(c.basis);
    });

TEST(CaGmres, MatchesGmresIterationCountsForBenignProblems) {
  const CsrMatrix a = sparse::make_laplace2d(20, 20, 0.2, 0.4);
  const std::vector<double> b = ones_rhs(a.n_rows);
  const Problem p = make_problem(a, b, 2, graph::Ordering::kNatural, false, 1);
  SolverOptions opts;
  opts.m = 20;
  opts.s = 5;
  opts.tol = 1e-6;
  sim::Machine m1(2), m2(2);
  const SolveResult rg = gmres(m1, p, opts);
  const SolveResult rc = ca_gmres(m2, p, opts);
  ASSERT_TRUE(rg.stats.converged);
  ASSERT_TRUE(rc.stats.converged);
  // Same Krylov spaces in exact arithmetic: restart counts nearly equal.
  EXPECT_NEAR(rc.stats.restarts, rg.stats.restarts, 1.0);
}

TEST(CaGmres, ForcedReorthogonalizationRunsAndConverges) {
  const CsrMatrix a = sparse::make_laplace2d(16, 16, 0.3, 0.3);
  const std::vector<double> b = ones_rhs(a.n_rows);
  const Problem p = make_problem(a, b, 1, graph::Ordering::kNatural, false, 1);
  sim::Machine machine(1);
  SolverOptions opts;
  opts.m = 16;
  opts.s = 4;
  opts.reorthogonalize = true;
  opts.tol = 1e-6;
  const SolveResult res = ca_gmres(machine, p, opts);
  EXPECT_TRUE(res.stats.converged);
  EXPECT_GT(res.stats.reorth_blocks, 0);
}

TEST(CaGmres, SpmvFallbackPathConverges) {
  const CsrMatrix a = sparse::make_laplace2d(16, 16, 0.1, 0.3);
  const std::vector<double> b = ones_rhs(a.n_rows);
  const Problem p = make_problem(a, b, 2, graph::Ordering::kNatural, false, 1);
  sim::Machine machine(2);
  SolverOptions opts;
  opts.m = 16;
  opts.s = 4;
  opts.use_mpk = false;  // generate blocks by repeated SpMV (Fig. 15 note)
  opts.tol = 1e-6;
  const SolveResult res = ca_gmres(machine, p, opts);
  EXPECT_TRUE(res.stats.converged);
  EXPECT_EQ(res.stats.time_mpk, 0.0);
  EXPECT_GT(res.stats.time_spmv, 0.0);
  const double rel =
      true_residual(a, b, res.x) / blas::nrm2(a.n_rows, b.data());
  EXPECT_LT(rel, 1e-5);
}

TEST(CaGmres, NewtonShiftHarvestRunsSStepsNotM) {
  // A degree-s Newton basis needs s Ritz values, so the harvesting GMRES
  // cycle runs min(s, m) steps; the CA cycles after it keep the full m.
  const CsrMatrix a = sparse::make_laplace2d(24, 24, 0.1, 0.02);
  const std::vector<double> b = ones_rhs(a.n_rows);
  const Problem p = make_problem(a, b, 2, graph::Ordering::kNatural, false, 1);
  SolverOptions opts;
  opts.m = 30;
  opts.tol = 1e-6;
  opts.max_restarts = 1;
  for (const int s : {6, 12, 30, 40}) {
    opts.s = s;
    sim::Machine machine(2);
    const SolveResult res = ca_gmres(machine, p, opts);
    EXPECT_FALSE(res.stats.converged) << "s=" << s;
    EXPECT_EQ(res.stats.restarts, 1) << "s=" << s;
    EXPECT_EQ(res.stats.iterations, std::min(s, opts.m)) << "s=" << s;
    EXPECT_EQ(res.stats.time_mpk, 0.0) << "s=" << s;  // no CA cycle ran
  }

  opts.s = 6;
  opts.max_restarts = 2;
  sim::Machine machine(2);
  const SolveResult res = ca_gmres(machine, p, opts);
  EXPECT_FALSE(res.stats.converged);
  EXPECT_EQ(res.stats.iterations, opts.s + opts.m);
  EXPECT_GT(res.stats.time_mpk, 0.0);
}

TEST(CaGmres, MonomialBasisRunsNoHarvest) {
  // No shifts to harvest: every restart is a full CA cycle, and the solve
  // reports the iterations and charged seconds it did while the Newton
  // harvest still ran a full m-step restart.
  const CsrMatrix a = sparse::make_laplace2d(24, 24, 0.1, 0.02);
  const std::vector<double> b = ones_rhs(a.n_rows);
  const Problem p = make_problem(a, b, 2, graph::Ordering::kNatural, false, 1);
  SolverOptions opts;
  opts.m = 30;
  opts.s = 6;
  opts.tol = 1e-6;
  opts.basis = Basis::kMonomial;
  opts.max_restarts = 1;
  sim::Machine m1(2);
  const SolveResult one = ca_gmres(m1, p, opts);
  EXPECT_EQ(one.stats.iterations, opts.m);
  EXPECT_GT(one.stats.time_mpk, 0.0);

  opts.max_restarts = 1000;
  sim::Machine m2(2);
  const SolveResult res = ca_gmres(m2, p, opts);
  ASSERT_TRUE(res.stats.converged);
  EXPECT_EQ(res.stats.iterations, 90);
  EXPECT_EQ(res.stats.restarts, 3);
  EXPECT_DOUBLE_EQ(res.stats.time_total, 0.0042703423392105892);
}

TEST(CaGmres, CommunicationDropsVsGmres) {
  // The headline claim: CA-GMRES communicates far less per generated basis
  // vector than GMRES.
  const CsrMatrix a = sparse::make_laplace2d(22, 22, 0.2, 0.3);
  const std::vector<double> b = ones_rhs(a.n_rows);
  const Problem p = make_problem(a, b, 3, graph::Ordering::kKway, false, 3);
  SolverOptions opts;
  opts.m = 18;
  opts.s = 6;
  opts.tol = 1e-6;
  // Monomial basis so CA-GMRES needs no shift-harvesting GMRES restart —
  // the comparison is then pure CA cycles vs pure GMRES cycles.
  opts.basis = Basis::kMonomial;
  sim::Machine m1(3), m2(3);
  const SolveResult rg = gmres(m1, p, opts);
  const SolveResult rc = ca_gmres(m2, p, opts);
  ASSERT_TRUE(rg.stats.converged);
  ASSERT_TRUE(rc.stats.converged);
  const double msgs_per_iter_g =
      static_cast<double>(m1.counters().total_msgs()) / rg.stats.iterations;
  const double msgs_per_iter_c =
      static_cast<double>(m2.counters().total_msgs()) / rc.stats.iterations;
  EXPECT_LT(msgs_per_iter_c, 0.5 * msgs_per_iter_g);
}

TEST(CpuGmres, ConvergesAndMatchesDeviceSolver) {
  const CsrMatrix a = sparse::make_laplace2d(20, 18, 0.25, 0.3);
  const std::vector<double> b = ones_rhs(a.n_rows);
  const Problem p = make_problem(a, b, 1, graph::Ordering::kNatural, false, 1);
  SolverOptions opts;
  opts.m = 20;
  opts.tol = 1e-7;
  sim::Machine mc(1), md(1);
  const SolveResult rc = cpu_gmres(mc, p, opts);
  const SolveResult rd = gmres(md, p, opts);
  ASSERT_TRUE(rc.stats.converged);
  ASSERT_TRUE(rd.stats.converged);
  for (int i = 0; i < a.n_rows; ++i) {
    EXPECT_NEAR(rc.x[static_cast<std::size_t>(i)],
                rd.x[static_cast<std::size_t>(i)], 1e-5);
  }
  // The CPU run involves zero PCIe messages.
  EXPECT_EQ(mc.counters().total_msgs(), 0);
  EXPECT_GT(mc.clock().elapsed(), 0.0);
}

TEST(SolverOptions, ParseHelpers) {
  EXPECT_EQ(parse_basis("newton"), Basis::kNewton);
  EXPECT_EQ(to_string(Basis::kMonomial), "monomial");
  EXPECT_THROW(parse_basis("chebyshev"), Error);
}

}  // namespace
}  // namespace cagmres::core
