// Edge-case and failure-injection tests: degenerate sizes, extreme solver
// parameters, non-convergence reporting, and argument validation across
// modules.
#include <cmath>
#include <utility>

#include <gtest/gtest.h>

#include "blas/blas1.hpp"
#include "blas/blas2.hpp"
#include "blas/blas3.hpp"
#include "blas/eig.hpp"
#include "blas/lapack.hpp"
#include "blas/least_squares.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cagmres.hpp"
#include "core/gmres.hpp"
#include "mpk/exec.hpp"
#include "mpk/plan.hpp"
#include "ortho/tsqr.hpp"
#include "sim/machine.hpp"
#include "sparse/coo.hpp"
#include "sparse/ell.hpp"
#include "sparse/generators.hpp"

#include "codec_tol.hpp"

namespace cagmres {
namespace {

TEST(BlasEdge, ZeroLengthOperations) {
  double dummy = 0.0;
  EXPECT_EQ(blas::dot(0, &dummy, &dummy), 0.0);
  EXPECT_EQ(blas::nrm2(0, &dummy), 0.0);
  blas::axpy(0, 1.0, &dummy, &dummy);  // must not touch memory
  blas::gemv_n(0, 0, 1.0, &dummy, 1, &dummy, 0.0, &dummy);
  blas::gemm(blas::Trans::N, blas::Trans::N, 0, 0, 0, 1.0, &dummy, 1, &dummy,
             1, 0.0, &dummy, 1);
}

TEST(BlasEdge, GemmWithAlphaZeroOnlyScalesC) {
  blas::DMat a(2, 2), b(2, 2), c(2, 2);
  c(0, 0) = 4.0;
  c(1, 1) = 6.0;
  a(0, 0) = std::nan("");  // must never be read
  blas::gemm(blas::Trans::N, blas::Trans::N, 2, 2, 2, 0.0, a.data(), 2,
             b.data(), 2, 0.5, c.data(), 2);
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 3.0);
}

TEST(BlasEdge, OneByOneFactorizations) {
  blas::DMat b(1, 1);
  b(0, 0) = 9.0;
  EXPECT_EQ(blas::potrf_upper(b), -1);
  EXPECT_DOUBLE_EQ(b(0, 0), 3.0);

  blas::DMat v(1, 1);
  v(0, 0) = -5.0;
  blas::DMat q, r;
  blas::qr_explicit(v, q, r);
  EXPECT_DOUBLE_EQ(r(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(q(0, 0), -1.0);

  auto eig = blas::hessenberg_eig(b);  // b now holds chol factor 3
  EXPECT_DOUBLE_EQ(eig[0].real(), 3.0);
}

TEST(BlasEdge, GivensWithZeroColumnMakesSolveThrow) {
  // A zero column never reaches the LS solver in GMRES (happy breakdown is
  // caught on the basis-vector norm first); if a caller feeds one anyway,
  // the triangular factor is singular and solve() must refuse.
  blas::GivensLS ls(2, 1.0);
  const double col[2] = {0.0, 0.0};
  ls.append_column(col);
  EXPECT_THROW(ls.solve(), Error);
}

TEST(SparseEdge, SingleRowMatrixAndEll) {
  sparse::CooBuilder b(1, 1);
  b.add(0, 0, 2.0);
  const sparse::CsrMatrix a = b.build();
  a.validate();
  const sparse::EllMatrix e = sparse::to_ell(a);
  const double x = 3.0;
  double y = 0.0;
  sparse::spmv(e, &x, &y);
  EXPECT_DOUBLE_EQ(y, 6.0);
}

TEST(SparseEdge, EmptyRowsSurvivePipeline) {
  // A matrix with completely empty rows must survive conversion, stats,
  // partitioning, and SpMV.
  sparse::CooBuilder b(4, 4);
  b.add(0, 0, 1.0);
  b.add(2, 2, 1.0);
  b.add(0, 2, -1.0);
  b.add(2, 0, -1.0);
  const sparse::CsrMatrix a = b.build();
  a.validate();
  EXPECT_EQ(a.row_nnz(1), 0);
  const sparse::EllMatrix e = sparse::to_ell(a);
  std::vector<double> x = {1, 2, 3, 4}, y1(4), y2(4);
  sparse::spmv(a, x.data(), y1.data());
  sparse::spmv(e, x.data(), y2.data());
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(y1[static_cast<std::size_t>(i)], y2[static_cast<std::size_t>(i)]);
  EXPECT_DOUBLE_EQ(y1[1], 0.0);
  // MPK over it (identity-ish powers).
  const mpk::MpkPlan plan = mpk::build_mpk_plan(a, {0, 2, 4}, 2);
  sim::Machine m(2);
  sim::DistMultiVec v(plan.rows_per_device(), 3);
  v.col(0, 0)[0] = 1.0;
  mpk::MpkExecutor exec(plan);
  exec.apply(m, v, 0, 2);
  m.sync();  // the host reads the basis columns below
  EXPECT_DOUBLE_EQ(v.col(0, 2)[0], a.at(0, 0) * a.at(0, 0) +
                                       a.at(0, 2) * a.at(2, 0));
}

TEST(SolverEdge, RestartLengthOne) {
  // GMRES(1) is steepest-descent-like; must still run and make progress.
  const sparse::CsrMatrix a = sparse::make_laplace2d(8, 8, 0.0, 2.0);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const core::Problem p =
      core::make_problem(a, b, 1, graph::Ordering::kNatural, false, 1);
  sim::Machine machine(1);
  core::SolverOptions opts;
  opts.m = 1;
  opts.tol = 1e-4;
  opts.max_restarts = 500;
  const core::SolveResult res = core::gmres(machine, p, opts);
  EXPECT_TRUE(res.stats.converged);
}

TEST(SolverEdge, SEqualsMAndSExceedsM) {
  const sparse::CsrMatrix a = sparse::make_laplace2d(10, 10, 0.1, 0.5);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const core::Problem p =
      core::make_problem(a, b, 1, graph::Ordering::kNatural, false, 1);
  for (const int s : {12, 40}) {  // == m and > m (clamped)
    sim::Machine machine(1);
    core::SolverOptions opts;
    opts.m = 12;
    opts.s = s;
    opts.tol = 1e-6;
    const core::SolveResult res = core::ca_gmres(machine, p, opts);
    EXPECT_TRUE(res.stats.converged) << "s=" << s;
  }
}

TEST(SolverEdge, NonConvergenceIsReportedHonestly) {
  const sparse::CsrMatrix a = sparse::make_laplace2d(30, 30);  // hard enough
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const core::Problem p =
      core::make_problem(a, b, 1, graph::Ordering::kNatural, false, 1);
  sim::Machine machine(1);
  core::SolverOptions opts;
  opts.m = 5;
  opts.tol = 1e-12;
  opts.max_restarts = 3;  // nowhere near enough
  const core::SolveResult res = core::gmres(machine, p, opts);
  EXPECT_FALSE(res.stats.converged);
  EXPECT_EQ(res.stats.restarts, 3);
  EXPECT_GT(res.stats.final_residual, 0.0);
  // The partial solution is still the best-so-far iterate, not garbage.
  EXPECT_LT(core::true_residual(a, b, res.x),
            blas::nrm2(a.n_rows, b.data()));
}

TEST(SolverEdge, NonFiniteResidualIsNeverConverged) {
  // Two near-overflow entries make the Krylov arithmetic overflow to NaN.
  // A NaN residual fails every comparison, so a "res > tol" test would
  // read it as converged; the shared restart driver must refuse instead.
  sparse::CsrMatrix a = sparse::make_laplace2d(24, 24, 0.1, 0.02);
  a.vals[17] = 1e308;
  a.vals[40] = 1e308;
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const core::Problem p =
      core::make_problem(a, b, 2, graph::Ordering::kNatural, false, 1);
  using Solver = core::SolveResult (*)(sim::Machine&, const core::Problem&,
                                       const core::SolverOptions&);
  const std::pair<const char*, Solver> solvers[] = {
      {"gmres", core::gmres}, {"ca_gmres", core::ca_gmres}};
  for (const auto& [name, solve] : solvers) {
    sim::Machine machine(2);  // unarmed: no checkpoint to roll back to
    core::SolverOptions opts;
    opts.m = 30;
    opts.s = 6;
    opts.tol = 1e-6;
    opts.max_restarts = 20;
    try {
      const core::SolveResult res = solve(machine, p, opts);
      ADD_FAILURE() << name << " returned converged=" << res.stats.converged
                    << " final_residual=" << res.stats.final_residual;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBreakdown) << name << ": " << e.what();
    }
  }
}

TEST(SolverEdge, TinySystemManyDevices) {
  // n barely larger than the device count; blocks of 2-3 rows each.
  const sparse::CsrMatrix a = sparse::make_laplace2d(3, 3, 0.0, 1.0);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const core::Problem p =
      core::make_problem(a, b, 3, graph::Ordering::kNatural, false, 1);
  sim::Machine machine(3);
  core::SolverOptions opts;
  opts.m = 9;
  opts.s = 2;
  opts.tol = 1e-10;
  const core::SolveResult res = core::ca_gmres(machine, p, opts);
  EXPECT_TRUE(res.stats.converged);
  const double rel = core::true_residual(a, b, res.x) /
                     blas::nrm2(a.n_rows, b.data());
  EXPECT_LT(rel, test::codec_tol(1e-9, 1e-7));
}

TEST(SolverEdge, IdentityMatrixConvergesInOneIteration) {
  sparse::CooBuilder builder(50, 50);
  for (int i = 0; i < 50; ++i) builder.add(i, i, 1.0);
  const sparse::CsrMatrix a = builder.build();
  std::vector<double> b(50);
  Rng rng(3);
  for (auto& e : b) e = rng.normal();
  const core::Problem p =
      core::make_problem(a, b, 2, graph::Ordering::kNatural, false, 1);
  sim::Machine machine(2);
  core::SolverOptions opts;
  opts.m = 10;
  opts.tol = 1e-12;
  const core::SolveResult res = core::gmres(machine, p, opts);
  EXPECT_TRUE(res.stats.converged);
  // Exact arithmetic converges in one iteration; an fp32 halo wire
  // (CAGMRES_COMPRESS) leaves a residual that takes a few more.
  EXPECT_LE(res.stats.iterations, test::codec_armed() ? 2 * opts.m : 1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_NEAR(res.x[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(OrthoEdge, SingleColumnTsqrIsJustNormalization) {
  for (const auto method :
       {ortho::Method::kMgs, ortho::Method::kCgs, ortho::Method::kCholQr,
        ortho::Method::kSvqr, ortho::Method::kCaqr}) {
    sim::Machine m(2);
    sim::DistMultiVec v(std::vector<int>{40, 40}, 1);
    Rng rng(5);
    double nrm_sq = 0.0;
    for (int d = 0; d < 2; ++d) {
      for (int i = 0; i < 40; ++i) {
        v.col(d, 0)[i] = rng.normal();
        nrm_sq += v.col(d, 0)[i] * v.col(d, 0)[i];
      }
    }
    const ortho::TsqrResult res = ortho::tsqr(m, method, v, 0, 1);
    m.sync();  // the host reads the normalized column below
    EXPECT_NEAR(res.r(0, 0), std::sqrt(nrm_sq),
                test::codec_tol(1e-10, 1e-7) * std::sqrt(nrm_sq))
        << ortho::to_string(method);
    double after = 0.0;
    for (int d = 0; d < 2; ++d) {
      for (int i = 0; i < 40; ++i) after += v.col(d, 0)[i] * v.col(d, 0)[i];
    }
    EXPECT_NEAR(after, 1.0, test::codec_tol(1e-12, 1e-6))
        << ortho::to_string(method);
  }
}

TEST(OrthoEdge, ZeroColumnThrowsForGramSchmidt) {
  sim::Machine m(1);
  sim::DistMultiVec v(std::vector<int>{30}, 2);
  for (int i = 0; i < 30; ++i) v.col(0, 0)[i] = 1.0;
  // Column 1 stays zero.
  EXPECT_THROW(ortho::tsqr(m, ortho::Method::kMgs, v, 0, 2), Error);
  EXPECT_THROW(ortho::tsqr(m, ortho::Method::kCgs, v, 0, 2), Error);
}

TEST(OrthoEdge, BadColumnRangeRejected) {
  sim::Machine m(1);
  sim::DistMultiVec v(std::vector<int>{10}, 3);
  EXPECT_THROW(ortho::tsqr(m, ortho::Method::kCholQr, v, 2, 2), Error);
  EXPECT_THROW(ortho::tsqr(m, ortho::Method::kCholQr, v, 0, 4), Error);
  EXPECT_THROW(ortho::borth(m, ortho::BorthMethod::kCgs, v, 3, 3), Error);
}

TEST(MpkEdge, ApplyArgumentValidation) {
  const sparse::CsrMatrix a = sparse::make_laplace2d(6, 6);
  const mpk::MpkPlan plan = mpk::build_mpk_plan(a, {0, 36}, 3);
  mpk::MpkExecutor exec(plan);
  sim::Machine m(1);
  sim::DistMultiVec v(plan.rows_per_device(), 3);
  EXPECT_THROW(exec.apply(m, v, 0, 4), Error);   // steps > plan.s
  EXPECT_THROW(exec.apply(m, v, 1, 3), Error);   // column overflow
  EXPECT_THROW(exec.apply(m, v, 0, 0), Error);   // zero steps
  sim::DistMultiVec wrong(std::vector<int>{20}, 3);
  EXPECT_THROW(exec.apply(m, wrong, 0, 2), Error);  // row-layout mismatch
}

TEST(ProblemEdge, MismatchedSizesRejected) {
  const sparse::CsrMatrix a = sparse::make_laplace2d(4, 4);
  EXPECT_THROW(core::make_problem(a, std::vector<double>(5, 1.0), 1,
                                  graph::Ordering::kNatural),
               Error);
  sparse::CooBuilder rect(3, 4);
  rect.add(0, 0, 1.0);
  EXPECT_THROW(core::make_problem(rect.build(), std::vector<double>(3, 1.0),
                                  1, graph::Ordering::kNatural),
               Error);
}

}  // namespace
}  // namespace cagmres
