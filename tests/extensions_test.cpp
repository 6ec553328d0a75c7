// Tests for the paper-§VII extension features: mixed-precision CholQR
// (ref [23]), the adaptive block-size scheme, and rank-revealing pivoted QR
// (ref [10]).
#include <cmath>

#include <gtest/gtest.h>

#include "blas/blas1.hpp"
#include "blas/blas3.hpp"
#include "blas/lapack.hpp"
#include "common/rng.hpp"
#include "core/cagmres.hpp"
#include "core/solver_common.hpp"
#include "ortho/metrics.hpp"
#include "ortho/tsqr.hpp"
#include "sim/machine.hpp"
#include "sparse/generators.hpp"

namespace cagmres {
namespace {

using sim::DistMultiVec;
using sim::Machine;

std::vector<int> split_rows(int n, int ng) {
  std::vector<int> rows(static_cast<std::size_t>(ng));
  for (int d = 0; d < ng; ++d) {
    rows[static_cast<std::size_t>(d)] =
        static_cast<int>((static_cast<long long>(n) * (d + 1)) / ng -
                         (static_cast<long long>(n) * d) / ng);
  }
  return rows;
}

void fill_random(DistMultiVec& v, Rng& rng) {
  for (int d = 0; d < v.n_parts(); ++d) {
    for (int j = 0; j < v.cols(); ++j) {
      double* col = v.col(d, j);
      for (int i = 0; i < v.local_rows(d); ++i) col[i] = rng.normal();
    }
  }
}

TEST(CholQrMixed, FactorizesWithFloatLevelOrthogonality) {
  Machine m(2);
  Rng rng(41);
  const int n = 400, k = 6;
  DistMultiVec v(split_rows(n, 2), k);
  fill_random(v, rng);
  DistMultiVec v0 = v;

  const ortho::TsqrResult res =
      ortho::tsqr(m, ortho::Method::kCholQrMp, v, 0, k);
  EXPECT_FALSE(res.breakdown);
  const ortho::OrthoErrors e = ortho::measure_errors(v, v0, 0, k, res.r);
  // Float Gram: orthogonality at single-precision level, far above double
  // CholQR but far below failure.
  EXPECT_LT(e.orthogonality, 1e-4);
  EXPECT_GT(e.orthogonality, 1e-12);
  // The factorization error stays small (R consistent with the Q produced).
  EXPECT_LT(e.factorization, 1e-4);
}

TEST(CholQrMixed, CheaperThanDoubleCholQr) {
  const int n = 200000, k = 20;
  Rng rng(42);
  Machine m_double(3), m_mixed(3);
  DistMultiVec v1(split_rows(n, 3), k);
  fill_random(v1, rng);
  DistMultiVec v2 = v1;
  ortho::tsqr(m_double, ortho::Method::kCholQr, v1, 0, k);
  ortho::tsqr(m_mixed, ortho::Method::kCholQrMp, v2, 0, k);
  m_double.sync_all();
  m_mixed.sync_all();
  EXPECT_LT(m_mixed.clock().elapsed(), m_double.clock().elapsed());
  // Identical communication structure: still just 2 messages per device.
  EXPECT_EQ(m_mixed.counters().total_msgs(), m_double.counters().total_msgs());
}

TEST(CholQrMixed, ParseRoundTrip) {
  EXPECT_EQ(ortho::parse_method("cholqr_mp"), ortho::Method::kCholQrMp);
  EXPECT_EQ(ortho::to_string(ortho::Method::kCholQrMp), "cholqr_mp");
}

TEST(CholQrMixed, SolvesInsideCaGmresWithReorth) {
  const sparse::CsrMatrix a = sparse::make_laplace2d(20, 20, 0.2, 0.3);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const core::Problem p =
      core::make_problem(a, b, 2, graph::Ordering::kNatural, false, 1);
  Machine machine(2);
  core::SolverOptions opts;
  opts.m = 20;
  opts.s = 5;
  opts.tsqr = ortho::Method::kCholQrMp;
  opts.reorthogonalize = true;  // recover the lost digits
  opts.tol = 1e-6;
  const core::SolveResult res = core::ca_gmres(machine, p, opts);
  EXPECT_TRUE(res.stats.converged);
  const double rel = core::true_residual(a, b, res.x) /
                     blas::nrm2(a.n_rows, b.data());
  EXPECT_LT(rel, 1e-5);
}

TEST(AdaptiveS, ShrinksOnBreakdownAndRecovers) {
  // Monomial basis with s=20 on this matrix reliably breaks CholQR; the
  // adaptive scheme must shrink the block size instead of thrashing.
  const sparse::CsrMatrix a = sparse::make_laplace2d(30, 30, 0.1, 0.02);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const core::Problem p =
      core::make_problem(a, b, 1, graph::Ordering::kNatural, true, 1);
  Machine machine(1);
  core::SolverOptions opts;
  opts.m = 40;
  opts.s = 20;
  opts.basis = core::Basis::kMonomial;
  opts.adaptive_s = true;
  opts.max_restarts = 12;
  opts.tol = 1e-8;
  const core::SolveResult res = core::ca_gmres(machine, p, opts);
  ASSERT_FALSE(res.stats.block_sizes.empty());
  if (res.stats.cholqr_breakdowns > 0) {
    // After a breakdown some later block must be smaller than s.
    int smallest = opts.s;
    for (const int bs : res.stats.block_sizes) smallest = std::min(smallest, bs);
    EXPECT_LT(smallest, opts.s);
  }
  // Every block size stays within [min_s, s].
  for (const int bs : res.stats.block_sizes) {
    EXPECT_GE(bs, core::kAdaptiveMinS);
    EXPECT_LE(bs, opts.s);
  }
}

TEST(AdaptiveS, DisabledKeepsFixedBlocks) {
  const sparse::CsrMatrix a = sparse::make_laplace2d(16, 16, 0.2, 0.3);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const core::Problem p =
      core::make_problem(a, b, 1, graph::Ordering::kNatural, false, 1);
  Machine machine(1);
  core::SolverOptions opts;
  opts.m = 16;
  opts.s = 5;
  opts.tol = 1e-6;
  const core::SolveResult res = core::ca_gmres(machine, p, opts);
  EXPECT_TRUE(res.stats.converged);
  for (std::size_t i = 0; i < res.stats.block_sizes.size(); ++i) {
    const int bs = res.stats.block_sizes[i];
    EXPECT_TRUE(bs == 5 || bs == 1)  // 16 = 5+5+5+1 per restart
        << "block " << i << " size " << bs;
  }
}

TEST(PivotedQr, ReconstructsWithPermutation) {
  const int m = 30, n = 8;
  Rng rng(43);
  blas::DMat a(m, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) a(i, j) = rng.normal();
  }
  const blas::PivotedQr f = blas::qr_pivoted(a);
  EXPECT_EQ(f.rank, n);

  // Diagonal magnitudes non-increasing.
  for (int k = 1; k < n; ++k) {
    EXPECT_LE(std::fabs(f.qr(k, k)), std::fabs(f.qr(k - 1, k - 1)) + 1e-12);
  }
  // Q R == A P.
  blas::DMat q;
  blas::orgqr(f.qr, f.tau, q);
  blas::DMat r(n, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) r(i, j) = f.qr(i, j);
  }
  blas::DMat qr = q;
  blas::trmm_right_upper(m, n, r.data(), r.ld(), qr.data(), qr.ld());
  for (int j = 0; j < n; ++j) {
    const int src = f.jpvt[static_cast<std::size_t>(j)];
    for (int i = 0; i < m; ++i) EXPECT_NEAR(qr(i, j), a(i, src), 1e-10);
  }
}

TEST(PivotedQr, RevealsRankOfDeficientMatrix) {
  const int m = 40, n = 6, true_rank = 3;
  Rng rng(44);
  // A = U * W with U (m x r), W (r x n): rank r by construction.
  blas::DMat u(m, true_rank), w(true_rank, n), a(m, n);
  for (int j = 0; j < true_rank; ++j) {
    for (int i = 0; i < m; ++i) u(i, j) = rng.normal();
  }
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < true_rank; ++i) w(i, j) = rng.normal();
  }
  blas::gemm(blas::Trans::N, blas::Trans::N, m, n, true_rank, 1.0, u.data(),
             u.ld(), w.data(), w.ld(), 0.0, a.data(), a.ld());
  const blas::PivotedQr f = blas::qr_pivoted(a, 1e-10);
  EXPECT_EQ(f.rank, true_rank);
}

TEST(PivotedQr, ZeroMatrixHasRankZero) {
  blas::DMat a(5, 3);
  const blas::PivotedQr f = blas::qr_pivoted(a);
  EXPECT_EQ(f.rank, 0);
}

TEST(PivotedQr, GradedColumnsPivotLargestFirst) {
  const int m = 25, n = 5;
  Rng rng(45);
  blas::DMat a(m, n);
  for (int j = 0; j < n; ++j) {
    const double scale = std::pow(10.0, -j);
    for (int i = 0; i < m; ++i) a(i, j) = scale * rng.normal();
  }
  const blas::PivotedQr f = blas::qr_pivoted(a);
  EXPECT_EQ(f.jpvt[0], 0);  // largest column chosen first
}

}  // namespace
}  // namespace cagmres
