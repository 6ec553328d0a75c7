// Unit tests for the dense BLAS / LAPACK-lite substrate.
#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas1.hpp"
#include "blas/blas2.hpp"
#include "blas/blas3.hpp"
#include "blas/eig.hpp"
#include "blas/lapack.hpp"
#include "blas/least_squares.hpp"
#include "blas/matrix.hpp"
#include "blas/svd.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace cagmres::blas {
namespace {

DMat random_matrix(int rows, int cols, Rng& rng) {
  DMat a(rows, cols);
  for (int j = 0; j < cols; ++j) {
    for (int i = 0; i < rows; ++i) a(i, j) = rng.normal();
  }
  return a;
}

double frob_diff(const DMat& a, const DMat& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double acc = 0.0;
  for (int j = 0; j < a.cols(); ++j) {
    for (int i = 0; i < a.rows(); ++i) {
      const double d = a(i, j) - b(i, j);
      acc += d * d;
    }
  }
  return std::sqrt(acc);
}

TEST(Blas1, DotAxpyScalCopy) {
  const int n = 257;
  Rng rng(1);
  std::vector<double> x(n), y(n), y0(n);
  for (int i = 0; i < n; ++i) {
    x[i] = rng.normal();
    y[i] = rng.normal();
    y0[i] = y[i];
  }
  double expected = 0.0;
  for (int i = 0; i < n; ++i) expected += x[i] * y[i];
  EXPECT_NEAR(dot(n, x.data(), y.data()), expected, 1e-12 * n);

  axpy(n, 2.5, x.data(), y.data());
  for (int i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(y[i], y0[i] + 2.5 * x[i]);

  scal(n, 0.5, y.data());
  for (int i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(y[i], 0.5 * (y0[i] + 2.5 * x[i]));

  copy(n, x.data(), y.data());
  for (int i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(Blas1, Nrm2MatchesDotAndResistsOverflow) {
  const int n = 100;
  Rng rng(2);
  std::vector<double> x(n);
  for (int i = 0; i < n; ++i) x[i] = rng.normal();
  EXPECT_NEAR(nrm2(n, x.data()), std::sqrt(dot(n, x.data(), x.data())),
              1e-12);
  // Entries near DBL_MAX's sqrt would overflow a naive sum of squares.
  std::vector<double> big(4, 1e200);
  EXPECT_NEAR(nrm2(4, big.data()), 2e200, 1e186);
  std::vector<double> zero(4, 0.0);
  EXPECT_EQ(nrm2(4, zero.data()), 0.0);
}

TEST(Blas1, Amax) {
  std::vector<double> x = {1.0, -7.5, 3.0};
  EXPECT_DOUBLE_EQ(amax(3, x.data()), 7.5);
  EXPECT_DOUBLE_EQ(amax(0, x.data()), 0.0);
}

TEST(Blas2, GemvAgainstReference) {
  const int m = 37, n = 11;
  Rng rng(3);
  DMat a = random_matrix(m, n, rng);
  std::vector<double> x(n), y(m, 1.0), xt(m), yt(n, 2.0);
  for (int j = 0; j < n; ++j) x[j] = rng.normal();
  for (int i = 0; i < m; ++i) xt[i] = rng.normal();

  std::vector<double> y_ref(m), yt_ref(n);
  for (int i = 0; i < m; ++i) {
    double acc = 0.0;
    for (int j = 0; j < n; ++j) acc += a(i, j) * x[j];
    y_ref[i] = 1.5 * acc + 0.5 * 1.0;
  }
  gemv_n(m, n, 1.5, a.data(), a.ld(), x.data(), 0.5, y.data());
  for (int i = 0; i < m; ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-12);

  for (int j = 0; j < n; ++j) {
    double acc = 0.0;
    for (int i = 0; i < m; ++i) acc += a(i, j) * xt[i];
    yt_ref[j] = -1.0 * acc + 2.0 * 2.0;
  }
  gemv_t(m, n, -1.0, a.data(), a.ld(), xt.data(), 2.0, yt.data());
  for (int j = 0; j < n; ++j) EXPECT_NEAR(yt[j], yt_ref[j], 1e-12);
}

TEST(Blas2, GerRank1Update) {
  const int m = 8, n = 5;
  Rng rng(4);
  DMat a = random_matrix(m, n, rng);
  DMat a0 = a;
  std::vector<double> x(m), y(n);
  for (int i = 0; i < m; ++i) x[i] = rng.normal();
  for (int j = 0; j < n; ++j) y[j] = rng.normal();
  ger(m, n, -2.0, x.data(), y.data(), a.data(), a.ld());
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      EXPECT_NEAR(a(i, j), a0(i, j) - 2.0 * x[i] * y[j], 1e-13);
    }
  }
}

TEST(Blas3, GemmAllTransposeCombos) {
  const int m = 9, n = 7, k = 5;
  Rng rng(5);
  DMat an = random_matrix(m, k, rng);
  DMat at = random_matrix(k, m, rng);
  DMat bn = random_matrix(k, n, rng);
  DMat bt = random_matrix(n, k, rng);

  auto reference = [&](const DMat& aa, bool tra, const DMat& bb, bool trb) {
    DMat c(m, n);
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < m; ++i) {
        double acc = 0.0;
        for (int p = 0; p < k; ++p) {
          const double av = tra ? aa(p, i) : aa(i, p);
          const double bv = trb ? bb(j, p) : bb(p, j);
          acc += av * bv;
        }
        c(i, j) = acc;
      }
    }
    return c;
  };

  struct Case {
    Trans ta, tb;
    const DMat *a, *b;
    bool ra, rb;
  };
  const Case cases[] = {
      {Trans::N, Trans::N, &an, &bn, false, false},
      {Trans::T, Trans::N, &at, &bn, true, false},
      {Trans::N, Trans::T, &an, &bt, false, true},
      {Trans::T, Trans::T, &at, &bt, true, true},
  };
  for (const auto& cs : cases) {
    DMat c(m, n);
    gemm(cs.ta, cs.tb, m, n, k, 1.0, cs.a->data(), cs.a->ld(), cs.b->data(),
         cs.b->ld(), 0.0, c.data(), c.ld());
    const DMat ref = reference(*cs.a, cs.ra, *cs.b, cs.rb);
    EXPECT_LT(frob_diff(c, ref), 1e-12) << "ta=" << (cs.ta == Trans::T)
                                        << " tb=" << (cs.tb == Trans::T);
  }
}

TEST(Blas3, GemmAlphaBeta) {
  const int m = 4, n = 3, k = 2;
  Rng rng(6);
  DMat a = random_matrix(m, k, rng);
  DMat b = random_matrix(k, n, rng);
  DMat c = random_matrix(m, n, rng);
  DMat c0 = c;
  gemm(Trans::N, Trans::N, m, n, k, 2.0, a.data(), a.ld(), b.data(), b.ld(),
       -1.0, c.data(), c.ld());
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p) acc += a(i, p) * b(p, j);
      EXPECT_NEAR(c(i, j), 2.0 * acc - c0(i, j), 1e-12);
    }
  }
}

TEST(Blas3, GemmTransTransWithAlphaBeta) {
  const int m = 11, n = 6, k = 8;
  Rng rng(55);
  DMat a = random_matrix(k, m, rng);  // op(A) = A^T is m x k
  DMat b = random_matrix(n, k, rng);  // op(B) = B^T is k x n
  DMat c = random_matrix(m, n, rng);
  DMat c0 = c;
  gemm(Trans::T, Trans::T, m, n, k, 1.5, a.data(), a.ld(), b.data(), b.ld(),
       -0.5, c.data(), c.ld());
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p) acc += a(p, i) * b(j, p);
      EXPECT_NEAR(c(i, j), 1.5 * acc - 0.5 * c0(i, j), 1e-12)
          << "i=" << i << " j=" << j;
    }
  }
}

// The cache-blocked tall-skinny paths (N,N panel update, T,N Gram product,
// syrk) kick in past the 1024-row long-dimension block; check them against
// the reference triple loop on shapes that straddle the block boundary and
// the OpenMP-enable thresholds. The contracted-dimension paths are exact.
TEST(Blas3, BlockedTallSkinnyPathsMatchReference) {
  const int m = 3000, k = 7;  // crosses kLongBlock twice, m*k > 1<<14
  Rng rng(56);
  DMat v = random_matrix(m, k, rng);
  DMat w = random_matrix(m, k, rng);

  // Gram product V^T W (T,N path).
  DMat g(k, k), g_ref(k, k);
  gemm(Trans::T, Trans::N, k, k, m, 1.0, v.data(), v.ld(), w.data(), w.ld(),
       0.0, g.data(), g.ld());
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < k; ++i) {
      double acc = 0.0;
      for (int p = 0; p < m; ++p) acc += v(p, i) * w(p, j);
      g_ref(i, j) = acc;
      EXPECT_EQ(g(i, j), g_ref(i, j)) << "i=" << i << " j=" << j;
    }
  }

  // Panel update V <- V - W G (N,N path, the BOrth projection shape).
  DMat upd = v;
  gemm(Trans::N, Trans::N, m, k, k, -1.0, w.data(), w.ld(), g.data(), g.ld(),
       1.0, upd.data(), upd.ld());
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < m; ++i) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p) acc += w(i, p) * g(p, j);
      EXPECT_NEAR(upd(i, j), v(i, j) - acc, 1e-9);
    }
  }

  // syrk against the blocked T,N gemm on the same panel.
  DMat s(k, k), s_ref(k, k);
  syrk_tn(m, k, v.data(), v.ld(), s.data(), s.ld());
  gemm(Trans::T, Trans::N, k, k, m, 1.0, v.data(), v.ld(), v.data(), v.ld(),
       0.0, s_ref.data(), s_ref.ld());
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < k; ++i) EXPECT_EQ(s(i, j), s_ref(i, j));
  }
}

// The transposed-B branches (N,T and T,T) share the blocking schemes above
// (ISSUE 4 satellite). Their determinism contract is exact — the per-element
// term order matches the naive loops they replaced — so compare with ==, on
// shapes that straddle kLongBlock, the OpenMP thresholds, and a k with a
// 4-fuse remainder.
TEST(Blas3, BlockedTransposedBPathsAreBitIdenticalToNaive) {
  Rng rng(57);
  {
    // N,T: long dimension kept; m crosses the block twice, k % 4 == 2, and
    // m*n*k exceeds the parallel threshold.
    const int m = 2500, n = 8, k = 14;
    DMat a = random_matrix(m, k, rng);
    DMat b = random_matrix(n, k, rng);
    const DMat c0 = random_matrix(m, n, rng);
    DMat c = c0, ref = c0;
    const double alpha = 1.5, beta = -0.5;
    gemm(Trans::N, Trans::T, m, n, k, alpha, a.data(), a.ld(), b.data(),
         b.ld(), beta, c.data(), c.ld());
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < m; ++i) ref(i, j) *= beta;
      for (int p = 0; p < k; ++p) {
        const double t = alpha * b(j, p);
        for (int i = 0; i < m; ++i) ref(i, j) += t * a(i, p);
      }
    }
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < m; ++i) {
        EXPECT_EQ(c(i, j), ref(i, j)) << "N,T i=" << i << " j=" << j;
      }
    }
  }
  {
    // T,T: contracted dimension crosses the block twice and m*k exceeds
    // the parallel threshold; alpha applied once after the blocked sum.
    const int m = 30, n = 5, k = 2300;
    DMat a = random_matrix(k, m, rng);
    DMat b = random_matrix(n, k, rng);
    const DMat c0 = random_matrix(m, n, rng);
    DMat c = c0, ref = c0;
    const double alpha = 2.0;
    gemm(Trans::T, Trans::T, m, n, k, alpha, a.data(), a.ld(), b.data(),
         b.ld(), 1.0, c.data(), c.ld());
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < m; ++i) {
        double s = 0.0;
        for (int p = 0; p < k; ++p) s += a(p, i) * b(j, p);
        ref(i, j) += alpha * s;
        EXPECT_EQ(c(i, j), ref(i, j)) << "T,T i=" << i << " j=" << j;
      }
    }
  }
}

// Bitwise equality, NaN payloads and signed zeros included, with the index
// of the first mismatch on failure.
::testing::AssertionResult bit_identical(const std::vector<double>& got,
                                         const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << "size " << got.size() << " vs "
                                         << want.size();
  }
  for (std::size_t e = 0; e < got.size(); ++e) {
    if (std::bit_cast<std::uint64_t>(got[e]) !=
        std::bit_cast<std::uint64_t>(want[e])) {
      return ::testing::AssertionFailure()
             << "entry " << e << ": " << got[e] << " vs " << want[e];
    }
  }
  return ::testing::AssertionSuccess();
}

// The register-tiled dot kernel under gemm(T,N), gemm(T,T), syrk_tn and
// gemv_t keeps the naive loop's operation sequence: every entry sums its k
// terms one at a time in p order from 0.0, then alpha/beta are applied with
// the documented expressions. Check that bitwise over a grid of tile tails
// (m, n mod 4), p-block boundaries (k around 1024), padded leading
// dimensions, every alpha/beta branch, and a NaN/Inf input, for every
// instruction-set build of the kernels this CPU runs (baseline included).
TEST(Blas3, DotTilesAreBitIdenticalToNaive) {
  const int sizes[] = {1, 2, 3, 4, 5, 7, 15, 16, 17, 121};
  const int depths[] = {0, 1, 3, 1023, 1024, 1025, 2667};
  const double alphas[] = {0.0, 1.0, -1.5};
  const double betas[] = {0.0, 1.0, -0.5};
  const int wmax = 121;
  Rng rng(58);
  int combo = 0;  // cycles alpha/beta through all nine pairs over the grid

  auto check_depth = [&](int k, int nan_p, int inf_p) {
    // A and B hold wmax columns of length k with padded leading dimensions;
    // Bt is B transposed (the Trans::T operand). Entries of op(A)^T op(B)
    // for leading sub-blocks are leading blocks of the full-width sums.
    const int lda = k + 3, ldb = k + 2, ldbt = wmax + 1;
    std::vector<double> a(static_cast<std::size_t>(lda) * wmax);
    std::vector<double> b(static_cast<std::size_t>(ldb) * wmax);
    std::vector<double> bt(static_cast<std::size_t>(ldbt) * std::max(k, 1));
    for (auto& e : a) e = rng.normal();
    for (auto& e : b) e = rng.normal();
    auto at = [&](int p, int i) -> double& { return a[std::size_t(i) * lda + p]; };
    auto bv = [&](int p, int j) -> double& { return b[std::size_t(j) * ldb + p]; };
    if (nan_p >= 0) at(nan_p, 2) = std::nan("");
    if (inf_p >= 0) bv(inf_p, 1) = INFINITY;
    for (int p = 0; p < k; ++p) {
      for (int j = 0; j < wmax; ++j) bt[std::size_t(p) * ldbt + j] = bv(p, j);
    }
    std::vector<double> sab(wmax * wmax), saa(wmax * wmax);
    for (int j = 0; j < wmax; ++j) {
      for (int i = 0; i < wmax; ++i) {
        double s = 0.0, g = 0.0;
        for (int p = 0; p < k; ++p) {
          s += at(p, i) * bv(p, j);
          g += at(p, i) * at(p, j);
        }
        sab[j * wmax + i] = s;
        saa[j * wmax + i] = g;
      }
    }

    for (int m : sizes) {
      for (int n : sizes) {
        const double alpha = alphas[combo % 3], beta = betas[combo / 3 % 3];
        ++combo;
        const int ldc = m + 1;
        std::vector<double> c0(static_cast<std::size_t>(ldc) * n);
        for (auto& e : c0) e = rng.normal();
        std::vector<double> want = c0;
        for (int j = 0; j < n; ++j) {
          for (int i = 0; i < m; ++i) {
            double& w = want[std::size_t(j) * ldc + i];
            if (beta == 0.0) {
              w = 0.0;
            } else if (beta != 1.0) {
              w *= beta;
            }
            if (alpha != 0.0 && k != 0) w += alpha * sab[j * wmax + i];
          }
        }
        for (const detail::Kernels& kv : detail::variants()) {
          std::vector<double> tn = c0, tt = c0;
          kv.gemm(Trans::T, Trans::N, m, n, k, alpha, a.data(), lda, b.data(),
                  ldb, beta, tn.data(), ldc);
          kv.gemm(Trans::T, Trans::T, m, n, k, alpha, a.data(), lda,
                  bt.data(), ldbt, beta, tt.data(), ldc);
          EXPECT_TRUE(bit_identical(tn, want))
              << kv.isa << " T,N m=" << m << " n=" << n << " k=" << k;
          EXPECT_TRUE(bit_identical(tt, want))
              << kv.isa << " T,T m=" << m << " n=" << n << " k=" << k;
        }
      }
      // gemv_t: y = alpha * A(:, 0:m)^T x + beta * y with x = B(:, 0).
      const double alpha = alphas[combo % 3], beta = betas[combo / 3 % 3];
      ++combo;
      std::vector<double> y(m), want(m);
      for (int j = 0; j < m; ++j) {
        y[j] = rng.normal();
        want[j] = alpha * sab[j] + (beta == 0.0 ? 0.0 : beta * y[j]);
      }
      gemv_t(k, m, alpha, a.data(), lda, b.data(), beta, y.data());
      EXPECT_TRUE(bit_identical(y, want)) << "gemv_t n=" << m << " k=" << k;

      // syrk_tn over the first m columns of A, both triangles, and the
      // single-column dot tiles under gemv_t (x = B(:, 0)).
      std::vector<double> gram(static_cast<std::size_t>(m + 1) * m, -7.0);
      const std::vector<double> c0 = gram;
      for (int j = 0; j < m; ++j) {
        for (int i = 0; i < m; ++i) {
          gram[std::size_t(j) * (m + 1) + i] =
              saa[std::max(i, j) * wmax + std::min(i, j)];
        }
      }
      const std::vector<double> col(sab.begin(), sab.begin() + m);
      for (const detail::Kernels& kv : detail::variants()) {
        std::vector<double> c = c0, acc(m);
        kv.syrk_tn(k, m, a.data(), lda, c.data(), m + 1);
        EXPECT_TRUE(bit_identical(c, gram))
            << kv.isa << " syrk_tn n=" << m << " k=" << k;
        kv.dot_tiles(m, 1, k, a.data(), lda, Trans::N, b.data(), ldb, false,
                     acc.data(), m);
        EXPECT_TRUE(bit_identical(acc, col))
            << kv.isa << " dot_tiles n=1 m=" << m << " k=" << k;
      }
    }
  };
  for (int k : depths) check_depth(k, -1, -1);
  // NaN in A's column 2 (second p-block) and +Inf in B's column 1 reach the
  // same entries as in the naive loop.
  check_depth(1025, 1024, 3);
}

// The baseline build is always available and listed first, so every
// variant test below exercises it even on a host with wider vectors.
TEST(Blas3, KernelVariantsStartWithBaseline) {
  ASSERT_FALSE(detail::variants().empty());
  EXPECT_STREQ(detail::variants()[0].isa, "baseline");
}

// The register-tiled panel update under gemm(N,N) and gemm(N,T) keeps the
// naive j/p/i loop's operation sequence: every entry starts from beta * C
// (or 0, or C) and adds alpha * op(B)(p,j) * A(i,p) one term at a time in
// p order. Check that bitwise over row-tile tails (m mod 8), column-tile
// tails (n mod 4), k across kLongBlock, padded leading dimensions (the
// padding row of C must stay untouched), all nine alpha/beta pairs, and a
// NaN/Inf input, for every instruction-set build of the kernels.
TEST(Blas3, PanelUpdateIsBitIdenticalToNaive) {
  const double alphas[] = {0.0, 1.0, -1.5};
  const double betas[] = {0.0, 1.0, -0.5};
  Rng rng(59);
  int combo = 0;  // cycles alpha/beta through all nine pairs over the grid

  auto check = [&](int m, int n, int k, bool plant) {
    const double alpha = alphas[combo % 3], beta = betas[combo / 3 % 3];
    ++combo;
    const int lda = m + 3, ldb = k + 2, ldbt = n + 1, ldc = m + 1;
    std::vector<double> a(static_cast<std::size_t>(lda) * k);
    std::vector<double> b(static_cast<std::size_t>(ldb) * n);
    std::vector<double> bt(static_cast<std::size_t>(ldbt) * k);
    std::vector<double> c0(static_cast<std::size_t>(ldc) * n);
    for (auto& e : a) e = rng.normal();
    for (auto& e : b) e = rng.normal();
    for (auto& e : c0) e = rng.normal();
    auto av = [&](int i, int p) -> double& { return a[std::size_t(p) * lda + i]; };
    auto bv = [&](int p, int j) -> double& { return b[std::size_t(j) * ldb + p]; };
    if (plant) {
      av(m - 1, k / 2) = std::nan("");
      bv(k - 1, n - 1) = INFINITY;
    }
    for (int p = 0; p < k; ++p) {
      for (int j = 0; j < n; ++j) bt[std::size_t(p) * ldbt + j] = bv(p, j);
    }
    std::vector<double> want = c0;
    for (int j = 0; j < n; ++j) {
      double* w = want.data() + std::size_t(j) * ldc;
      if (beta == 0.0) {
        for (int i = 0; i < m; ++i) w[i] = 0.0;
      } else if (beta != 1.0) {
        for (int i = 0; i < m; ++i) w[i] *= beta;
      }
      if (alpha == 0.0) continue;
      for (int p = 0; p < k; ++p) {
        const double t = alpha * bv(p, j);
        for (int i = 0; i < m; ++i) w[i] += t * av(i, p);
      }
    }
    for (const detail::Kernels& kv : detail::variants()) {
      std::vector<double> nn = c0, nt = c0;
      kv.gemm(Trans::N, Trans::N, m, n, k, alpha, a.data(), lda, b.data(), ldb,
              beta, nn.data(), ldc);
      kv.gemm(Trans::N, Trans::T, m, n, k, alpha, a.data(), lda, bt.data(),
              ldbt, beta, nt.data(), ldc);
      EXPECT_TRUE(bit_identical(nn, want))
          << kv.isa << " N,N m=" << m << " n=" << n << " k=" << k;
      EXPECT_TRUE(bit_identical(nt, want))
          << kv.isa << " N,T m=" << m << " n=" << n << " k=" << k;
    }
  };
  for (int k : {0, 1, 3, 4, 5, 16, 121}) {
    for (int m : {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 1030}) {
      for (int n : {1, 2, 3, 4, 5, 7, 8, 16, 17}) check(m, n, k, false);
    }
  }
  for (int k : {1023, 1024, 1025}) {
    for (int m : {5, 17, 1030}) {
      for (int n : {3, 16}) check(m, n, k, false);
    }
  }
  // NaN in A's last row and +Inf in B's last entry reach the same entries
  // as in the naive loop.
  check(2667, 16, 121, true);
  check(9, 5, 1025, true);
}

// The column sweep trsm_right_upper replaced: column j subtracts every
// finished column p < j with R(p,j) != 0, then scales by 1 / R(j,j).
void trsm_column_sweep(int m, int n, const double* r, int ldr, double* b,
                       int ldb) {
  for (int j = 0; j < n; ++j) {
    double* bj = b + std::size_t(j) * ldb;
    for (int p = 0; p < j; ++p) {
      const double t = r[std::size_t(j) * ldr + p];
      if (t == 0.0) continue;
      const double* bp = b + std::size_t(p) * ldb;
      for (int i = 0; i < m; ++i) bj[i] -= t * bp[i];
    }
    const double inv = 1.0 / r[std::size_t(j) * ldr + j];
    for (int i = 0; i < m; ++i) bj[i] *= inv;
  }
}

// The row-tiled trsm keeps the column sweep's operation sequence per entry,
// so it matches it bitwise: m not a multiple of the row tile, padded
// leading dimensions (padding rows untouched), zero off-diagonal entries of
// R skipped, and a planted NaN in B and Inf in R, for every build. A zero
// diagonal throws after solving exactly the columns before it.
TEST(Blas3, TrsmIsBitIdenticalToColumnSweep) {
  Rng rng(60);
  auto make_r = [&](int n, int ldr) {
    std::vector<double> r(static_cast<std::size_t>(ldr) * n, 0.0);
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < j; ++i) {
        // Every third off-diagonal entry is an exact zero.
        r[std::size_t(j) * ldr + i] = (i + 2 * j) % 3 == 0 ? 0.0 : rng.normal();
      }
      r[std::size_t(j) * ldr + j] = 4.0 + rng.uniform();
    }
    return r;
  };
  for (int m : {1, 3, 7, 8, 9, 15, 16, 17, 340, 2700}) {
    for (int n : {1, 2, 5, 16, 31}) {
      const int ldr = n + 1, ldb = m + 3;
      std::vector<double> r = make_r(n, ldr);
      std::vector<double> b0(static_cast<std::size_t>(ldb) * n);
      for (auto& e : b0) e = rng.normal();
      if (m == 17 && n >= 5) {
        b0[std::size_t(1) * ldb + 16] = std::nan("");
        r[std::size_t(4) * ldr + 2] = INFINITY;
      }
      std::vector<double> want = b0;
      trsm_column_sweep(m, n, r.data(), ldr, want.data(), ldb);
      for (const detail::Kernels& kv : detail::variants()) {
        std::vector<double> got = b0;
        kv.trsm_right_upper(m, n, r.data(), ldr, got.data(), ldb);
        EXPECT_TRUE(bit_identical(got, want))
            << kv.isa << " m=" << m << " n=" << n;
      }
    }
  }
  // Zero diagonal at column 3 of 5: columns 0..2 solved, 3..4 untouched.
  const int m = 19, n = 5;
  std::vector<double> r = make_r(n, n);
  r[std::size_t(3) * n + 3] = 0.0;
  std::vector<double> b0(static_cast<std::size_t>(m) * n);
  for (auto& e : b0) e = rng.normal();
  std::vector<double> want = b0;
  trsm_column_sweep(m, 3, r.data(), n, want.data(), m);
  for (const detail::Kernels& kv : detail::variants()) {
    std::vector<double> got = b0;
    EXPECT_THROW(kv.trsm_right_upper(m, n, r.data(), n, got.data(), m), Error)
        << kv.isa;
    EXPECT_TRUE(bit_identical(got, want)) << kv.isa << " zero diagonal";
  }
}

TEST(Blas3, SyrkMatchesGemm) {
  const int m = 50, n = 6;
  Rng rng(7);
  DMat a = random_matrix(m, n, rng);
  DMat c(n, n), ref(n, n);
  syrk_tn(m, n, a.data(), a.ld(), c.data(), c.ld());
  gemm(Trans::T, Trans::N, n, n, m, 1.0, a.data(), a.ld(), a.data(), a.ld(),
       0.0, ref.data(), ref.ld());
  // Same dot kernel, same term order: exact, and exactly symmetric.
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(c(i, j), ref(i, j));
      EXPECT_EQ(c(i, j), c(j, i));
    }
  }
}

TEST(Blas3, TrsmThenTrmmRoundTrips) {
  const int m = 20, n = 5;
  Rng rng(8);
  DMat r(n, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) r(i, j) = rng.normal();
    r(j, j) += 4.0;  // well conditioned
  }
  DMat b = random_matrix(m, n, rng);
  DMat b0 = b;
  trsm_right_upper(m, n, r.data(), r.ld(), b.data(), b.ld());
  trmm_right_upper(m, n, r.data(), r.ld(), b.data(), b.ld());
  EXPECT_LT(frob_diff(b, b0), 1e-12);
}

TEST(Blas3, TrsmSingularThrows) {
  DMat r(2, 2);
  r(0, 0) = 1.0;
  r(1, 1) = 0.0;
  DMat b(3, 2);
  EXPECT_THROW(trsm_right_upper(3, 2, r.data(), r.ld(), b.data(), b.ld()),
               Error);
}

TEST(Lapack, CholeskyFactorizesSpd) {
  const int n = 8;
  Rng rng(9);
  DMat g = random_matrix(20, n, rng);
  DMat b(n, n);
  syrk_tn(20, n, g.data(), g.ld(), b.data(), b.ld());
  for (int j = 0; j < n; ++j) b(j, j) += 1.0;

  DMat r = b;
  ASSERT_EQ(potrf_upper(r), -1);
  // R^T R == B.
  DMat rtr(n, n);
  gemm(Trans::T, Trans::N, n, n, n, 1.0, r.data(), r.ld(), r.data(), r.ld(),
       0.0, rtr.data(), rtr.ld());
  EXPECT_LT(frob_diff(rtr, b), 1e-10);
  // Strict lower triangle zeroed.
  for (int j = 0; j < n; ++j) {
    for (int i = j + 1; i < n; ++i) EXPECT_EQ(r(i, j), 0.0);
  }
}

TEST(Lapack, CholeskyReportsBreakdownColumn) {
  DMat b(3, 3);
  b(0, 0) = 4.0;
  b(1, 1) = 1.0;
  b(2, 2) = -1.0;  // indefinite
  EXPECT_EQ(potrf_upper(b), 2);

  DMat nan_mat(2, 2);
  nan_mat(0, 0) = std::nan("");
  EXPECT_EQ(potrf_upper(nan_mat), 0);
}

TEST(Lapack, QrExplicitReconstructs) {
  const int m = 40, n = 7;
  Rng rng(10);
  DMat v = random_matrix(m, n, rng);
  DMat q, r;
  qr_explicit(v, q, r);

  // Q^T Q == I.
  DMat qtq(n, n);
  gemm(Trans::T, Trans::N, n, n, m, 1.0, q.data(), q.ld(), q.data(), q.ld(),
       0.0, qtq.data(), qtq.ld());
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(qtq(i, j), i == j ? 1.0 : 0.0, 1e-12);
    }
  }
  // Q R == V.
  DMat qr = q;
  trmm_right_upper(m, n, r.data(), r.ld(), qr.data(), qr.ld());
  EXPECT_LT(frob_diff(qr, v), 1e-11);
  // Positive diagonal and upper triangularity of R.
  for (int j = 0; j < n; ++j) {
    EXPECT_GT(r(j, j), 0.0);
    for (int i = j + 1; i < n; ++i) EXPECT_EQ(r(i, j), 0.0);
  }
}

TEST(Lapack, QrHandlesSquareAndSingleColumn) {
  Rng rng(11);
  DMat v = random_matrix(5, 5, rng);
  DMat q, r;
  qr_explicit(v, q, r);
  DMat qr = q;
  trmm_right_upper(5, 5, r.data(), r.ld(), qr.data(), qr.ld());
  EXPECT_LT(frob_diff(qr, v), 1e-11);

  DMat col = random_matrix(9, 1, rng);
  qr_explicit(col, q, r);
  EXPECT_NEAR(r(0, 0), nrm2(9, col.col(0)), 1e-12);
}

TEST(Lapack, TrsvAndTrtri) {
  const int n = 6;
  Rng rng(12);
  DMat r(n, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) r(i, j) = rng.normal();
    r(j, j) += 3.0;
  }
  std::vector<double> b(n), x(n);
  for (int i = 0; i < n; ++i) b[i] = rng.normal();
  x = b;
  trsv_upper(r, x.data());
  // R x == b.
  for (int i = 0; i < n; ++i) {
    double acc = 0.0;
    for (int j = i; j < n; ++j) acc += r(i, j) * x[j];
    EXPECT_NEAR(acc, b[i], 1e-11);
  }

  DMat rinv = r;
  trtri_upper(rinv);
  DMat prod(n, n);
  gemm(Trans::N, Trans::N, n, n, n, 1.0, r.data(), r.ld(), rinv.data(),
       rinv.ld(), 0.0, prod.data(), prod.ld());
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-11);
    }
  }
}

TEST(JacobiEigh, DiagonalizesSymmetricMatrix) {
  const int n = 10;
  Rng rng(13);
  DMat g = random_matrix(30, n, rng);
  DMat b(n, n);
  syrk_tn(30, n, g.data(), g.ld(), b.data(), b.ld());

  const EighResult e = jacobi_eigh(b);
  // Eigenvalues descending and non-negative (B is a Gram matrix).
  for (int i = 1; i < n; ++i) EXPECT_LE(e.w[i], e.w[i - 1]);
  EXPECT_GE(e.w.back(), -1e-10);

  // U diag(w) U^T == B.
  DMat usqrt = e.u;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) usqrt(i, j) *= e.w[static_cast<std::size_t>(j)];
  }
  DMat recon(n, n);
  gemm(Trans::N, Trans::T, n, n, n, 1.0, usqrt.data(), usqrt.ld(),
       e.u.data(), e.u.ld(), 0.0, recon.data(), recon.ld());
  EXPECT_LT(frob_diff(recon, b), 1e-9 * (1.0 + e.w.front()));

  // U orthonormal.
  DMat utu(n, n);
  gemm(Trans::T, Trans::N, n, n, n, 1.0, e.u.data(), e.u.ld(), e.u.data(),
       e.u.ld(), 0.0, utu.data(), utu.ld());
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(utu(i, j), i == j ? 1.0 : 0.0, 1e-11);
    }
  }
}

TEST(JacobiEigh, KnownEigenvalues) {
  DMat a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 2.0;
  const EighResult e = jacobi_eigh(a);
  EXPECT_NEAR(e.w[0], 3.0, 1e-13);
  EXPECT_NEAR(e.w[1], 1.0, 1e-13);
}

TEST(HessenbergEig, UpperTriangularGivesDiagonal) {
  const int n = 5;
  DMat h(n, n);
  for (int i = 0; i < n; ++i) h(i, i) = i + 1.0;
  h(0, 4) = 3.0;
  auto eig = hessenberg_eig(h);
  std::vector<double> re;
  for (const auto& e : eig) {
    EXPECT_NEAR(e.imag(), 0.0, 1e-12);
    re.push_back(e.real());
  }
  std::sort(re.begin(), re.end());
  for (int i = 0; i < n; ++i) EXPECT_NEAR(re[i], i + 1.0, 1e-10);
}

TEST(HessenbergEig, RotationBlockGivesComplexPair) {
  // [[cos, -sin], [sin, cos]] scaled by rho has eigenvalues rho*e^{+-i t}.
  const double rho = 2.0, t = 0.7;
  DMat h(2, 2);
  h(0, 0) = rho * std::cos(t);
  h(0, 1) = -rho * std::sin(t);
  h(1, 0) = rho * std::sin(t);
  h(1, 1) = rho * std::cos(t);
  auto eig = hessenberg_eig(h);
  ASSERT_EQ(eig.size(), 2u);
  EXPECT_NEAR(std::abs(eig[0]), rho, 1e-12);
  EXPECT_NEAR(std::abs(eig[0].imag()), rho * std::sin(t), 1e-12);
  EXPECT_NEAR(eig[0].real(), rho * std::cos(t), 1e-12);
  EXPECT_NEAR(eig[0].imag() + eig[1].imag(), 0.0, 1e-12);
}

TEST(HessenbergEig, RandomHessenbergTraceAndProduct) {
  // Eigenvalue sum equals the trace; their product equals the determinant
  // (checked via |det| from the eigenvalue moduli of a small matrix).
  const int n = 8;
  Rng rng(14);
  DMat h(n, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= std::min(j + 1, n - 1); ++i) h(i, j) = rng.normal();
  }
  auto eig = hessenberg_eig(h);
  std::complex<double> sum = 0.0;
  for (const auto& e : eig) sum += e;
  double trace = 0.0;
  for (int i = 0; i < n; ++i) trace += h(i, i);
  EXPECT_NEAR(sum.real(), trace, 1e-9);
  EXPECT_NEAR(sum.imag(), 0.0, 1e-9);
}

TEST(GivensLS, MatchesNormalEquationsOnHessenberg) {
  const int m = 6;
  Rng rng(15);
  DMat h(m + 1, m);
  for (int j = 0; j < m; ++j) {
    for (int i = 0; i <= j + 1; ++i) h(i, j) = rng.normal();
  }
  const double beta = 3.0;
  double res = 0.0;
  const std::vector<double> y = solve_hessenberg_ls(h, beta, &res);

  // Residual vector r = beta*e1 - H y must be orthogonal to range(H).
  std::vector<double> r(static_cast<std::size_t>(m) + 1, 0.0);
  r[0] = beta;
  for (int j = 0; j < m; ++j) {
    for (int i = 0; i <= j + 1; ++i) r[static_cast<std::size_t>(i)] -= h(i, j) * y[static_cast<std::size_t>(j)];
  }
  for (int j = 0; j < m; ++j) {
    double acc = 0.0;
    for (int i = 0; i <= j + 1; ++i) acc += h(i, j) * r[static_cast<std::size_t>(i)];
    EXPECT_NEAR(acc, 0.0, 1e-10);
  }
  EXPECT_NEAR(res, nrm2(m + 1, r.data()), 1e-10);
}

TEST(GivensLS, ProgressiveResidualIsMonotone) {
  const int m = 10;
  Rng rng(16);
  GivensLS ls(m, 1.0);
  double prev = 1.0;
  std::vector<double> col(static_cast<std::size_t>(m) + 1);
  for (int j = 0; j < m; ++j) {
    for (int i = 0; i <= j + 1; ++i) col[static_cast<std::size_t>(i)] = rng.normal();
    const double res = ls.append_column(col.data());
    EXPECT_LE(res, prev + 1e-12);
    prev = res;
  }
  EXPECT_EQ(ls.size(), m);
}

TEST(GivensLS, ExactSystemGivesZeroResidual) {
  // H y = beta*e1 solvable exactly when H is square-ish with last row 0.
  DMat h(3, 2);
  h(0, 0) = 2.0;
  h(1, 0) = 1.0;
  h(0, 1) = 0.0;
  h(1, 1) = 1.0;
  h(2, 1) = 0.0;
  // With h(2,1)=0 the 3rd equation is trivially satisfiable.
  double res = 0.0;
  const auto y = solve_hessenberg_ls(h, 4.0, &res);
  EXPECT_NEAR(res, 0.0, 1e-12);
  EXPECT_NEAR(2.0 * y[0] + 0.0 * y[1], 4.0, 1e-12);
  EXPECT_NEAR(1.0 * y[0] + 1.0 * y[1], 0.0, 1e-12);
}

TEST(MatrixClass, BoundsAndFill) {
  DMat a(3, 2);
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 2);
  a.fill(7.0);
  for (int j = 0; j < 2; ++j) {
    for (int i = 0; i < 3; ++i) EXPECT_EQ(a(i, j), 7.0);
  }
  EXPECT_EQ(a.col(1), a.data() + 3);
}

}  // namespace
}  // namespace cagmres::blas
