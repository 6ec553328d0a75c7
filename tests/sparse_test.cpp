// Unit tests for the sparse-matrix substrate: CSR/ELL/COO, I/O, generators,
// balancing, and stats.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sparse/balance.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/ell.hpp"
#include "sparse/generators.hpp"
#include "sparse/io.hpp"
#include "sparse/stats.hpp"

namespace cagmres::sparse {
namespace {

CsrMatrix small_matrix() {
  // [[2, -1, 0], [0, 3, 1], [4, 0, 5]]
  CooBuilder b(3, 3);
  b.add(0, 0, 2.0);
  b.add(0, 1, -1.0);
  b.add(1, 1, 3.0);
  b.add(1, 2, 1.0);
  b.add(2, 0, 4.0);
  b.add(2, 2, 5.0);
  return b.build();
}

TEST(Coo, BuildsSortedCsrAndMergesDuplicates) {
  CooBuilder b(2, 2);
  b.add(1, 1, 1.0);
  b.add(0, 1, 2.0);
  b.add(0, 0, 3.0);
  b.add(0, 1, 4.0);  // duplicate, summed
  CsrMatrix a = b.build();
  a.validate();
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 0.0);
}

TEST(Csr, SpmvMatchesDense) {
  CsrMatrix a = small_matrix();
  const double x[3] = {1.0, 2.0, 3.0};
  double y[3];
  spmv(a, x, y);
  EXPECT_DOUBLE_EQ(y[0], 2.0 * 1 - 1.0 * 2);
  EXPECT_DOUBLE_EQ(y[1], 3.0 * 2 + 1.0 * 3);
  EXPECT_DOUBLE_EQ(y[2], 4.0 * 1 + 5.0 * 3);
}

TEST(Csr, SpmvTransposeMatchesExplicitTranspose) {
  CsrMatrix a = small_matrix();
  CsrMatrix at = transpose(a);
  at.validate();
  const double x[3] = {-1.0, 0.5, 2.0};
  double y1[3], y2[3];
  spmv_transpose(a, x, y1);
  spmv(at, x, y2);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-14);
}

TEST(Csr, ExtractRowsKeepsValues) {
  CsrMatrix a = small_matrix();
  CsrMatrix sub = extract_rows(a, {2, 0});
  EXPECT_EQ(sub.n_rows, 2);
  EXPECT_DOUBLE_EQ(sub.at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(sub.at(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(sub.at(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(sub.at(1, 1), -1.0);
}

TEST(Csr, SymmetricPermutationPreservesSpmv) {
  Rng rng(21);
  CsrMatrix a = make_laplace2d(7, 5, 0.3);
  const int n = a.n_rows;
  const std::vector<int> p = rng.permutation(n);
  CsrMatrix ap = permute_symmetric(a, p);
  ap.validate();

  std::vector<double> x(n), y(n), xp(n), yp(n);
  for (int i = 0; i < n; ++i) x[i] = rng.normal();
  for (int i = 0; i < n; ++i) xp[i] = x[static_cast<std::size_t>(p[i])];
  spmv(a, x.data(), y.data());
  spmv(ap, xp.data(), yp.data());
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(yp[i], y[static_cast<std::size_t>(p[i])], 1e-13);
  }
}

TEST(Csr, PermuteRejectsNonPermutation) {
  CsrMatrix a = small_matrix();
  EXPECT_THROW(permute_symmetric(a, {0, 0, 1}), Error);
  EXPECT_THROW(permute_symmetric(a, {0, 1}), Error);
}

TEST(Csr, FrobeniusNorm) {
  CsrMatrix a = small_matrix();
  EXPECT_NEAR(frobenius_norm(a), std::sqrt(4.0 + 1 + 9 + 1 + 16 + 25), 1e-14);
}

TEST(Ell, ConversionAndSpmvMatchCsr) {
  Rng rng(22);
  CsrMatrix a = make_circuit_like(0.06, true, 7);
  EllMatrix e = to_ell(a);
  EXPECT_GE(e.width, 1);
  const int n = a.n_rows;
  std::vector<double> x(n), y1(n), y2(n);
  for (int i = 0; i < n; ++i) x[i] = rng.normal();
  spmv(a, x.data(), y1.data());
  spmv(e, x.data(), y2.data());
  for (int i = 0; i < n; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
  EXPECT_GE(padding_ratio(e, a.nnz()), 0.0);
  EXPECT_LT(padding_ratio(e, a.nnz()), 1.0);
}

// A random ELL block shaped like an MPK device block: n rows reading
// n + 8 columns (owned rows plus a ghost slice), row lengths drawn in
// [0, width] with the last row full, and to_ell's padding (own row, 0.0).
EllMatrix random_ell(int n, int width, Rng& rng) {
  EllMatrix e;
  e.n_rows = n;
  e.n_cols = n + 8;
  e.width = width;
  e.col_idx.resize(static_cast<std::size_t>(n) * width);
  e.vals.assign(e.col_idx.size(), 0.0);
  for (int i = 0; i < n; ++i) {
    const int len = i == n - 1 ? width
                               : static_cast<int>(rng.bounded(
                                     static_cast<std::uint64_t>(width) + 1));
    for (int k = 0; k < width; ++k) {
      const std::size_t slot = static_cast<std::size_t>(k) * n + i;
      if (k < len) {
        e.col_idx[slot] = static_cast<int>(
            rng.bounded(static_cast<std::uint64_t>(e.n_cols)));
        e.vals[slot] = rng.normal();
      } else {
        e.col_idx[slot] = i;
      }
    }
  }
  return e;
}

/// The scalar row loop the ELL kernels must reproduce bit for bit.
std::vector<double> scalar_spmv(const EllMatrix& e,
                                const std::vector<double>& x) {
  std::vector<double> y(static_cast<std::size_t>(e.n_rows));
  for (int i = 0; i < e.n_rows; ++i) {
    double acc = 0.0;
    for (int k = 0; k < e.width; ++k) {
      const std::size_t slot = static_cast<std::size_t>(k) * e.n_rows + i;
      acc += e.vals[slot] * x[static_cast<std::size_t>(e.col_idx[slot])];
    }
    y[static_cast<std::size_t>(i)] = acc;
  }
  return y;
}

/// Bitwise equality, except that any two NaNs match: when two NaNs meet
/// in an add (an input NaN and the default NaN of Inf * 0.0), IEEE 754
/// leaves which one propagates unspecified, x86 keeps the first operand's,
/// and the compiler may swap the operands of a commutative add (the -O1
/// sanitizer build orders them unlike the optimized build).
::testing::AssertionResult same_bits(const std::vector<double>& got,
                                     const std::vector<double>& want) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i])) {
      return ::testing::AssertionFailure()
             << "row " << i << ": " << got[i] << " vs " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<double> random_x(const EllMatrix& e, Rng& rng) {
  std::vector<double> x(static_cast<std::size_t>(e.n_cols));
  for (double& v : x) v = rng.normal();
  return x;
}

// Every build's row-blocked kernel against the scalar loop: row counts
// around the block sizes (7 = 3 * 2 + 1 and 13 = 3 * 4 + 1 leave a one-row
// scalar tail after full blocks at either width), widths from 1 to the
// cant block's 27, padded rows, and a block above kSpmvParallelRows that
// takes the OpenMP branch.
TEST(Ell, RowBlockedKernelIsBitIdenticalToScalarLoop) {
  Rng rng(31);
  for (const int n : {0, 1, 7, 8, 9, 13, 17, kSpmvParallelRows + 5}) {
    for (const int width : {1, 7, 10, 27}) {
      if (n > kSpmvParallelRows && width != 7) continue;
      const EllMatrix e = random_ell(n, width, rng);
      const std::vector<double> x = random_x(e, rng);
      const std::vector<double> want = scalar_spmv(e, x);
      for (const detail::EllKernels& kv : detail::variants()) {
        std::vector<double> y(want.size(), -1.0);
        kv.spmv(e, x.data(), y.data());
        EXPECT_TRUE(same_bits(y, want))
            << kv.isa << " n=" << n << " width=" << width;
      }
      std::vector<double> y(want.size(), -1.0);
      spmv(e, x.data(), y.data());
      EXPECT_TRUE(same_bits(y, want)) << "public n=" << n << " w=" << width;
    }
  }
}

TEST(Ell, KernelVariantsStartWithBaseline) {
  ASSERT_FALSE(detail::variants().empty());
  EXPECT_STREQ(detail::variants()[0].isa, "baseline");
}

// NaN, +-Inf and -0.0 in x and in the values reach exactly the rows the
// scalar loop sends them to, with its bits (NaN as NaN; Inf * 0.0 on a
// padding slot included), in the blocked rows and in the scalar tail.
TEST(Ell, NonFiniteAndSignedZeroInputsMatchScalarLoop) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(32);
  for (const int n : {9, 13, 17}) {
    for (const int width : {1, 7, 10}) {
      EllMatrix e = random_ell(n, width, rng);
      std::vector<double> x = random_x(e, rng);
      x[0] = nan;
      x[static_cast<std::size_t>(n / 2)] = inf;
      x[static_cast<std::size_t>(n - 1)] = -inf;
      x[static_cast<std::size_t>(n + 3)] = -0.0;
      e.vals[static_cast<std::size_t>(n) * (width - 1) + 1] = -0.0;
      e.vals[static_cast<std::size_t>(n - 2)] = inf;
      const std::vector<double> want = scalar_spmv(e, x);
      for (const detail::EllKernels& kv : detail::variants()) {
        std::vector<double> y(want.size(), -1.0);
        kv.spmv(e, x.data(), y.data());
        EXPECT_TRUE(same_bits(y, want))
            << kv.isa << " n=" << n << " width=" << width;
      }
    }
  }
}

// The fused MPK step against the three passes it replaced: the SpMV, then
// z -= theta x (and z += beta2 x2 on a pair's second member) only when the
// step is shifted, then the copy into the basis with the finiteness check.
// Monomial steps (theta = +0.0 and -0.0) must not run the epilogue: row
// 0's x entry is +Inf while no slot of row 0 reads it, so a
// theta * x(0) term would turn y(0) into NaN.
TEST(Ell, FusedStepIsBitIdenticalToThreePassReference) {
  const double inf = std::numeric_limits<double>::infinity();
  const StepShift shifts[] = {
      {0.0, false, 0.0},    // monomial
      {-0.0, false, 0.0},   // monomial, signed zero
      {0.75, false, 0.0},   // real Newton
      {-0.3, true, 0.49},   // second member of a complex pair
      {0.0, true, 0.25},    // pair second with a zero real part
  };
  Rng rng(33);
  for (const int n : {1, 7, 8, 9, 13, 17, kSpmvParallelRows + 5}) {
    for (const int width : {1, 7, 10, 27}) {
      if (n > kSpmvParallelRows && width != 7) continue;
      EllMatrix e = random_ell(n, width, rng);
      for (int k = 0; k < width; ++k) {  // row 0: full, never column 0
        const std::size_t slot = static_cast<std::size_t>(k) * n;
        e.col_idx[slot] = 1 + static_cast<int>(rng.bounded(
                                  static_cast<std::uint64_t>(e.n_cols - 1)));
        e.vals[slot] = rng.normal();
      }
      for (int& c : e.col_idx) c = c == 0 ? 1 : c;  // and no other row
      std::vector<double> x = random_x(e, rng), x2 = random_x(e, rng);
      for (const StepShift& sh : shifts) {
        x[0] = sh.shifted() ? rng.normal() : inf;
        std::vector<double> z = scalar_spmv(e, x);
        if (sh.shifted()) {
          for (int i = 0; i < n; ++i) {
            const auto u = static_cast<std::size_t>(i);
            z[u] -= sh.theta * x[u];
            if (sh.pair_second) z[u] += sh.beta2 * x2[u];
          }
        }
        bool want_ok = true;
        for (const double v : z) want_ok = want_ok && std::isfinite(v);
        ASSERT_TRUE(want_ok);
        for (const detail::EllKernels& kv : detail::variants()) {
          std::vector<double> got_z(z.size(), -1.0), got_out(z.size(), -1.0);
          const bool ok = kv.mpk_step(e, x.data(), x2.data(), sh,
                                      got_z.data(), got_out.data());
          EXPECT_TRUE(ok) << kv.isa;
          EXPECT_TRUE(same_bits(got_z, z))
              << kv.isa << " z n=" << n << " width=" << width
              << " theta=" << sh.theta << " pair=" << sh.pair_second;
          EXPECT_TRUE(same_bits(got_out, z))
              << kv.isa << " out n=" << n << " width=" << width
              << " theta=" << sh.theta << " pair=" << sh.pair_second;
        }
      }
    }
  }
}

// The fused step's finite flag: false as soon as one row's result is NaN
// or +-Inf, wherever that row sits (first block, last block, scalar
// tail), and the row still holds the scalar loop's value.
TEST(Ell, FusedStepFlagsNanAndInf) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  Rng rng(34);
  for (const int n : {9, 13, 17}) {
    const EllMatrix e = random_ell(n, 7, rng);
    const std::vector<double> x0 = random_x(e, rng);
    for (const int row : {0, n / 2, n - 1}) {
      for (const double b : bad) {
        std::vector<double> x = x0;
        const int col = n + 1;  // a ghost column
        EllMatrix f = e;
        for (int k = 0; k < f.width; ++k) {  // `row` reads it in every slot
          const std::size_t slot = static_cast<std::size_t>(k) * n + row;
          f.col_idx[slot] = col;
          f.vals[slot] = k == 0 ? 1.0 : 0.5;
        }
        x[static_cast<std::size_t>(col)] = b;
        const std::vector<double> want = scalar_spmv(f, x);
        for (const detail::EllKernels& kv : detail::variants()) {
          std::vector<double> z(want.size()), out(want.size());
          EXPECT_FALSE(kv.mpk_step(f, x.data(), nullptr, StepShift{},
                                   z.data(), out.data()))
              << kv.isa << " n=" << n << " row=" << row << " value=" << b;
          EXPECT_TRUE(same_bits(z, want)) << kv.isa;
          EXPECT_TRUE(same_bits(out, want)) << kv.isa;
          EXPECT_TRUE(kv.mpk_step(e, x0.data(), nullptr, StepShift{},
                                  z.data(), out.data()))
              << kv.isa;
        }
      }
    }
  }
}

TEST(Io, RoundTripsGeneralMatrix) {
  CsrMatrix a = small_matrix();
  std::stringstream ss;
  write_matrix_market(a, ss);
  CsrMatrix b = read_matrix_market(ss);
  b.validate();
  EXPECT_EQ(b.n_rows, a.n_rows);
  EXPECT_EQ(b.nnz(), a.nnz());
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(b.at(i, j), a.at(i, j));
  }
}

TEST(Io, ExpandsSymmetricStorage) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real symmetric\n"
     << "% comment line\n"
     << "3 3 3\n"
     << "1 1 2.0\n"
     << "2 1 -1.0\n"
     << "3 3 5.0\n";
  CsrMatrix a = read_matrix_market(ss);
  EXPECT_EQ(a.nnz(), 4);  // off-diagonal mirrored
  EXPECT_DOUBLE_EQ(a.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1.0);
}

TEST(Io, RejectsGarbage) {
  std::stringstream ss("not a matrix\n");
  EXPECT_THROW(read_matrix_market(ss), Error);
}

TEST(Generators, Laplace2dStructure) {
  CsrMatrix a = make_laplace2d(4, 3);
  a.validate();
  EXPECT_EQ(a.n_rows, 12);
  const MatrixStats st = compute_stats(a);
  EXPECT_TRUE(st.structurally_symmetric);
  EXPECT_EQ(st.max_row_nnz, 5);
  // Diagonal dominance for the pure Laplacian with boundary.
  for (int i = 0; i < a.n_rows; ++i) {
    double off = 0.0;
    const double d = a.at(i, i);
    const auto lo = a.row_ptr[static_cast<std::size_t>(i)];
    const auto hi = a.row_ptr[static_cast<std::size_t>(i) + 1];
    for (auto k = lo; k < hi; ++k) {
      if (a.col_idx[static_cast<std::size_t>(k)] != i) {
        off += std::fabs(a.vals[static_cast<std::size_t>(k)]);
      }
    }
    EXPECT_GE(d, off);
  }
}

TEST(Generators, ConvectionBreaksSymmetryOfValuesNotPattern) {
  CsrMatrix a = make_laplace3d(4, 4, 4, 0.5);
  const MatrixStats st = compute_stats(a);
  EXPECT_TRUE(st.structurally_symmetric);
  // Values differ across the diagonal.
  EXPECT_NE(a.at(0, 1), a.at(1, 0));
}

TEST(Generators, CantLikeIsBandedStencil) {
  CsrMatrix a = make_cant_like(0.35);
  a.validate();
  const MatrixStats st = compute_stats(a);
  EXPECT_GT(st.avg_row_nnz, 15.0);  // 27-pt stencil, thin beam boundary
  EXPECT_LE(st.max_row_nnz, 27);
  // Banded: bandwidth much smaller than n (the beam's long axis is the
  // fastest-varying index, so the band is ~ 2 * nx * ny).
  EXPECT_LT(st.bandwidth, st.n / 2);
}

TEST(Generators, CircuitLikeScrambledHasNoLocality) {
  CsrMatrix scr = make_circuit_like(0.06, true, 11);
  CsrMatrix nat = make_circuit_like(0.06, false, 11);
  const MatrixStats s1 = compute_stats(scr);
  const MatrixStats s2 = compute_stats(nat);
  EXPECT_EQ(s1.nnz, s2.nnz);
  // Scrambling should blow up the average bandwidth.
  EXPECT_GT(s1.avg_bandwidth, 5.0 * s2.avg_bandwidth);
  EXPECT_LT(s1.avg_row_nnz, 8.0);  // low-degree circuit graph
}

TEST(Generators, KktLikeIsSymmetricSaddle) {
  CsrMatrix a = make_kkt_like(0.12);
  a.validate();
  const MatrixStats st = compute_stats(a);
  EXPECT_TRUE(st.structurally_symmetric);
  // The (2,2) block has negative diagonal (saddle point).
  EXPECT_LT(a.at(a.n_rows - 1, a.n_rows - 1), 0.0);
  EXPECT_GT(a.at(0, 0), 0.0);
}

TEST(Generators, PaperLookupAndUnknownName) {
  EXPECT_GT(make_paper_matrix("cant", 0.1).n_rows, 0);
  EXPECT_GT(make_paper_matrix("g3", 0.05).n_rows, 0);
  EXPECT_THROW(make_paper_matrix("nope", 1.0), Error);
}

TEST(Generators, DeterministicForFixedSeed) {
  const CsrMatrix a1 = make_circuit_like(0.05, true, 99);
  const CsrMatrix a2 = make_circuit_like(0.05, true, 99);
  EXPECT_EQ(a1.col_idx, a2.col_idx);
  EXPECT_EQ(a1.vals, a2.vals);
  const CsrMatrix b1 = make_circuit_like(0.05, true, 100);
  EXPECT_NE(a1.vals, b1.vals);  // different seed, different wires
}

TEST(Generators, ScaleGrowsEveryAnalog) {
  for (const char* name : {"cant", "g3_circuit", "dielfilter", "nlpkkt"}) {
    const int small = make_paper_matrix(name, 0.25).n_rows;
    const int big = make_paper_matrix(name, 0.5).n_rows;
    EXPECT_GT(big, 2 * small) << name;
  }
}

TEST(Balance, UnitRowAndColumnNorms) {
  CsrMatrix a = make_laplace2d(6, 6, 0.2);
  // Skew the scales.
  for (std::size_t k = 0; k < a.vals.size(); ++k) a.vals[k] *= 1e3;
  const BalanceScaling s = balance(a);

  // Column norms are exactly 1 after the final pass.
  std::vector<double> colsq(static_cast<std::size_t>(a.n_cols), 0.0);
  for (int i = 0; i < a.n_rows; ++i) {
    const auto lo = a.row_ptr[static_cast<std::size_t>(i)];
    const auto hi = a.row_ptr[static_cast<std::size_t>(i) + 1];
    for (auto k = lo; k < hi; ++k) {
      colsq[static_cast<std::size_t>(a.col_idx[static_cast<std::size_t>(k)])] +=
          a.vals[static_cast<std::size_t>(k)] * a.vals[static_cast<std::size_t>(k)];
    }
  }
  for (int j = 0; j < a.n_cols; ++j) {
    EXPECT_NEAR(std::sqrt(colsq[static_cast<std::size_t>(j)]), 1.0, 1e-12);
  }
  // Row norms are bounded (row pass ran before the column pass).
  for (int i = 0; i < a.n_rows; ++i) {
    double acc = 0.0;
    const auto lo = a.row_ptr[static_cast<std::size_t>(i)];
    const auto hi = a.row_ptr[static_cast<std::size_t>(i) + 1];
    for (auto k = lo; k < hi; ++k) {
      acc += a.vals[static_cast<std::size_t>(k)] * a.vals[static_cast<std::size_t>(k)];
    }
    EXPECT_LE(std::sqrt(acc), 2.0);
  }
  EXPECT_EQ(static_cast<int>(s.row.size()), a.n_rows);
}

TEST(Balance, ScaledSystemIsEquivalent) {
  // Solve consistency: (Dr A Dc) y = Dr b with x = Dc y reproduces A x = b.
  CsrMatrix a = make_laplace2d(5, 4, 0.1);
  CsrMatrix ab = a;
  const BalanceScaling s = balance(ab);
  const int n = a.n_rows;
  Rng rng(23);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) x[static_cast<std::size_t>(i)] = rng.normal();
  std::vector<double> b(static_cast<std::size_t>(n));
  spmv(a, x.data(), b.data());
  // y = Dc^{-1} x must satisfy the balanced system with rhs Dr b.
  std::vector<double> y(static_cast<std::size_t>(n)), rhs = b;
  for (int i = 0; i < n; ++i) y[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(i)] / s.col[static_cast<std::size_t>(i)];
  scale_rhs(s, rhs);
  std::vector<double> lhs(static_cast<std::size_t>(n));
  spmv(ab, y.data(), lhs.data());
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(lhs[static_cast<std::size_t>(i)], rhs[static_cast<std::size_t>(i)], 1e-11);
  }
  // And unscale_solution maps y back to x.
  unscale_solution(s, y);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], x[static_cast<std::size_t>(i)], 1e-11);
  }
}

TEST(Stats, BandwidthAndSymmetry) {
  CsrMatrix a = small_matrix();
  const MatrixStats st = compute_stats(a);
  EXPECT_EQ(st.n, 3);
  EXPECT_EQ(st.nnz, 6);
  EXPECT_EQ(st.bandwidth, 2);
  EXPECT_FALSE(st.structurally_symmetric);
  EXPECT_FALSE(to_string(st).empty());
}

}  // namespace
}  // namespace cagmres::sparse
