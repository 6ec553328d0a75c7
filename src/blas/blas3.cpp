#include "blas/blas3.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>

#include "common/error.hpp"

// Blocking strategy: the hot GEMM shapes here are tall-skinny — a panel V
// of m rows by n,k <= s+1 columns, either V^T W (Gram/projection, Trans::T
// with the long dimension contracted) or V * R (panel update, Trans::N x
// Trans::N with the long dimension kept). Both are single passes over V:
// the long dimension is blocked so every involved column block stays
// cache-resident.
//
//  - Long dimension kept (N,N and N,T): row-blocked, four p terms fused per
//    pass over an i-block of C to amortize loads of the running sums.
//  - Long dimension contracted (T,N, T,T, syrk_tn, and gemv_t in blas2):
//    one register-tiled kernel, dot_tiles (DESIGN.md §17). A 4 x 4 tile
//    of outputs is held in sixteen independent running sums (eight
//    two-lane vector registers), so the FP-add latency of one sum overlaps
//    the other fifteen instead of stalling every term. Per p-block, each
//    4-column group of op(B) is packed p-major, 4 wide, so a tile reads one
//    contiguous B row per p; T,N and T,T differ only in that pack.
//
// Determinism contract: every output element accumulates its inner-
// dimension terms ONE AT A TIME in the same order as the naive triple
// loop, starting from 0.0; between cache blocks the running sum is spilled
// through memory and picked back up. A vector lane is a scalar IEEE add or
// multiply, and padding lanes are never stored. alpha and beta are applied
// with the naive loop's expressions. The operation sequence per element is
// therefore that of the naive loop, and results are bit-identical to it
// for any block size, tile shape or OpenMP thread count.

namespace cagmres::blas {

namespace {

inline const double* elem(const double* a, int lda, int i, int j) {
  return a + static_cast<std::size_t>(j) * lda + i;
}

/// Rows of the long dimension per cache block: with n <= 32 skinny columns
/// the working set is n * 1024 * 8B <= 256 KiB, L2-resident.
constexpr int kLongBlock = 1024;

/// Output tile edge of dot_tiles: a 4 x 4 tile of running sums is eight
/// two-lane accumulators, which leaves room in the 16 SSE2/NEON registers
/// for the B row and the A broadcast.
constexpr int kTile = 4;

/// Two doubles in one vector register. Lane-wise + and * are the scalar
/// IEEE operations, so each lane is an independent running sum.
using Pair = double __attribute__((vector_size(2 * sizeof(double))));

/// Packed width of a column group holding nr <= kTile columns: 1, 2, or 4
/// (a 3-column group gets one zero padding lane).
constexpr int pack_width(int nr) { return nr == 1 ? 1 : nr == 2 ? 2 : kTile; }

/// Adds `len` terms to an MR x nr tile of running sums: sum (i,j) gets
/// a(p,i) * bp[p*W + j] for p ascending, one term at a time. W == 1 runs
/// scalar; otherwise each B row is W/2 Pairs and lanes past nr are padding
/// whose sums are dropped. The sums start at 0.0 when `first`, else at the
/// values the previous p-block spilled to acc; they are stored back there.
template <int MR, int W>
void dot_tile(int len, const double* a, int lda, const double* bp, int nr,
              bool first, double* acc, int ldacc) {
  using Lane = std::conditional_t<W == 1, double, Pair>;
  constexpr int kLanes = W * sizeof(double) / sizeof(Lane);
  double t[MR][W];  // the tile in register order, staged through memory
  for (int i = 0; i < MR; ++i) {
    for (int j = 0; j < W; ++j) {
      t[i][j] = first || j >= nr
                    ? 0.0
                    : acc[static_cast<std::size_t>(j) * ldacc + i];
    }
  }
  Lane s[MR][kLanes];
  std::memcpy(s, t, sizeof s);
  for (int p = 0; p < len; ++p) {
    Lane bq[kLanes];
    std::memcpy(bq, bp + static_cast<std::size_t>(p) * W, sizeof bq);
#pragma GCC unroll 4
    for (int i = 0; i < MR; ++i) {
      const double x = a[static_cast<std::size_t>(i) * lda + p];
#pragma GCC unroll 2
      for (int v = 0; v < kLanes; ++v) s[i][v] += x * bq[v];
    }
  }
  std::memcpy(t, s, sizeof t);
  for (int i = 0; i < MR; ++i) {
    for (int j = 0; j < nr; ++j) {
      acc[static_cast<std::size_t>(j) * ldacc + i] = t[i][j];
    }
  }
}

using TileFn = void (*)(int, const double*, int, const double*, int, bool,
                        double*, int);

/// dot_tile instantiations indexed by [MR - 1][W / 2], so edge tiles run
/// only the rows they store.
constexpr TileFn kTileFns[kTile][3] = {
    {dot_tile<1, 1>, dot_tile<1, 2>, dot_tile<1, 4>},
    {dot_tile<2, 1>, dot_tile<2, 2>, dot_tile<2, 4>},
    {dot_tile<3, 1>, dot_tile<3, 2>, dot_tile<3, 4>},
    {dot_tile<4, 1>, dot_tile<4, 2>, dot_tile<4, 4>},
};

}  // namespace

void dot_tiles(int m, int n, int k, const double* a, int lda, Trans tb,
               const double* b, int ldb, bool upper, double* acc, int ldacc) {
  const int mt = (m + kTile - 1) / kTile, nt = (n + kTile - 1) / kTile;
  // A single op(B) column under T,N is already p-major: read it in place.
  const std::unique_ptr<double[]> pack(
      tb == Trans::N && n == 1
          ? nullptr
          : new double[static_cast<std::size_t>(std::min(k, kLongBlock)) *
                       nt * kTile]);
  int p0 = 0;
  do {  // at least once, so k == 0 still stores 0.0 sums
    const int len = std::min(k - p0, kLongBlock);
    // Column group jt lands at pack + j0*len, p-major, pack_width(nr) wide.
    for (int jt = 0; jt < nt && pack; ++jt) {
      const int j0 = jt * kTile, nr = std::min(kTile, n - j0);
      const int w = pack_width(nr);
      double* dst = pack.get() + static_cast<std::size_t>(j0) * len;
      for (int jj = 0; jj < w; ++jj) {
        for (int p = 0; p < len; ++p) {
          dst[static_cast<std::size_t>(p) * w + jj] =
              jj >= nr          ? 0.0
              : tb == Trans::N ? *elem(b, ldb, p0 + p, j0 + jj)
                               : *elem(b, ldb, j0 + jj, p0 + p);
        }
      }
    }
#pragma omp parallel for schedule(static, 1) if (static_cast<long long>(m) * n * k > 1 << 16)
    for (int t = 0; t < mt * nt; ++t) {
      const int it = t % mt, jt = t / mt;
      if (upper && it > jt) continue;  // wholly below the diagonal
      const int i0 = it * kTile, j0 = jt * kTile;
      const int nr = std::min(kTile, n - j0);
      const double* bp =
          pack ? pack.get() + static_cast<std::size_t>(j0) * len : b + p0;
      kTileFns[std::min(kTile, m - i0) - 1][pack_width(nr) / 2](
          len, elem(a, lda, p0, i0), lda, bp, nr, p0 == 0,
          acc + static_cast<std::size_t>(j0) * ldacc + i0, ldacc);
    }
    p0 += len;
  } while (p0 < k);
}

void gemm(Trans ta, Trans tb, int m, int n, int k, double alpha,
          const double* a, int lda, const double* b, int ldb, double beta,
          double* c, int ldc) {
#pragma omp parallel for schedule(static) if (static_cast<long long>(m) * n > 1 << 16)
  for (int j = 0; j < n; ++j) {
    double* cj = c + static_cast<std::size_t>(j) * ldc;
    if (beta == 0.0) {
      for (int i = 0; i < m; ++i) cj[i] = 0.0;
    } else if (beta != 1.0) {
      for (int i = 0; i < m; ++i) cj[i] *= beta;
    }
  }
  if (alpha == 0.0 || k == 0) return;

  if (ta == Trans::N && tb == Trans::N) {
    // C += alpha * A * B — the V * R panel-update shape (m large; n, k
    // skinny). Row-blocked so an i-block of A (all k columns of it) stays
    // cache-resident across the n output columns: A streams from DRAM
    // once instead of n times. Four p terms are fused per pass over the
    // block, added to the running sum one at a time in p order.
#pragma omp parallel for schedule(static) if (static_cast<long long>(m) * n * k > 1 << 18)
    for (int i0 = 0; i0 < m; i0 += kLongBlock) {
      const int i1 = std::min(m, i0 + kLongBlock);
      for (int j = 0; j < n; ++j) {
        double* cj = c + static_cast<std::size_t>(j) * ldc;
        int p = 0;
        for (; p + 4 <= k; p += 4) {
          const double t0 = alpha * *elem(b, ldb, p, j);
          const double t1 = alpha * *elem(b, ldb, p + 1, j);
          const double t2 = alpha * *elem(b, ldb, p + 2, j);
          const double t3 = alpha * *elem(b, ldb, p + 3, j);
          const double* a0 = a + static_cast<std::size_t>(p) * lda;
          const double* a1 = a + static_cast<std::size_t>(p + 1) * lda;
          const double* a2 = a + static_cast<std::size_t>(p + 2) * lda;
          const double* a3 = a + static_cast<std::size_t>(p + 3) * lda;
          for (int i = i0; i < i1; ++i) {
            double x = cj[i];
            x += t0 * a0[i];
            x += t1 * a1[i];
            x += t2 * a2[i];
            x += t3 * a3[i];
            cj[i] = x;
          }
        }
        for (; p < k; ++p) {
          const double t = alpha * *elem(b, ldb, p, j);
          const double* ap = a + static_cast<std::size_t>(p) * lda;
          for (int i = i0; i < i1; ++i) cj[i] += t * ap[i];
        }
      }
    }
  } else if (ta == Trans::T) {
    // C(i,j) += alpha * dot(A(:,i), op(B)(:,j)) — the V^T W Gram/projection
    // shape (k large; m, n skinny): the dot tiles land in an m x n scratch,
    // then alpha scales each finished sum.
    const std::unique_ptr<double[]> acc(
        new double[static_cast<std::size_t>(m) * n]);
    dot_tiles(m, n, k, a, lda, tb, b, ldb, false, acc.get(), m);
    for (int j = 0; j < n; ++j) {
      double* cj = c + static_cast<std::size_t>(j) * ldc;
      const double* accj = acc.get() + static_cast<std::size_t>(j) * m;
      for (int i = 0; i < m; ++i) cj[i] += alpha * accj[i];
    }
  } else {  // N, T
    // C += alpha * A * B^T — long dimension kept, like N,N but with B read
    // across a row. Row-blocked the same way: an i-block of A's k columns
    // stays cache-resident across the n output columns, with four p terms
    // fused per pass and added one at a time in p order (bit-identical to
    // the naive j/p/i loop this replaces).
#pragma omp parallel for schedule(static) if (static_cast<long long>(m) * n * k > 1 << 18)
    for (int i0 = 0; i0 < m; i0 += kLongBlock) {
      const int i1 = std::min(m, i0 + kLongBlock);
      for (int j = 0; j < n; ++j) {
        double* cj = c + static_cast<std::size_t>(j) * ldc;
        int p = 0;
        for (; p + 4 <= k; p += 4) {
          const double t0 = alpha * *elem(b, ldb, j, p);
          const double t1 = alpha * *elem(b, ldb, j, p + 1);
          const double t2 = alpha * *elem(b, ldb, j, p + 2);
          const double t3 = alpha * *elem(b, ldb, j, p + 3);
          const double* a0 = a + static_cast<std::size_t>(p) * lda;
          const double* a1 = a + static_cast<std::size_t>(p + 1) * lda;
          const double* a2 = a + static_cast<std::size_t>(p + 2) * lda;
          const double* a3 = a + static_cast<std::size_t>(p + 3) * lda;
          for (int i = i0; i < i1; ++i) {
            double x = cj[i];
            x += t0 * a0[i];
            x += t1 * a1[i];
            x += t2 * a2[i];
            x += t3 * a3[i];
            cj[i] = x;
          }
        }
        for (; p < k; ++p) {
          const double t = alpha * *elem(b, ldb, j, p);
          const double* ap = a + static_cast<std::size_t>(p) * lda;
          for (int i = i0; i < i1; ++i) cj[i] += t * ap[i];
        }
      }
    }
  }
}

void syrk_tn(int m, int n, const double* a, int lda, double* c, int ldc) {
  // The dot tiles over the upper triangle, summed straight into C: one
  // cache-blocked pass over the tall panel, so V streams from DRAM once
  // instead of ~n/2 times. Diagonal tiles also fill part of the lower
  // triangle; the mirror below overwrites it with the same values.
  dot_tiles(n, n, m, a, lda, Trans::N, a, lda, true, c, ldc);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < j; ++i) {
      c[static_cast<std::size_t>(i) * ldc + j] =
          c[static_cast<std::size_t>(j) * ldc + i];
    }
  }
}

void trsm_right_upper(int m, int n, const double* r, int ldr, double* b,
                      int ldb) {
  // Column j of B*R^{-1} depends only on columns 0..j of B: solve left to
  // right, subtracting the already-finished columns.
  for (int j = 0; j < n; ++j) {
    double* bj = b + static_cast<std::size_t>(j) * ldb;
    for (int p = 0; p < j; ++p) {
      const double t = *elem(r, ldr, p, j);
      if (t == 0.0) continue;
      const double* bp = b + static_cast<std::size_t>(p) * ldb;
      for (int i = 0; i < m; ++i) bj[i] -= t * bp[i];
    }
    const double d = *elem(r, ldr, j, j);
    CAGMRES_REQUIRE(d != 0.0, "trsm: zero diagonal in R");
    const double inv = 1.0 / d;
    for (int i = 0; i < m; ++i) bj[i] *= inv;
  }
}

void trmm_right_upper(int m, int n, const double* r, int ldr, double* b,
                      int ldb) {
  // Process right to left so untouched columns of B remain available.
  for (int j = n - 1; j >= 0; --j) {
    double* bj = b + static_cast<std::size_t>(j) * ldb;
    const double d = *elem(r, ldr, j, j);
    for (int i = 0; i < m; ++i) bj[i] *= d;
    for (int p = 0; p < j; ++p) {
      const double t = *elem(r, ldr, p, j);
      if (t == 0.0) continue;
      const double* bp = b + static_cast<std::size_t>(p) * ldb;
      for (int i = 0; i < m; ++i) bj[i] += t * bp[i];
    }
  }
}

}  // namespace cagmres::blas
