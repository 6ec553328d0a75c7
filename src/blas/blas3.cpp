#include "blas/blas3.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>

#include "common/error.hpp"
#include "common/isa.hpp"

// Blocking strategy: the hot GEMM shapes here are tall-skinny — a panel V
// of m rows by n,k <= s+1 columns, either V^T W (Gram/projection, Trans::T
// with the long dimension contracted) or V * R (panel update, Trans::N x
// Trans::N with the long dimension kept). Both are single passes over V.
//
//  - Long dimension kept (N,N and N,T): register-tiled panel update. A tile
//    of C (two vector registers of rows by 4 columns) stays in registers
//    for the whole contraction, adding one term at a time in p order.
//  - Long dimension contracted (T,N, T,T, syrk_tn, and gemv_t in blas2):
//    one register-tiled kernel, dot_tiles (DESIGN.md §17). A 4 x 4 tile
//    of outputs is held in sixteen independent running sums (one vector
//    register per row at four lanes, two at two), so the FP-add latency of
//    one sum overlaps the other fifteen instead of stalling every term. Per
//    p-block of the contracted dimension, each 4-column group of op(B) is
//    packed p-major, 4 wide, so a tile reads one contiguous B row per p;
//    T,N and T,T differ only in that pack.
//  - trsm_right_upper: row-tiled, each block of rows solving all columns
//    while it stays in L1.
//
// Determinism contract: every output element accumulates its inner-
// dimension terms ONE AT A TIME in the same order as the naive triple
// loop, starting from 0.0 (or from C for the panel update); between cache
// blocks the running sum is spilled through memory and picked back up. A
// vector lane is a scalar IEEE add or multiply, padding lanes are never
// stored, and the library builds with -ffp-contract=off, so no multiply-add
// is ever fused. alpha and beta are applied with the naive loop's
// expressions. The operation sequence per element is therefore that of the
// naive loop, and results are bit-identical to it for any block size, tile
// shape, vector width or OpenMP thread count.
//
// The kernels live in blas3_kernels.inc and are compiled once per
// instruction-set variant: at the baseline (SSE2 on x86-64, NEON on
// aarch64: two-lane vectors) and, on x86-64 under GCC, again with AVX2
// enabled (four-lane vectors, no FMA). The widest variant the CPU supports
// is chosen once, at first use.

namespace cagmres::blas {

namespace {

inline const double* elem(const double* a, int lda, int i, int j) {
  return a + static_cast<std::size_t>(j) * lda + i;
}

/// Rows of the contracted dimension per dot_tiles p-block: with n <= 32
/// skinny columns the working set is n * 1024 * 8B <= 256 KiB, L2-resident.
constexpr int kLongBlock = 1024;

/// Output tile edge of dot_tiles, and the column width of a panel-update
/// tile.
constexpr int kTile = 4;

/// Two and four doubles in one vector value (GCC/Clang vector extension).
using Pair = double __attribute__((vector_size(2 * sizeof(double))));
using Quad = double __attribute__((vector_size(4 * sizeof(double))));

/// Packed width of a column group holding nr <= kTile columns: 1, 2, or 4
/// (a 3-column group gets one zero padding lane).
constexpr int pack_width(int nr) { return nr == 1 ? 1 : nr == 2 ? 2 : kTile; }

namespace base {
constexpr int kVec = 2;
using Vec = Pair;
#include "blas/blas3_kernels.inc"
}  // namespace base

#ifdef CAGMRES_AVX2_BUILD
#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {
constexpr int kVec = 4;
using Vec = Quad;
#include "blas/blas3_kernels.inc"
}  // namespace avx2
#pragma GCC pop_options
#endif

constexpr detail::Kernels kVariants[] = {
    {"baseline", base::dot_tiles, base::gemm, base::syrk_tn,
     base::trsm_right_upper},
#ifdef CAGMRES_AVX2_BUILD
    {"avx2", avx2::dot_tiles, avx2::gemm, avx2::syrk_tn,
     avx2::trsm_right_upper},
#endif
};

}  // namespace

std::span<const detail::Kernels> detail::variants() {
  // kVariants is ordered by width, and this CPU runs a prefix of it.
  return {kVariants, runnable_isa_builds()};
}

void dot_tiles(int m, int n, int k, const double* a, int lda, Trans tb,
               const double* b, int ldb, bool upper, double* acc, int ldacc) {
  detail::variants().back().dot_tiles(m, n, k, a, lda, tb, b, ldb, upper, acc,
                                      ldacc);
}

void gemm(Trans ta, Trans tb, int m, int n, int k, double alpha,
          const double* a, int lda, const double* b, int ldb, double beta,
          double* c, int ldc) {
  detail::variants().back().gemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta,
                                 c, ldc);
}

void syrk_tn(int m, int n, const double* a, int lda, double* c, int ldc) {
  detail::variants().back().syrk_tn(m, n, a, lda, c, ldc);
}

void trsm_right_upper(int m, int n, const double* r, int ldr, double* b,
                      int ldb) {
  detail::variants().back().trsm_right_upper(m, n, r, ldr, b, ldb);
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
