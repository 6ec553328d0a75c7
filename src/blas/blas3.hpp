// Level-3 dense kernels on column-major storage.
#pragma once

#include <span>

namespace cagmres::blas {

/// Transpose selector for gemm operands.
enum class Trans { N, T };

/// C := alpha * op(A) * op(B) + beta * C, all column-major.
/// op(A) is m x k, op(B) is k x n, C is m x n.
void gemm(Trans ta, Trans tb, int m, int n, int k, double alpha,
          const double* a, int lda, const double* b, int ldb, double beta,
          double* c, int ldc);

/// Tall-skinny dot tiles, the kernel under gemm(T, *), syrk_tn and gemv_t:
/// acc(i,j) := sum over p < k of A(p,i) * op(B)(p,j), for k x m A and k x n
/// op(B) (B itself is k x n for Trans::N, n x k for Trans::T). Every sum is
/// formed one term at a time in p order starting from 0.0, so it is bitwise
/// equal to the naive loop for any thread count. With `upper` (m == n),
/// only the 4 x 4 tiles touching the upper triangle are written.
void dot_tiles(int m, int n, int k, const double* a, int lda, Trans tb,
               const double* b, int ldb, bool upper, double* acc, int ldacc);

/// Gram matrix C := A^T * A for a tall-skinny m x n panel A (C is n x n).
/// Exploits symmetry: only the upper triangle is computed, then mirrored.
/// This is the BLAS-3 workhorse of CholQR/SVQR.
void syrk_tn(int m, int n, const double* a, int lda, double* c, int ldc);

/// Right triangular solve B := B * R^{-1} for upper-triangular n x n R and
/// m x n panel B. This is the CholQR "orthogonalize by triangular solve" step.
void trsm_right_upper(int m, int n, const double* r, int ldr, double* b,
                      int ldb);

/// Right triangular multiply B := B * R for upper-triangular R (used when
/// reconstructing V = Q*R in error metrics and tests).
void trmm_right_upper(int m, int n, const double* r, int ldr, double* b,
                      int ldb);

namespace detail {

/// One instruction-set build of the vector kernels above (DESIGN.md §17).
/// Every build computes bitwise the same results.
struct Kernels {
  const char* isa;
  decltype(&blas::dot_tiles) dot_tiles;
  decltype(&blas::gemm) gemm;
  decltype(&blas::syrk_tn) syrk_tn;
  decltype(&blas::trsm_right_upper) trsm_right_upper;
};

/// The builds this CPU can run, baseline first. The public entry points
/// use the last (widest) one; tests call each.
std::span<const Kernels> variants();

}  // namespace detail

}  // namespace cagmres::blas
