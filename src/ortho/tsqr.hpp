// Tall-skinny QR orthogonalization strategies (paper §V, Figs. 9-10).
//
// All five procedures factor an n x k block of distributed basis vectors
// V = Q R in place (V's columns become Q's), returning the k x k upper
// triangular R. They differ in numerical robustness and in communication:
//
//   method  | orthogonality error | dominant kernel | GPU-CPU messages
//   --------+---------------------+-----------------+------------------
//   MGS     | O(eps * kappa)      | BLAS-1 DOT      | (k)(k+1) round trips
//   CGS     | O(eps * kappa^k)    | BLAS-2 GEMV     | 2k
//   CholQR  | O(eps * kappa^2)    | BLAS-3 GEMM     | 2
//   SVQR    | O(eps * kappa^2)    | BLAS-3 GEMM     | 2
//   CAQR    | O(eps)              | BLAS-1/2 GEQR2  | 2
#pragma once

#include <string>

#include "blas/matrix.hpp"
#include "sim/machine.hpp"

namespace cagmres::ortho {

/// The five TSQR procedures of paper §V-A..E, plus the mixed-precision
/// CholQR variant the paper's conclusion points to (its reference [23]):
/// the Gram matrix is accumulated in single precision — twice the batched
/// DGEMM throughput and half the traffic — while the Cholesky factor and
/// the triangular solve stay double. Orthogonality degrades from
/// O(eps_d kappa^2) to O(eps_s kappa^2), so it pairs with
/// reorthogonalization.
enum class Method { kMgs, kCgs, kCholQr, kSvqr, kCaqr, kCholQrMp };

/// Parses "mgs", "cgs", "cholqr", "svqr", "caqr", "cholqr_mp".
Method parse_method(const std::string& name);
std::string to_string(Method m);

/// The escalation ladder's mid-solve downshift (core/health.hpp): the next
/// more numerically robust TSQR procedure. Chains
/// cholqr_mp -> cholqr -> svqr -> caqr and mgs/cgs -> caqr; caqr (already
/// unconditionally stable) maps to itself, which callers use as the
/// "nothing left to switch to" fixpoint.
Method more_robust_method(Method m);

/// Knobs for the numerically delicate paths.
struct TsqrOptions {
  /// SVQR: scale the Gram matrix to unit diagonal before the SVD (paper
  /// §V-D observes this resolves SVQR's element-wise error issue).
  bool svqr_scale_diagonal = true;
  /// CholQR: when Cholesky breaks down, retry on a diagonally shifted Gram
  /// matrix instead of failing (the result then needs reorthogonalization,
  /// which the caller decides — `breakdown` is reported either way).
  bool cholqr_shift_on_breakdown = true;
};

/// Outcome of one TSQR call.
struct TsqrResult {
  blas::DMat r;            ///< k x k upper triangular factor
  bool breakdown = false;  ///< CholQR pivot failure (R from shifted retry)
  /// 0-based column of the first non-positive Cholesky pivot when
  /// `breakdown` is set (lapack reports it; -1 = no breakdown). Column j
  /// breaking down means the basis lost independence j+1 vectors into the
  /// block.
  int breakdown_col = -1;
};

/// Orthonormalizes columns [c0, c1) of the distributed multivector V in
/// place with the given method, charging all kernel and communication costs
/// to `machine`. Returns R such that V_in(:, c0:c1) = V_out(:, c0:c1) * R.
TsqrResult tsqr(sim::Machine& machine, Method method, sim::DistMultiVec& v,
                int c0, int c1, const TsqrOptions& opts = {});

}  // namespace cagmres::ortho
