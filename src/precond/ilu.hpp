// ILU(0) factorization of device-local blocks, split into a cached
// symbolic phase and a cheap numeric phase (the spiluk-style design;
// DESIGN.md §15).
//
// The factor is block-local: only couplings inside one device's row range
// [row0, row1) enter M, so M^{-1} applies with zero communication and the
// s-step MPK dependency structure of A survives unchanged.
//
// The symbolic phase takes A's block-local pattern (no fill) and fixes
// what each sync-free triangular solve charges (precond/trisolve.hpp): its
// flop and byte totals and the depth of its dependency chain.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/csr.hpp"

namespace cagmres::precond {

/// What one factor's sync-free solve kernel charges, fixed by the pattern.
struct TrisolveCharge {
  int depth = 0;       ///< longest dependency chain in rows (level count)
  double flops = 0.0;
  double bytes = 0.0;  ///< includes re-arming the other factor's counters
};

/// One device block's ILU(0) factor A_local ~= L U in local row indices
/// (local row i = global row row0 + i). L is strictly lower triangular
/// with an implicit unit diagonal; U is strictly upper triangular with the
/// diagonal held inverted in inv_diag (the solve multiplies, never
/// divides). The pattern (ptr/idx, solve charges) is the cached symbolic
/// state; ilu_numeric refreshes only vals/inv_diag.
struct DeviceFactor {
  int row0 = 0;  ///< first global row of the block
  int row1 = 0;  ///< one past the last global row

  std::vector<std::int64_t> l_ptr;  ///< size n() + 1
  std::vector<int> l_idx;
  std::vector<double> l_val;
  std::vector<std::int64_t> u_ptr;  ///< strictly upper, size n() + 1
  std::vector<int> u_idx;
  std::vector<double> u_val;
  std::vector<double> inv_diag;  ///< 1 / u_ii per local row

  TrisolveCharge l_solve;  ///< forward (L) kernel
  TrisolveCharge u_solve;  ///< backward (U) kernel

  int pivot_fallbacks = 0;     ///< tiny pivots replaced by 1 (last numeric)
  double numeric_flops = 0.0;  ///< flop count of the last numeric phase

  int n() const { return row1 - row0; }
  std::int64_t fill_nnz() const {
    return static_cast<std::int64_t>(l_idx.size() + u_idx.size()) + n();
  }
};

/// Symbolic ILU(0): takes the pattern of the block-local rows [row0, row1)
/// of the prepared matrix `a` (couplings outside the block are dropped)
/// and computes both solve charges. Values are left unset — call
/// ilu_numeric.
void ilu_symbolic(const sparse::CsrMatrix& a, int row0, int row1,
                  DeviceFactor& f);

/// Numeric ILU on the cached pattern (IKJ row sweep, fill outside the
/// pattern dropped). Tiny pivots (|u_ii| <= 1e-13 * max block diagonal)
/// fall back to 1 and are counted in f.pivot_fallbacks. Refreshes
/// l_val/u_val/inv_diag/numeric_flops only; the pattern is untouched, so
/// the same symbolic factor serves every numeric refresh.
void ilu_numeric(const sparse::CsrMatrix& a, DeviceFactor& f);

}  // namespace cagmres::precond
