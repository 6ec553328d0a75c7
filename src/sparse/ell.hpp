// ELLPACK sparse storage — the GPU-friendly format of the paper.
//
// The paper's device SpMV uses ELLPACK (Fig. 3 caption): every row is padded
// to the same width and the matrix is stored column-of-slots-major so that
// consecutive GPU threads (one per row) read consecutive memory. We keep the
// same layout; the simulated device charges SpMV by the bytes this layout
// actually touches, which is how ELLPACK's padding overhead shows up.
#pragma once

#include <cstdint>
#include <span>

#include "sparse/csr.hpp"

namespace cagmres::sparse {

/// ELLPACK matrix: `width` slots per row, slot-major storage
/// (entry (row i, slot k) lives at index k * n_rows + i).
struct EllMatrix {
  int n_rows = 0;
  int n_cols = 0;
  int width = 0;
  std::vector<int> col_idx;   ///< size n_rows * width; padding uses row index
  std::vector<double> vals;   ///< size n_rows * width; padding uses 0.0

  std::int64_t stored_slots() const {
    return static_cast<std::int64_t>(n_rows) * width;
  }
};

/// Converts CSR to ELLPACK (width = max row nnz).
EllMatrix to_ell(const CsrMatrix& a);

/// y := A x for ELLPACK A. Each row sums its slots in order from +0.0,
/// padding included, so the result is that of the scalar row loop for any
/// vector width or thread count (DESIGN.md §17).
void spmv(const EllMatrix& a, const double* x, double* y);

/// Shift of one matrix powers step (mpk/exec.hpp): v_k = (A - theta I)
/// v_{k-1}, plus beta2 v_{k-2} on the second member of a complex pair.
struct StepShift {
  double theta = 0.0;
  bool pair_second = false;
  double beta2 = 0.0;

  bool shifted() const { return theta != 0.0 || pair_second; }
  /// Basis vectors the shift epilogue reads (sim::charge_mpk_step).
  int terms() const { return pair_second ? 2 : (theta != 0.0 ? 1 : 0); }
};

/// One fused matrix powers step over the rows of A (DESIGN.md §18):
/// y := A x as spmv computes it; then, only when sh.shifted(),
/// y(i) -= theta * x(i) and, on a pair's second member, y(i) += beta2 *
/// x2(i); y is stored to both z and out. x2 is read only on a pair's second
/// member. Returns whether every y(i) is finite.
bool mpk_step(const EllMatrix& a, const double* x, const double* x2,
              const StepShift& sh, double* z, double* out);

/// Fraction of padded (wasted) slots: 1 - nnz / (n_rows * width).
double padding_ratio(const EllMatrix& a, std::int64_t nnz);

namespace detail {

/// One instruction-set build of the ELL kernels above (DESIGN.md §17).
/// Every build computes bitwise the same results.
struct EllKernels {
  const char* isa;
  void (*spmv)(const EllMatrix&, const double*, double*);
  decltype(&sparse::mpk_step) mpk_step;
};

/// The builds this CPU can run, baseline first. The public entry points
/// use the last (widest) one; tests call each.
std::span<const EllKernels> variants();

}  // namespace detail

}  // namespace cagmres::sparse
