// Compressed sparse row storage — the library's canonical sparse format.
//
// CSR is what the host (CPU) side of the paper uses for SpMV; the device
// side prefers ELLPACK (see ell.hpp). Row pointers are 64-bit so matrices
// at the paper's nlpkkt120 scale (~95M nonzeros) are representable.
#pragma once

#include <cstdint>
#include <vector>

namespace cagmres::sparse {

/// Square-or-rectangular sparse matrix in CSR form. Column indices within a
/// row are kept sorted; duplicates are not allowed (the COO builder merges
/// them).
struct CsrMatrix {
  int n_rows = 0;
  int n_cols = 0;
  std::vector<std::int64_t> row_ptr;  ///< size n_rows + 1
  std::vector<int> col_idx;           ///< size nnz
  std::vector<double> vals;           ///< size nnz

  std::int64_t nnz() const { return row_ptr.empty() ? 0 : row_ptr.back(); }

  /// Number of nonzeros in row i.
  int row_nnz(int i) const {
    return static_cast<int>(row_ptr[static_cast<std::size_t>(i) + 1] -
                            row_ptr[static_cast<std::size_t>(i)]);
  }

  /// Validates structural invariants (sorted columns, in-range indices,
  /// monotone row pointers). Throws cagmres::Error on violation.
  void validate() const;

  /// Value at (i, j), or 0 if not stored (binary search within the row).
  double at(int i, int j) const;
};

/// y := A x, each row summed serially in storage order.
void spmv(const CsrMatrix& a, const double* x, double* y);

/// Rows above which spmv (CSR and ELL) and mpk_step split their rows over
/// OpenMP threads.
constexpr int kSpmvParallelRows = 1 << 13;

/// y := A^T x.
void spmv_transpose(const CsrMatrix& a, const double* x, double* y);

/// Extracts the submatrix consisting of the given rows (all columns).
/// Row order in `rows` is preserved; column indices are unchanged (global).
CsrMatrix extract_rows(const CsrMatrix& a, const std::vector<int>& rows);

/// Symmetric permutation B = A(p, p): row i of B is row p[i] of A, and
/// column indices are relabeled through the inverse of p.
CsrMatrix permute_symmetric(const CsrMatrix& a, const std::vector<int>& p);

/// Structural transpose (pattern and values).
CsrMatrix transpose(const CsrMatrix& a);

/// Frobenius norm of the matrix.
double frobenius_norm(const CsrMatrix& a);

}  // namespace cagmres::sparse
