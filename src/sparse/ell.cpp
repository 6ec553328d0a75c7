#include "sparse/ell.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cagmres::sparse {

EllMatrix to_ell(const CsrMatrix& a) {
  EllMatrix out;
  out.n_rows = a.n_rows;
  out.n_cols = a.n_cols;
  int width = 0;
  for (int i = 0; i < a.n_rows; ++i) width = std::max(width, a.row_nnz(i));
  out.width = width;
  const std::size_t slots =
      static_cast<std::size_t>(a.n_rows) * static_cast<std::size_t>(width);
  out.col_idx.resize(slots);
  out.vals.assign(slots, 0.0);
  for (int i = 0; i < a.n_rows; ++i) {
    const auto lo = a.row_ptr[static_cast<std::size_t>(i)];
    const int len = a.row_nnz(i);
    for (int k = 0; k < width; ++k) {
      const std::size_t dst =
          static_cast<std::size_t>(k) * a.n_rows + static_cast<std::size_t>(i);
      if (k < len) {
        out.col_idx[dst] = a.col_idx[static_cast<std::size_t>(lo) + k];
        out.vals[dst] = a.vals[static_cast<std::size_t>(lo) + k];
      } else {
        // Pad with a self-reference and zero value: always a safe read.
        out.col_idx[dst] = std::min(i, a.n_cols - 1);
      }
    }
  }
  return out;
}

void spmv(const EllMatrix& a, const double* x, double* y) {
  // Each row walks its slots serially, so the per-row accumulation order
  // (and hence the result) is fixed for any thread count.
  const auto row = [&](int i) {
    double acc = 0.0;
    for (int k = 0; k < a.width; ++k) {
      const std::size_t slot =
          static_cast<std::size_t>(k) * a.n_rows + static_cast<std::size_t>(i);
      acc += a.vals[slot] * x[a.col_idx[slot]];
    }
    y[i] = acc;
  };
  // A branch, not `omp parallel for if (...)`: libgomp starts a one-thread
  // team even when the `if` is false, and the serial branch skips that.
  if (a.n_rows > kSpmvParallelRows) {
#pragma omp parallel for schedule(static)
    for (int i = 0; i < a.n_rows; ++i) row(i);
  } else {
    for (int i = 0; i < a.n_rows; ++i) row(i);
  }
}

double padding_ratio(const EllMatrix& a, std::int64_t nnz) {
  if (a.stored_slots() == 0) return 0.0;
  return 1.0 - static_cast<double>(nnz) / static_cast<double>(a.stored_slots());
}

}  // namespace cagmres::sparse
