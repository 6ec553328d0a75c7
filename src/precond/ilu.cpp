#include "precond/ilu.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace cagmres::precond {

namespace {

/// Depth of one triangular factor's dependency chain: a row's level is
/// one past the deepest level among its in-factor dependencies, and the
/// depth is the level count (0 for an empty block). `forward` walks rows
/// ascending (L); otherwise descending (U, whose dependencies are higher
/// rows).
int chain_depth(int n, const std::vector<std::int64_t>& ptr,
                const std::vector<int>& idx, bool forward) {
  std::vector<int> lvl(static_cast<std::size_t>(n), 0);
  int depth = 0;
  for (int step = 0; step < n; ++step) {
    const int i = forward ? step : n - 1 - step;
    int l = 0;
    for (auto p = ptr[static_cast<std::size_t>(i)];
         p < ptr[static_cast<std::size_t>(i) + 1]; ++p) {
      l = std::max(l, lvl[static_cast<std::size_t>(idx[static_cast<std::size_t>(p)])] + 1);
    }
    lvl[static_cast<std::size_t>(i)] = l;
    depth = std::max(depth, l + 1);
  }
  return depth;
}

}  // namespace

void ilu_symbolic(const sparse::CsrMatrix& a, int row0, int row1,
                  DeviceFactor& f) {
  CAGMRES_REQUIRE(0 <= row0 && row0 <= row1 && row1 <= a.n_rows,
                  "ILU block out of range");
  const int n = row1 - row0;
  f.row0 = row0;
  f.row1 = row1;
  f.l_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  f.u_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  f.l_idx.clear();
  f.u_idx.clear();

  // The pattern is the block-local part of A's row (couplings outside the
  // block are dropped) split at the diagonal, which is always in the
  // factor (inv_diag) whether or not A stores it.
  for (int i = 0; i < n; ++i) {
    for (auto p = a.row_ptr[static_cast<std::size_t>(row0 + i)];
         p < a.row_ptr[static_cast<std::size_t>(row0 + i) + 1]; ++p) {
      const int c = a.col_idx[static_cast<std::size_t>(p)] - row0;
      if (c < 0 || c >= n) continue;
      if (c < i) {
        f.l_idx.push_back(c);
      } else if (c > i) {
        f.u_idx.push_back(c);
      }
    }
    f.l_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<std::int64_t>(f.l_idx.size());
    f.u_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<std::int64_t>(f.u_idx.size());
  }

  f.l_val.assign(f.l_idx.size(), 0.0);
  f.u_val.assign(f.u_idx.size(), 0.0);
  f.inv_diag.assign(static_cast<std::size_t>(n), 1.0);
  // Per factor nonzero 2 flops and 20 bytes (value, index, gathered x);
  // per row L streams in and out (16 bytes) and U also reads the inverted
  // diagonal (1 flop, 24 bytes); each kernel re-arms the other factor's
  // 4-byte dependency counters for the next apply.
  const double rows = n;
  const auto l_nnz = static_cast<double>(f.l_idx.size());
  const auto u_nnz = static_cast<double>(f.u_idx.size());
  f.l_solve = {chain_depth(n, f.l_ptr, f.l_idx, /*forward=*/true),
               2.0 * l_nnz, 20.0 * l_nnz + 16.0 * rows + 4.0 * rows};
  f.u_solve = {chain_depth(n, f.u_ptr, f.u_idx, /*forward=*/false),
               2.0 * u_nnz + rows, 20.0 * u_nnz + 24.0 * rows + 4.0 * rows};
  f.pivot_fallbacks = 0;
  f.numeric_flops = 0.0;
}

void ilu_numeric(const sparse::CsrMatrix& a, DeviceFactor& f) {
  const int n = f.n();
  const int row0 = f.row0;
  f.pivot_fallbacks = 0;
  double flops = 0.0;

  // Pivot-fallback threshold scales with the block's largest diagonal.
  double dmax = 0.0;
  for (int i = 0; i < n; ++i) {
    dmax = std::max(dmax, std::fabs(a.at(row0 + i, row0 + i)));
  }
  const double tiny = 1e-13 * (dmax + 1e-300);

  std::vector<double> w(static_cast<std::size_t>(n), 0.0);
  std::vector<double> diag(static_cast<std::size_t>(n), 1.0);
  // pos[c] = i + 1 marks column c as present in row i's pattern (updates
  // landing outside the pattern are dropped — the ILU(0) dropping rule).
  std::vector<int> pos(static_cast<std::size_t>(n), 0);

  for (int i = 0; i < n; ++i) {
    const auto llo = f.l_ptr[static_cast<std::size_t>(i)];
    const auto lhi = f.l_ptr[static_cast<std::size_t>(i) + 1];
    const auto ulo = f.u_ptr[static_cast<std::size_t>(i)];
    const auto uhi = f.u_ptr[static_cast<std::size_t>(i) + 1];

    // Scatter the pattern (zeros) and A's block-local row values into w.
    for (auto p = llo; p < lhi; ++p) {
      const int c = f.l_idx[static_cast<std::size_t>(p)];
      w[static_cast<std::size_t>(c)] = 0.0;
      pos[static_cast<std::size_t>(c)] = i + 1;
    }
    for (auto p = ulo; p < uhi; ++p) {
      const int c = f.u_idx[static_cast<std::size_t>(p)];
      w[static_cast<std::size_t>(c)] = 0.0;
      pos[static_cast<std::size_t>(c)] = i + 1;
    }
    w[static_cast<std::size_t>(i)] = 0.0;
    pos[static_cast<std::size_t>(i)] = i + 1;
    const auto rlo = a.row_ptr[static_cast<std::size_t>(row0 + i)];
    const auto rhi = a.row_ptr[static_cast<std::size_t>(row0 + i) + 1];
    for (auto p = rlo; p < rhi; ++p) {
      const int c = a.col_idx[static_cast<std::size_t>(p)] - row0;
      if (c < 0 || c >= n) continue;
      if (pos[static_cast<std::size_t>(c)] == i + 1) {
        w[static_cast<std::size_t>(c)] = a.vals[static_cast<std::size_t>(p)];
      }
    }

    // IKJ elimination: for each pivot column p (ascending — l_idx is
    // sorted), divide and fold pivot row p's U part into the working row.
    for (auto lp = llo; lp < lhi; ++lp) {
      const int p = f.l_idx[static_cast<std::size_t>(lp)];
      const double lip =
          w[static_cast<std::size_t>(p)] / diag[static_cast<std::size_t>(p)];
      w[static_cast<std::size_t>(p)] = lip;
      flops += 1.0;
      if (lip == 0.0) continue;
      for (auto e = f.u_ptr[static_cast<std::size_t>(p)];
           e < f.u_ptr[static_cast<std::size_t>(p) + 1]; ++e) {
        const int q = f.u_idx[static_cast<std::size_t>(e)];
        if (pos[static_cast<std::size_t>(q)] == i + 1) {
          w[static_cast<std::size_t>(q)] -=
              lip * f.u_val[static_cast<std::size_t>(e)];
          flops += 2.0;
        }
      }
    }

    // Gather the eliminated row back into the factor.
    for (auto p = llo; p < lhi; ++p) {
      f.l_val[static_cast<std::size_t>(p)] =
          w[static_cast<std::size_t>(f.l_idx[static_cast<std::size_t>(p)])];
    }
    for (auto p = ulo; p < uhi; ++p) {
      f.u_val[static_cast<std::size_t>(p)] =
          w[static_cast<std::size_t>(f.u_idx[static_cast<std::size_t>(p)])];
    }
    double di = w[static_cast<std::size_t>(i)];
    if (!(std::fabs(di) > tiny)) {  // tiny/zero/NaN pivot: identity row
      di = 1.0;
      ++f.pivot_fallbacks;
    }
    diag[static_cast<std::size_t>(i)] = di;
    f.inv_diag[static_cast<std::size_t>(i)] = 1.0 / di;
  }
  f.numeric_flops = flops;
}

}  // namespace cagmres::precond
