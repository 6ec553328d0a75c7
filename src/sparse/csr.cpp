#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace cagmres::sparse {

void CsrMatrix::validate() const {
  CAGMRES_REQUIRE(row_ptr.size() == static_cast<std::size_t>(n_rows) + 1,
                  "row_ptr size mismatch");
  CAGMRES_REQUIRE(row_ptr.front() == 0, "row_ptr[0] != 0");
  for (int i = 0; i < n_rows; ++i) {
    const auto lo = row_ptr[static_cast<std::size_t>(i)];
    const auto hi = row_ptr[static_cast<std::size_t>(i) + 1];
    CAGMRES_REQUIRE(lo <= hi, "row_ptr not monotone");
    for (auto k = lo; k < hi; ++k) {
      const int c = col_idx[static_cast<std::size_t>(k)];
      CAGMRES_REQUIRE(0 <= c && c < n_cols, "column index out of range");
      if (k > lo) {
        CAGMRES_REQUIRE(col_idx[static_cast<std::size_t>(k) - 1] < c,
                        "columns not strictly sorted within row");
      }
    }
  }
  CAGMRES_REQUIRE(col_idx.size() == static_cast<std::size_t>(nnz()),
                  "col_idx size mismatch");
  CAGMRES_REQUIRE(vals.size() == static_cast<std::size_t>(nnz()),
                  "vals size mismatch");
}

double CsrMatrix::at(int i, int j) const {
  const auto lo = row_ptr[static_cast<std::size_t>(i)];
  const auto hi = row_ptr[static_cast<std::size_t>(i) + 1];
  const auto* begin = col_idx.data() + lo;
  const auto* end = col_idx.data() + hi;
  const auto* it = std::lower_bound(begin, end, j);
  if (it == end || *it != j) return 0.0;
  return vals[static_cast<std::size_t>(lo + (it - begin))];
}

void spmv(const CsrMatrix& a, const double* x, double* y) {
  // Rows are independent; per-row accumulation is serial, so the result is
  // bitwise identical for any thread count.
  const auto row = [&](int i) {
    double acc = 0.0;
    const auto lo = a.row_ptr[static_cast<std::size_t>(i)];
    const auto hi = a.row_ptr[static_cast<std::size_t>(i) + 1];
    for (auto k = lo; k < hi; ++k) {
      acc += a.vals[static_cast<std::size_t>(k)] *
             x[a.col_idx[static_cast<std::size_t>(k)]];
    }
    y[i] = acc;
  };
  // Serial below the threshold (see the ELL spmv).
  if (a.n_rows > kSpmvParallelRows) {
#pragma omp parallel for schedule(static)
    for (int i = 0; i < a.n_rows; ++i) row(i);
  } else {
    for (int i = 0; i < a.n_rows; ++i) row(i);
  }
}

void spmv_transpose(const CsrMatrix& a, const double* x, double* y) {
  for (int j = 0; j < a.n_cols; ++j) y[j] = 0.0;
  for (int i = 0; i < a.n_rows; ++i) {
    const double xi = x[i];
    const auto lo = a.row_ptr[static_cast<std::size_t>(i)];
    const auto hi = a.row_ptr[static_cast<std::size_t>(i) + 1];
    for (auto k = lo; k < hi; ++k) {
      y[a.col_idx[static_cast<std::size_t>(k)]] +=
          a.vals[static_cast<std::size_t>(k)] * xi;
    }
  }
}

CsrMatrix extract_rows(const CsrMatrix& a, const std::vector<int>& rows) {
  CsrMatrix out;
  out.n_rows = static_cast<int>(rows.size());
  out.n_cols = a.n_cols;
  out.row_ptr.resize(rows.size() + 1);
  out.row_ptr[0] = 0;
  std::int64_t nnz = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    nnz += a.row_nnz(rows[r]);
    out.row_ptr[r + 1] = nnz;
  }
  out.col_idx.resize(static_cast<std::size_t>(nnz));
  out.vals.resize(static_cast<std::size_t>(nnz));
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const int i = rows[r];
    const auto lo = a.row_ptr[static_cast<std::size_t>(i)];
    const auto len = a.row_nnz(i);
    std::copy_n(a.col_idx.data() + lo, len,
                out.col_idx.data() + out.row_ptr[r]);
    std::copy_n(a.vals.data() + lo, len, out.vals.data() + out.row_ptr[r]);
  }
  return out;
}

CsrMatrix permute_symmetric(const CsrMatrix& a, const std::vector<int>& p) {
  CAGMRES_REQUIRE(a.n_rows == a.n_cols, "symmetric permutation needs square A");
  CAGMRES_REQUIRE(static_cast<int>(p.size()) == a.n_rows, "permutation size");
  const int n = a.n_rows;
  std::vector<int> inv(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    CAGMRES_REQUIRE(0 <= p[static_cast<std::size_t>(i)] &&
                        p[static_cast<std::size_t>(i)] < n &&
                        inv[static_cast<std::size_t>(p[static_cast<std::size_t>(i)])] < 0,
                    "p is not a permutation");
    inv[static_cast<std::size_t>(p[static_cast<std::size_t>(i)])] = i;
  }
  CsrMatrix out;
  out.n_rows = n;
  out.n_cols = n;
  out.row_ptr.resize(static_cast<std::size_t>(n) + 1);
  out.row_ptr[0] = 0;
  for (int i = 0; i < n; ++i) {
    out.row_ptr[static_cast<std::size_t>(i) + 1] =
        out.row_ptr[static_cast<std::size_t>(i)] +
        a.row_nnz(p[static_cast<std::size_t>(i)]);
  }
  out.col_idx.resize(static_cast<std::size_t>(out.row_ptr.back()));
  out.vals.resize(static_cast<std::size_t>(out.row_ptr.back()));
  std::vector<std::pair<int, double>> buf;
  for (int i = 0; i < n; ++i) {
    const int src = p[static_cast<std::size_t>(i)];
    const auto lo = a.row_ptr[static_cast<std::size_t>(src)];
    const auto hi = a.row_ptr[static_cast<std::size_t>(src) + 1];
    buf.clear();
    for (auto k = lo; k < hi; ++k) {
      buf.emplace_back(inv[static_cast<std::size_t>(
                           a.col_idx[static_cast<std::size_t>(k)])],
                       a.vals[static_cast<std::size_t>(k)]);
    }
    std::sort(buf.begin(), buf.end());
    auto dst = out.row_ptr[static_cast<std::size_t>(i)];
    for (const auto& [c, v] : buf) {
      out.col_idx[static_cast<std::size_t>(dst)] = c;
      out.vals[static_cast<std::size_t>(dst)] = v;
      ++dst;
    }
  }
  return out;
}

CsrMatrix transpose(const CsrMatrix& a) {
  CsrMatrix out;
  out.n_rows = a.n_cols;
  out.n_cols = a.n_rows;
  out.row_ptr.assign(static_cast<std::size_t>(a.n_cols) + 1, 0);
  for (const int c : a.col_idx) ++out.row_ptr[static_cast<std::size_t>(c) + 1];
  for (std::size_t i = 1; i < out.row_ptr.size(); ++i) {
    out.row_ptr[i] += out.row_ptr[i - 1];
  }
  out.col_idx.resize(static_cast<std::size_t>(a.nnz()));
  out.vals.resize(static_cast<std::size_t>(a.nnz()));
  std::vector<std::int64_t> next(out.row_ptr.begin(), out.row_ptr.end() - 1);
  for (int i = 0; i < a.n_rows; ++i) {
    const auto lo = a.row_ptr[static_cast<std::size_t>(i)];
    const auto hi = a.row_ptr[static_cast<std::size_t>(i) + 1];
    for (auto k = lo; k < hi; ++k) {
      const int c = a.col_idx[static_cast<std::size_t>(k)];
      const auto dst = next[static_cast<std::size_t>(c)]++;
      out.col_idx[static_cast<std::size_t>(dst)] = i;
      out.vals[static_cast<std::size_t>(dst)] = a.vals[static_cast<std::size_t>(k)];
    }
  }
  return out;
}

double frobenius_norm(const CsrMatrix& a) {
  double acc = 0.0;
  for (const double v : a.vals) acc += v * v;
  return std::sqrt(acc);
}

}  // namespace cagmres::sparse
