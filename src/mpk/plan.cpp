#include "mpk/plan.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "mpk/boundary.hpp"

namespace cagmres::mpk {

std::vector<int> MpkPlan::rows_per_device() const {
  std::vector<int> rows;
  rows.reserve(dev.size());
  for (const auto& d : dev) rows.push_back(d.owned);
  return rows;
}

namespace {

/// Copies global rows row_of(0 .. count-1) of `a` into `out`, in that
/// order, with columns mapped to the device-local index space of `bfs`.
template <typename RowOf>
void copy_rows_local(const sparse::CsrMatrix& a, int count, RowOf row_of,
                     const detail::HopBfs& bfs, int n_cols,
                     sparse::CsrMatrix& out) {
  out.n_rows = count;
  out.n_cols = n_cols;
  out.row_ptr.resize(static_cast<std::size_t>(count) + 1);
  out.row_ptr[0] = 0;
  for (int i = 0; i < count; ++i) {
    out.row_ptr[static_cast<std::size_t>(i) + 1] =
        out.row_ptr[static_cast<std::size_t>(i)] + a.row_nnz(row_of(i));
  }
  out.col_idx.resize(static_cast<std::size_t>(out.row_ptr.back()));
  out.vals.resize(static_cast<std::size_t>(out.row_ptr.back()));
  int* col = out.col_idx.data();
  double* val = out.vals.data();
  for (int i = 0; i < count; ++i) {
    const auto r = static_cast<std::size_t>(row_of(i));
    const auto lo = static_cast<std::size_t>(a.row_ptr[r]);
    const auto hi = static_cast<std::size_t>(a.row_ptr[r + 1]);
    for (auto p = lo; p < hi; ++p) {
      *col++ = bfs.local(a.col_idx[p]);
      *val++ = a.vals[p];
    }
  }
}

}  // namespace

MpkPlan build_mpk_plan(const sparse::CsrMatrix& a,
                       const std::vector<int>& offsets, int s) {
  CAGMRES_REQUIRE(a.n_rows == a.n_cols, "MPK needs a square matrix");
  CAGMRES_REQUIRE(offsets.size() >= 2 && offsets.front() == 0 &&
                      offsets.back() == a.n_rows,
                  "bad offsets");
  CAGMRES_REQUIRE(s >= 1, "s must be positive");
  const int ng = static_cast<int>(offsets.size()) - 1;
  const int n = a.n_rows;
  const auto ung = static_cast<std::size_t>(ng);

  MpkPlan plan;
  plan.s = s;
  plan.offsets = offsets;
  plan.dev.resize(ung);
  MpkStats& st = plan.stats;
  st.s = s;
  st.n_devices = ng;
  st.local_nnz.assign(ung, 0);
  st.boundary_nnz.assign(ung, 0);
  st.ext_count.assign(ung, 0);
  st.send_count.assign(ung, 0);
  st.extra_flops.assign(ung, 0.0);

  // Owning device of every row, and which rows any other device reads.
  std::vector<int> owner(static_cast<std::size_t>(n));
  for (int d = 0; d < ng; ++d) {
    CAGMRES_REQUIRE(offsets[static_cast<std::size_t>(d)] <=
                        offsets[static_cast<std::size_t>(d) + 1],
                    "bad offsets");
    std::fill(owner.begin() + offsets[static_cast<std::size_t>(d)],
              owner.begin() + offsets[static_cast<std::size_t>(d) + 1], d);
  }
  std::vector<char> needed(static_cast<std::size_t>(n), 0);

  detail::HopBfs bfs(a);
  for (int d = 0; d < ng; ++d) {
    MpkDevicePlan& dp = plan.dev[static_cast<std::size_t>(d)];
    dp.row0 = offsets[static_cast<std::size_t>(d)];
    dp.owned = offsets[static_cast<std::size_t>(d) + 1] - dp.row0;
    bfs.run(dp.row0, dp.row0 + dp.owned, s, dp.ext_global);
    const int next = static_cast<int>(dp.ext_global.size());

    dp.ext_owner.resize(static_cast<std::size_t>(next));
    dp.ext_owner_row.resize(static_cast<std::size_t>(next));
    for (int e = 0; e < next; ++e) {
      const int g = dp.ext_global[static_cast<std::size_t>(e)];
      const int o = owner[static_cast<std::size_t>(g)];
      dp.ext_owner[static_cast<std::size_t>(e)] = o;
      dp.ext_owner_row[static_cast<std::size_t>(e)] =
          g - offsets[static_cast<std::size_t>(o)];
      char& nd = needed[static_cast<std::size_t>(g)];
      if (nd == 0) {
        nd = 1;
        ++st.send_count[static_cast<std::size_t>(o)];
      }
    }

    // Local block A^(d) with device-local columns.
    {
      sparse::CsrMatrix local;
      copy_rows_local(
          a, dp.owned, [&](int i) { return dp.row0 + i; }, bfs, dp.z_size(),
          local);
      st.local_nnz[static_cast<std::size_t>(d)] = local.nnz();
      dp.local_ell = sparse::to_ell(local);
    }

    // Boundary submatrix: the rows at hops 1..s-1, which are the leading
    // externals, so row i's result lands in z slot owned + i. Step k
    // multiplies the prefix of rows with hop <= s-k.
    const int brows = s >= 2 ? bfs.reach(s - 1) : 0;
    dp.boundary_out_pos.resize(static_cast<std::size_t>(brows));
    for (int i = 0; i < brows; ++i) {
      dp.boundary_out_pos[static_cast<std::size_t>(i)] = dp.owned + i;
    }
    dp.boundary_rows_at_step.resize(static_cast<std::size_t>(s));
    for (int k = 1; k <= s; ++k) {
      dp.boundary_rows_at_step[static_cast<std::size_t>(k) - 1] =
          s - k >= 1 ? bfs.reach(s - k) : 0;
    }
    copy_rows_local(
        a, brows,
        [&](int i) { return dp.ext_global[static_cast<std::size_t>(i)]; },
        bfs, dp.z_size(), dp.boundary);
    st.boundary_nnz[static_cast<std::size_t>(d)] = dp.boundary.nnz();
    // Extra flops per MPK call: 2 * sum over steps of the boundary nnz
    // multiplied at that step.
    double w = 0.0;
    for (int k = 1; k <= s; ++k) {
      const int rows = dp.boundary_rows_at_step[static_cast<std::size_t>(k) - 1];
      w += 2.0 * static_cast<double>(
                     dp.boundary.row_ptr[static_cast<std::size_t>(rows)]);
    }
    st.extra_flops[static_cast<std::size_t>(d)] = w;
    st.ext_count[static_cast<std::size_t>(d)] = next;

    bfs.clear(dp.ext_global);
  }

  // Each owner's send list: its needed rows, ascending, owned-local.
  for (int d = 0; d < ng; ++d) {
    MpkDevicePlan& dp = plan.dev[static_cast<std::size_t>(d)];
    dp.send_local_rows.resize(
        static_cast<std::size_t>(st.send_count[static_cast<std::size_t>(d)]));
    int* out = dp.send_local_rows.data();
    for (int i = 0; i < dp.owned; ++i) {
      if (needed[static_cast<std::size_t>(dp.row0 + i)] != 0) *out++ = i;
    }
  }
  return plan;
}

}  // namespace cagmres::mpk
