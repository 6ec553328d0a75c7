#include "precond/ilu.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace cagmres::precond {

namespace {

/// Builds the level schedule of one triangular factor: a row's level is one
/// past the maximum level of its in-factor dependencies. `forward` walks
/// rows ascending (L); otherwise descending (U, whose dependencies sit
/// below the diagonal's row in the sweep order).
LevelSchedule build_schedule(int n, const std::vector<std::int64_t>& ptr,
                             const std::vector<int>& idx, bool forward) {
  std::vector<int> lvl(static_cast<std::size_t>(n), 0);
  int max_lvl = -1;
  for (int step = 0; step < n; ++step) {
    const int i = forward ? step : n - 1 - step;
    int l = 0;
    for (auto p = ptr[static_cast<std::size_t>(i)];
         p < ptr[static_cast<std::size_t>(i) + 1]; ++p) {
      l = std::max(l, lvl[static_cast<std::size_t>(idx[static_cast<std::size_t>(p)])] + 1);
    }
    lvl[static_cast<std::size_t>(i)] = l;
    max_lvl = std::max(max_lvl, l);
  }
  LevelSchedule s;
  const int levels = n > 0 ? max_lvl + 1 : 0;
  s.level_ptr.assign(static_cast<std::size_t>(levels) + 1, 0);
  for (int i = 0; i < n; ++i) {
    ++s.level_ptr[static_cast<std::size_t>(lvl[static_cast<std::size_t>(i)]) + 1];
  }
  for (int l = 0; l < levels; ++l) {
    s.level_ptr[static_cast<std::size_t>(l) + 1] +=
        s.level_ptr[static_cast<std::size_t>(l)];
  }
  s.order.resize(static_cast<std::size_t>(n));
  std::vector<int> at(s.level_ptr.begin(), s.level_ptr.end() - 1);
  for (int i = 0; i < n; ++i) {  // ascending i => ascending within a level
    s.order[static_cast<std::size_t>(at[static_cast<std::size_t>(
        lvl[static_cast<std::size_t>(i)])]++)] = i;
  }
  s.level_nnz.assign(static_cast<std::size_t>(levels), 0.0);
  for (int i = 0; i < n; ++i) {
    s.level_nnz[static_cast<std::size_t>(lvl[static_cast<std::size_t>(i)])] +=
        static_cast<double>(ptr[static_cast<std::size_t>(i) + 1] -
                            ptr[static_cast<std::size_t>(i)]);
  }
  return s;
}

}  // namespace

void ilu_symbolic(const sparse::CsrMatrix& a, int row0, int row1, int level,
                  int underlap, DeviceFactor& f) {
  CAGMRES_REQUIRE(0 <= row0 && row0 <= row1 && row1 <= a.n_rows,
                  "ILU block out of range");
  CAGMRES_REQUIRE(level >= 0 && underlap >= 0, "bad ILU(k) parameters");
  const int n = row1 - row0;
  f.row0 = row0;
  f.row1 = row1;
  f.l_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  f.u_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  f.l_idx.clear();
  f.u_idx.clear();

  // A local row is Jacobi-treated (diagonal-only in M) when it falls in the
  // underlap margin at either end of the block.
  auto jacobi_row = [&](int i) { return i < underlap || i >= n - underlap; };

  // Per-U-entry fill levels, needed while later rows merge this row.
  std::vector<std::int64_t> ulev_ptr(f.u_ptr.begin(), f.u_ptr.end());
  std::vector<int> u_fill_lev;

  // Sorted-pattern working row as a linked list over local columns:
  // nxt[c] = next pattern column after c (n = list head sentinel, -1 = end).
  const int kHead = n;
  std::vector<int> nxt(static_cast<std::size_t>(n) + 1, -1);
  std::vector<int> lev(static_cast<std::size_t>(n), 0);
  std::vector<char> in_row(static_cast<std::size_t>(n), 0);

  for (int i = 0; i < n; ++i) {
    if (jacobi_row(i)) {  // diagonal-only: empty L and U rows
      f.l_ptr[static_cast<std::size_t>(i) + 1] =
          static_cast<std::int64_t>(f.l_idx.size());
      f.u_ptr[static_cast<std::size_t>(i) + 1] =
          static_cast<std::int64_t>(f.u_idx.size());
      continue;
    }
    // Seed the pattern with the block-local part of A's row i + the
    // diagonal (level 0).
    nxt[static_cast<std::size_t>(kHead)] = -1;
    int tail = kHead;
    const auto rlo = a.row_ptr[static_cast<std::size_t>(row0 + i)];
    const auto rhi = a.row_ptr[static_cast<std::size_t>(row0 + i) + 1];
    bool have_diag = false;
    for (auto p = rlo; p < rhi; ++p) {
      const int c = a.col_idx[static_cast<std::size_t>(p)] - row0;
      if (c < 0 || c >= n) continue;  // coupling outside the block: dropped
      nxt[static_cast<std::size_t>(tail)] = c;
      nxt[static_cast<std::size_t>(c)] = -1;
      lev[static_cast<std::size_t>(c)] = 0;
      in_row[static_cast<std::size_t>(c)] = 1;
      tail = c;
      if (c == i) have_diag = true;
    }
    if (!have_diag) {  // structurally missing diagonal: add it (value 0)
      int at = kHead;
      while (nxt[static_cast<std::size_t>(at)] != -1 &&
             nxt[static_cast<std::size_t>(at)] < i) {
        at = nxt[static_cast<std::size_t>(at)];
      }
      nxt[static_cast<std::size_t>(i)] = nxt[static_cast<std::size_t>(at)];
      nxt[static_cast<std::size_t>(at)] = i;
      lev[static_cast<std::size_t>(i)] = 0;
      in_row[static_cast<std::size_t>(i)] = 1;
    }

    // Merge the U rows of every pivot p < i in the (growing, sorted)
    // pattern: fill at column q gets level lev(i,p) + lev(p,q) + 1.
    for (int p = nxt[static_cast<std::size_t>(kHead)]; p != -1 && p < i;
         p = nxt[static_cast<std::size_t>(p)]) {
      const int lip = lev[static_cast<std::size_t>(p)];
      if (lip >= level) continue;  // any fill through p would exceed k
      int at = p;  // merged columns are > p: scan forward from p
      for (auto e = ulev_ptr[static_cast<std::size_t>(p)];
           e < ulev_ptr[static_cast<std::size_t>(p) + 1]; ++e) {
        const int q = f.u_idx[static_cast<std::size_t>(e)];
        const int lq =
            lip + u_fill_lev[static_cast<std::size_t>(e)] + 1;
        if (lq > level) continue;
        if (in_row[static_cast<std::size_t>(q)] != 0) {
          lev[static_cast<std::size_t>(q)] =
              std::min(lev[static_cast<std::size_t>(q)], lq);
          continue;
        }
        while (nxt[static_cast<std::size_t>(at)] != -1 &&
               nxt[static_cast<std::size_t>(at)] < q) {
          at = nxt[static_cast<std::size_t>(at)];
        }
        nxt[static_cast<std::size_t>(q)] = nxt[static_cast<std::size_t>(at)];
        nxt[static_cast<std::size_t>(at)] = q;
        lev[static_cast<std::size_t>(q)] = lq;
        in_row[static_cast<std::size_t>(q)] = 1;
      }
    }

    // Harvest the row into L (c < i) and U (c > i), clearing the markers.
    for (int c = nxt[static_cast<std::size_t>(kHead)]; c != -1;
         c = nxt[static_cast<std::size_t>(c)]) {
      in_row[static_cast<std::size_t>(c)] = 0;
      if (c < i) {
        f.l_idx.push_back(c);
      } else if (c > i) {
        f.u_idx.push_back(c);
        u_fill_lev.push_back(lev[static_cast<std::size_t>(c)]);
      }
    }
    f.l_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<std::int64_t>(f.l_idx.size());
    f.u_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<std::int64_t>(f.u_idx.size());
    ulev_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<std::int64_t>(f.u_idx.size());
  }

  f.l_val.assign(f.l_idx.size(), 0.0);
  f.u_val.assign(f.u_idx.size(), 0.0);
  f.inv_diag.assign(static_cast<std::size_t>(n), 1.0);
  f.l_sched = build_schedule(n, f.l_ptr, f.l_idx, /*forward=*/true);
  f.u_sched = build_schedule(n, f.u_ptr, f.u_idx, /*forward=*/false);
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
  // landing outside the pattern are dropped — the ILU(k) dropping rule).
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
