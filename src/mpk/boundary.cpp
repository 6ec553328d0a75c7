#include "mpk/boundary.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cagmres::mpk {

int BoundarySets::total_external() const {
  int n = 0;
  for (const auto& h : hops) n += static_cast<int>(h.size());
  return n;
}

BoundarySets compute_boundary_sets(const sparse::CsrMatrix& a, int row0,
                                   int row1, int s) {
  BoundarySets out;
  out.row0 = row0;
  out.row1 = row1;
  detail::HopBfs bfs(a);
  std::vector<int> ext;
  bfs.run(row0, row1, s, ext);
  out.hops.resize(static_cast<std::size_t>(s));
  for (int t = 1; t <= s; ++t) {
    out.hops[static_cast<std::size_t>(t) - 1].assign(
        ext.begin() + bfs.reach(t - 1), ext.begin() + bfs.reach(t));
  }
  return out;
}

namespace detail {

HopBfs::HopBfs(const sparse::CsrMatrix& a)
    : a_(a),
      stamp_(static_cast<std::size_t>(a.n_rows), -1),
      order_(static_cast<std::size_t>(a.n_rows) + 1) {}

void HopBfs::run(int row0, int row1, int s, std::vector<int>& ext) {
  CAGMRES_REQUIRE(0 <= row0 && row0 <= row1 && row1 <= a_.n_rows,
                  "bad row range");
  CAGMRES_REQUIRE(s >= 1, "s must be positive");
  row0_ = row0;
  row1_ = row1;
  const int owned = row1 - row0;
  hop_end_.assign(static_cast<std::size_t>(s) + 1, 0);
  const std::int64_t* rp = a_.row_ptr.data();
  const int* ci = a_.col_idx.data();
  int* stamp = stamp_.data();
  int* order = order_.data();
  for (int i = 0; i < owned; ++i) stamp[row0 + i] = i;
  int len = 0;
  // Stamps row r's unstamped columns with hop t, in discovery order.
  // Branch-free: every column is written to order[len] (order_ has a spare
  // slot past the most externals a block can have), and only an unstamped
  // one advances len.
  const auto expand = [&](int r, int t) {
    for (auto p = rp[r]; p < rp[r + 1]; ++p) {
      const int c = ci[p];
      const int old = stamp[c];
      const bool fresh = old < 0;
      order[len] = c;
      len += fresh;
      stamp[c] = fresh ? t : old;
    }
  };
  for (int r = row0; r < row1; ++r) expand(r, 1);
  hop_end_[1] = len;
  // Hop t expands hop t-1; an empty hop means the closure is complete and
  // every later hop stays empty.
  for (int t = 2; t <= s; ++t) {
    const int hi = hop_end_[static_cast<std::size_t>(t) - 1];
    for (int i = hop_end_[static_cast<std::size_t>(t) - 2]; i < hi; ++i) {
      expand(order[i], t);
    }
    hop_end_[static_cast<std::size_t>(t)] = len;
  }

  // Emit the hop lists in one pass over the stamps (a counting sort by
  // hop), turning each external's hop stamp into its local index, owned +
  // its position in `ext`.
  ext.resize(static_cast<std::size_t>(len));
  std::vector<int> next(hop_end_.begin(), hop_end_.end() - 1);
  const auto scan = [&](int lo, int hi) {
    for (int g = lo; g < hi; ++g) {
      const int t = stamp[g];
      if (t < 0) continue;
      const int e = next[static_cast<std::size_t>(t) - 1]++;
      ext[static_cast<std::size_t>(e)] = g;
      stamp[g] = owned + e;
    }
  };
  scan(0, row0);
  scan(row1, a_.n_rows);
}

void HopBfs::clear(const std::vector<int>& ext) {
  std::fill(stamp_.begin() + row0_, stamp_.begin() + row1_, -1);
  for (const int g : ext) stamp_[static_cast<std::size_t>(g)] = -1;
}

}  // namespace detail

}  // namespace cagmres::mpk
