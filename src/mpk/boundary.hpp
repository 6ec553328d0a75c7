// Boundary ("surface") set computation for the matrix powers kernel
// (paper §IV-A, Fig. 5).
//
// For a device owning rows [row0, row1), the vertices of the adjacency
// graph of A are classified by *hop distance*: hop 0 = owned rows, hop t =
// vertices whose shortest directed path (following row -> column-index
// edges) from an owned row has length t. In the paper's notation,
// delta^(d,k) is exactly the hop-(s-k+1) set, and i^(d,k) is the union of
// hops 0..s-k+1. Organizing by hop makes the per-step dependency a prefix:
// step k of an s-step MPK needs boundary rows of hops 1..s-k.
#pragma once

#include <vector>

#include "sparse/csr.hpp"

namespace cagmres::mpk {

/// Hop-classified dependency sets of one device's row block.
struct BoundarySets {
  int row0 = 0;  ///< first owned row
  int row1 = 0;  ///< one past last owned row
  /// hops[t-1] = sorted global indices at hop distance t, for t = 1..s.
  std::vector<std::vector<int>> hops;

  /// Total number of external indices (all hops).
  int total_external() const;
};

/// Computes the hop sets up to distance s for the block [row0, row1) of `a`.
/// The expansion follows stored column indices of A (the directed pattern),
/// matching the paper's str(a_i,:) recursion. build_mpk_plan drives
/// detail::HopBfs directly; this is the per-block view of the same BFS that
/// the Boundary.* tests check against a brute-force search.
BoundarySets compute_boundary_sets(const sparse::CsrMatrix& a, int row0,
                                   int row1, int s);

namespace detail {

/// The hop BFS behind compute_boundary_sets and build_mpk_plan. One
/// instance serves every row block of a build: it keeps one stamp per
/// matrix row, and run() touches (and clear() resets) only the owned rows
/// and the rows the block reaches, so a block costs its size and its
/// reach, not n.
class HopBfs {
 public:
  explicit HopBfs(const sparse::CsrMatrix& a);

  /// Classifies hops 1..s of the block [row0, row1) and writes its external
  /// indices to `ext` (resized once): hop order, ascending within a hop.
  /// Until clear(), local() maps the block's device-local index space.
  void run(int row0, int row1, int s, std::vector<int>& ext);

  /// Number of external indices at hop <= t (t = 0..s of the last run).
  int reach(int t) const { return hop_end_[static_cast<std::size_t>(t)]; }

  /// Device-local index of global column g of the last run: owned rows
  /// first, then `ext`. g must be owned or external.
  int local(int g) const { return stamp_[static_cast<std::size_t>(g)]; }

  /// Un-stamps the rows of the last run (`ext` as run() left it).
  void clear(const std::vector<int>& ext);

 private:
  const sparse::CsrMatrix& a_;
  int row0_ = 0;
  int row1_ = 0;
  /// Per row: -1 unreached, else its local index — except that during
  /// run() an external row holds its hop until the hop lists are emitted.
  std::vector<int> stamp_;
  std::vector<int> order_;    ///< BFS discovery order, hop by hop
  std::vector<int> hop_end_;  ///< hop_end_[t] = externals at hop <= t
};

}  // namespace detail

}  // namespace cagmres::mpk
