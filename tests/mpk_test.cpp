// Unit + property tests for the matrix powers kernel (paper §IV):
// boundary sets, plan construction, execution vs. repeated SpMV, Newton
// shifts with complex pairs, and the communication statistics.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/partition.hpp"
#include "mpk/boundary.hpp"
#include "mpk/exec.hpp"
#include "mpk/plan.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"
#include "sim/perf_model.hpp"
#include "sim/trace.hpp"

#include "codec_tol.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"

namespace cagmres::mpk {
namespace {

using sim::DistMultiVec;
using sim::Machine;
using sparse::CsrMatrix;

std::vector<int> offsets_of(const CsrMatrix& a, int ng) {
  std::vector<int> off(static_cast<std::size_t>(ng) + 1);
  for (int d = 0; d <= ng; ++d) {
    off[static_cast<std::size_t>(d)] =
        static_cast<int>((static_cast<long long>(a.n_rows) * d) / ng);
  }
  return off;
}

/// Brute-force hop sets via BFS on the directed row->column pattern.
std::vector<std::vector<int>> brute_force_hops(const CsrMatrix& a, int row0,
                                               int row1, int s) {
  std::vector<int> dist(static_cast<std::size_t>(a.n_rows), -1);
  std::vector<int> frontier;
  for (int i = row0; i < row1; ++i) {
    dist[static_cast<std::size_t>(i)] = 0;
    frontier.push_back(i);
  }
  std::vector<std::vector<int>> hops(static_cast<std::size_t>(s));
  for (int t = 1; t <= s; ++t) {
    std::vector<int> next;
    for (const int r : frontier) {
      const auto lo = a.row_ptr[static_cast<std::size_t>(r)];
      const auto hi = a.row_ptr[static_cast<std::size_t>(r) + 1];
      for (auto p = lo; p < hi; ++p) {
        const int c = a.col_idx[static_cast<std::size_t>(p)];
        if (dist[static_cast<std::size_t>(c)] < 0) {
          dist[static_cast<std::size_t>(c)] = t;
          next.push_back(c);
        }
      }
    }
    std::sort(next.begin(), next.end());
    hops[static_cast<std::size_t>(t) - 1] = next;
    frontier = next;
  }
  return hops;
}

/// The plan builder before the shared hop BFS, kept as the oracle the
/// current one must match field for field: per-device hop sets from a
/// fresh BFS, owners by binary search over the offsets, and each owner's
/// send list by sorting and deduplicating every reader's externals.
MpkPlan reference_build_mpk_plan(const CsrMatrix& a,
                                 const std::vector<int>& offsets, int s) {
  const int ng = static_cast<int>(offsets.size()) - 1;
  const int n = a.n_rows;
  const auto ung = static_cast<std::size_t>(ng);
  MpkPlan plan;
  plan.s = s;
  plan.offsets = offsets;
  plan.dev.resize(ung);
  plan.stats.s = s;
  plan.stats.n_devices = ng;
  plan.stats.local_nnz.assign(ung, 0);
  plan.stats.boundary_nnz.assign(ung, 0);
  plan.stats.ext_count.assign(ung, 0);
  plan.stats.send_count.assign(ung, 0);
  plan.stats.extra_flops.assign(ung, 0.0);
  std::vector<std::vector<int>> send_global(ung);
  std::vector<int> loc(static_cast<std::size_t>(n), -1);
  for (int d = 0; d < ng; ++d) {
    MpkDevicePlan& dp = plan.dev[static_cast<std::size_t>(d)];
    dp.row0 = offsets[static_cast<std::size_t>(d)];
    dp.owned = offsets[static_cast<std::size_t>(d) + 1] - dp.row0;
    const auto hops = brute_force_hops(a, dp.row0, dp.row0 + dp.owned, s);
    for (const auto& h : hops) {
      dp.ext_global.insert(dp.ext_global.end(), h.begin(), h.end());
    }
    for (const int g : dp.ext_global) {
      const int o = static_cast<int>(std::upper_bound(offsets.begin(),
                                                      offsets.end(), g) -
                                     offsets.begin()) -
                    1;
      dp.ext_owner.push_back(o);
      dp.ext_owner_row.push_back(g - offsets[static_cast<std::size_t>(o)]);
      send_global[static_cast<std::size_t>(o)].push_back(g);
    }
    for (int i = 0; i < dp.owned; ++i) {
      loc[static_cast<std::size_t>(dp.row0 + i)] = i;
    }
    for (std::size_t e = 0; e < dp.ext_global.size(); ++e) {
      loc[static_cast<std::size_t>(dp.ext_global[e])] =
          dp.owned + static_cast<int>(e);
    }
    // Rows `rows` of `a` with device-local columns.
    const auto copy_rows = [&](const std::vector<int>& rows) {
      CsrMatrix m;
      m.n_rows = static_cast<int>(rows.size());
      m.n_cols = dp.z_size();
      m.row_ptr.assign(rows.size() + 1, 0);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        m.row_ptr[i + 1] = m.row_ptr[i] + a.row_nnz(rows[i]);
        for (auto p = a.row_ptr[static_cast<std::size_t>(rows[i])];
             p < a.row_ptr[static_cast<std::size_t>(rows[i]) + 1]; ++p) {
          m.col_idx.push_back(loc[static_cast<std::size_t>(
              a.col_idx[static_cast<std::size_t>(p)])]);
          m.vals.push_back(a.vals[static_cast<std::size_t>(p)]);
        }
      }
      return m;
    };
    std::vector<int> own_rows;
    for (int i = 0; i < dp.owned; ++i) own_rows.push_back(dp.row0 + i);
    const CsrMatrix local = copy_rows(own_rows);
    plan.stats.local_nnz[static_cast<std::size_t>(d)] = local.nnz();
    dp.local_ell = sparse::to_ell(local);

    std::vector<int> brow_global;
    std::vector<int> rows_with_hop_le(static_cast<std::size_t>(s), 0);
    for (int t = 1; t <= s - 1; ++t) {
      for (const int g : hops[static_cast<std::size_t>(t) - 1]) {
        brow_global.push_back(g);
        dp.boundary_out_pos.push_back(loc[static_cast<std::size_t>(g)]);
      }
      rows_with_hop_le[static_cast<std::size_t>(t)] =
          static_cast<int>(brow_global.size());
    }
    for (int k = 1; k <= s; ++k) {
      dp.boundary_rows_at_step.push_back(
          s - k >= 1 ? rows_with_hop_le[static_cast<std::size_t>(s - k)] : 0);
    }
    dp.boundary = copy_rows(brow_global);
    plan.stats.boundary_nnz[static_cast<std::size_t>(d)] = dp.boundary.nnz();
    double w = 0.0;
    for (int k = 1; k <= s; ++k) {
      const int rows = dp.boundary_rows_at_step[static_cast<std::size_t>(k) - 1];
      w += 2.0 * static_cast<double>(
                     dp.boundary.row_ptr[static_cast<std::size_t>(rows)]);
    }
    plan.stats.extra_flops[static_cast<std::size_t>(d)] = w;
    plan.stats.ext_count[static_cast<std::size_t>(d)] =
        static_cast<std::int64_t>(dp.ext_global.size());
    std::fill(loc.begin(), loc.end(), -1);
  }
  for (int d = 0; d < ng; ++d) {
    auto& sg = send_global[static_cast<std::size_t>(d)];
    std::sort(sg.begin(), sg.end());
    sg.erase(std::unique(sg.begin(), sg.end()), sg.end());
    MpkDevicePlan& dp = plan.dev[static_cast<std::size_t>(d)];
    for (const int g : sg) dp.send_local_rows.push_back(g - dp.row0);
    plan.stats.send_count[static_cast<std::size_t>(d)] =
        static_cast<std::int64_t>(sg.size());
  }
  return plan;
}

/// Field-by-field equality of two plans; doubles compared by their bits.
void expect_same_plan(const MpkPlan& got, const MpkPlan& want,
                      const std::string& what) {
  const auto same_doubles = [](const std::vector<double>& x,
                               const std::vector<double>& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  EXPECT_EQ(got.s, want.s) << what;
  EXPECT_EQ(got.offsets, want.offsets) << what;
  ASSERT_EQ(got.dev.size(), want.dev.size()) << what;
  for (std::size_t d = 0; d < want.dev.size(); ++d) {
    const MpkDevicePlan& g = got.dev[d];
    const MpkDevicePlan& w = want.dev[d];
    const std::string at = what + " device " + std::to_string(d);
    EXPECT_EQ(g.row0, w.row0) << at;
    EXPECT_EQ(g.owned, w.owned) << at;
    EXPECT_EQ(g.ext_global, w.ext_global) << at;
    EXPECT_EQ(g.ext_owner, w.ext_owner) << at;
    EXPECT_EQ(g.ext_owner_row, w.ext_owner_row) << at;
    EXPECT_EQ(g.local_ell.n_rows, w.local_ell.n_rows) << at;
    EXPECT_EQ(g.local_ell.n_cols, w.local_ell.n_cols) << at;
    EXPECT_EQ(g.local_ell.width, w.local_ell.width) << at;
    EXPECT_EQ(g.local_ell.col_idx, w.local_ell.col_idx) << at;
    EXPECT_TRUE(same_doubles(g.local_ell.vals, w.local_ell.vals)) << at;
    EXPECT_EQ(g.boundary.n_rows, w.boundary.n_rows) << at;
    EXPECT_EQ(g.boundary.n_cols, w.boundary.n_cols) << at;
    EXPECT_EQ(g.boundary.row_ptr, w.boundary.row_ptr) << at;
    EXPECT_EQ(g.boundary.col_idx, w.boundary.col_idx) << at;
    EXPECT_TRUE(same_doubles(g.boundary.vals, w.boundary.vals)) << at;
    EXPECT_EQ(g.boundary_out_pos, w.boundary_out_pos) << at;
    EXPECT_EQ(g.boundary_rows_at_step, w.boundary_rows_at_step) << at;
    EXPECT_EQ(g.send_local_rows, w.send_local_rows) << at;
  }
  EXPECT_EQ(got.stats.s, want.stats.s) << what;
  EXPECT_EQ(got.stats.n_devices, want.stats.n_devices) << what;
  EXPECT_EQ(got.stats.local_nnz, want.stats.local_nnz) << what;
  EXPECT_EQ(got.stats.boundary_nnz, want.stats.boundary_nnz) << what;
  EXPECT_EQ(got.stats.ext_count, want.stats.ext_count) << what;
  EXPECT_EQ(got.stats.send_count, want.stats.send_count) << what;
  EXPECT_TRUE(same_doubles(got.stats.extra_flops, want.stats.extra_flops))
      << what;
}

/// n x n matrix with a random, unsymmetric pattern: a diagonal plus
/// `per_row` off-diagonal columns per row drawn uniformly.
CsrMatrix random_pattern(int n, int per_row, std::uint64_t seed) {
  Rng rng(seed);
  sparse::CooBuilder b(n, n);
  for (int i = 0; i < n; ++i) {
    b.add(i, i, 4.0);
    for (int k = 0; k < per_row; ++k) {
      const int j = static_cast<int>(rng.uniform() * n) % n;
      if (j != i) b.add(i, j, rng.normal());
    }
  }
  return b.build();
}

TEST(Boundary, MatchesBruteForceBfs) {
  {
    const CsrMatrix a = sparse::make_circuit_like(0.04, true, 13);
    const int row0 = 30, row1 = 150, s = 4;
    const BoundarySets bs = compute_boundary_sets(a, row0, row1, s);
    const auto ref = brute_force_hops(a, row0, row1, s);
    ASSERT_EQ(bs.hops.size(), ref.size());
    for (int t = 0; t < s; ++t) {
      EXPECT_EQ(bs.hops[static_cast<std::size_t>(t)],
                ref[static_cast<std::size_t>(t)])
          << "hop " << t + 1;
    }
  }
  // A directed pattern: row i reads i+1 and a chord 7 rows back (mod n), so
  // i -> j edges are not mirrored. Every row is reachable from any block;
  // with s past the closure the last hops are empty.
  const int n = 60;
  sparse::CooBuilder b(n, n);
  for (int i = 0; i < n; ++i) {
    b.add(i, i, 2.0);
    b.add(i, (i + 1) % n, -1.0);
    if (i % 3 == 0) b.add(i, (i + n - 7) % n, 0.5);
  }
  const CsrMatrix a = b.build();
  for (const auto& [row0, row1] : {std::pair{20, 26}, std::pair{0, 1},
                                   std::pair{55, 60}, std::pair{30, 30}}) {
    const int s = n;
    const BoundarySets bs = compute_boundary_sets(a, row0, row1, s);
    const auto ref = brute_force_hops(a, row0, row1, s);
    ASSERT_EQ(bs.hops.size(), ref.size());
    for (int t = 0; t < s; ++t) {
      EXPECT_EQ(bs.hops[static_cast<std::size_t>(t)],
                ref[static_cast<std::size_t>(t)])
          << "rows [" << row0 << ", " << row1 << ") hop " << t + 1;
    }
    if (row1 > row0) {
      EXPECT_EQ(bs.total_external(), n - (row1 - row0));
      EXPECT_TRUE(bs.hops.back().empty());
    }
  }
}

TEST(Plan, MatchesReferenceBuilderBitwise) {
  // The banded, random unsymmetric and scrambled-circuit (g3 analog)
  // patterns, each on one device, a k-way split over 16, the natural split
  // over 12 and a split with an empty device; some device reaches its
  // dependency closure before its last hop (checked at the end).
  sparse::CooBuilder band(300, 300);
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    for (int j = std::max(0, i - 3); j <= std::min(299, i + 3); ++j) {
      band.add(i, j, i == j ? 8.0 : rng.normal());
    }
  }
  const std::vector<std::pair<std::string, CsrMatrix>> mats = {
      {"banded", band.build()},
      {"random", random_pattern(500, 4, 11)},
      {"circuit", sparse::make_circuit_like(0.1, true, 29)}};
  bool closure_before_s = false;
  for (const auto& [name, a] : mats) {
    const int n = a.n_rows;
    const graph::Partition kway =
        graph::make_partition(a, 16, graph::Ordering::kKway, 7);
    const CsrMatrix a_kway = sparse::permute_symmetric(a, kway.perm);
    const std::vector<std::tuple<std::string, const CsrMatrix*,
                                 std::vector<int>>>
        splits = {{"one device", &a, {0, n}},
                  {"kway 16", &a_kway, kway.offsets},
                  {"natural 12", &a, offsets_of(a, 12)},
                  {"empty device", &a, {0, n / 3, n / 3, n}}};
    for (const auto& [split, m, off] : splits) {
      for (const int s : {1, 2, 5, 15}) {
        const std::string what =
            name + " " + split + " s=" + std::to_string(s);
        const MpkPlan got = build_mpk_plan(*m, off, s);
        expect_same_plan(got, reference_build_mpk_plan(*m, off, s), what);
        for (const MpkDevicePlan& dp : got.dev) {
          closure_before_s |= s >= 2 && !dp.ext_global.empty() &&
                              dp.boundary_rows_at_step[0] ==
                                  static_cast<int>(dp.ext_global.size());
        }
      }
    }
  }
  EXPECT_TRUE(closure_before_s);
}

TEST(Boundary, BandedMatrixGrowsLinearly) {
  // On a 1D path, each hop adds at most 2 vertices (one per side).
  sparse::CooBuilder b(50, 50);
  for (int i = 0; i < 50; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i < 49) b.add(i, i + 1, -1.0);
  }
  const CsrMatrix a = b.build();
  const BoundarySets bs = compute_boundary_sets(a, 20, 30, 5);
  for (int t = 0; t < 5; ++t) {
    EXPECT_EQ(bs.hops[static_cast<std::size_t>(t)].size(), 2u);
  }
  EXPECT_EQ(bs.total_external(), 10);
}

TEST(Boundary, StopsAtDependencyClosure) {
  // Whole matrix owned: no external hops at all.
  const CsrMatrix a = sparse::make_laplace2d(5, 5);
  const BoundarySets bs = compute_boundary_sets(a, 0, 25, 3);
  EXPECT_EQ(bs.total_external(), 0);
}

TEST(Plan, StatsAreConsistent) {
  const CsrMatrix a = sparse::make_laplace2d(30, 30);
  const auto off = offsets_of(a, 3);
  for (const int s : {1, 2, 4}) {
    const MpkPlan plan = build_mpk_plan(a, off, s);
    const MpkStats& st = plan.stats;
    // Local blocks tile the matrix.
    std::int64_t local = 0;
    for (int d = 0; d < 3; ++d) local += st.local_nnz[static_cast<std::size_t>(d)];
    EXPECT_EQ(local, a.nnz());
    // Gather == scatter volume summed over devices only when every sent
    // element has exactly one consumer; in general gather <= scatter.
    EXPECT_LE(st.gather_volume(), st.scatter_volume());
    if (s == 1) {
      // No boundary rows are ever multiplied for s=1.
      for (int d = 0; d < 3; ++d) {
        EXPECT_EQ(st.boundary_nnz[static_cast<std::size_t>(d)], 0);
        EXPECT_EQ(st.extra_flops[static_cast<std::size_t>(d)], 0.0);
      }
    } else {
      EXPECT_GT(st.boundary_nnz[0], 0);
      EXPECT_GT(st.extra_flops[0], 0.0);
    }
  }
}

TEST(Plan, SurfaceGrowsWithS) {
  const CsrMatrix a = sparse::make_laplace2d(40, 40);
  const auto off = offsets_of(a, 2);
  double prev_ratio = -1.0;
  for (const int s : {2, 3, 5, 8}) {
    const MpkPlan plan = build_mpk_plan(a, off, s);
    const double ratio = plan.stats.surface_to_volume(0);
    EXPECT_GT(ratio, prev_ratio);
    prev_ratio = ratio;
  }
}

TEST(Plan, SingleDeviceHasNoCommunication) {
  const CsrMatrix a = sparse::make_laplace2d(12, 12);
  const MpkPlan plan = build_mpk_plan(a, {0, a.n_rows}, 4);
  EXPECT_EQ(plan.stats.total_volume(), 0);
  EXPECT_EQ(plan.dev[0].ext_global.size(), 0u);
  EXPECT_EQ(plan.dev[0].boundary.n_rows, 0);
}

TEST(Plan, RejectsBadArguments) {
  const CsrMatrix a = sparse::make_laplace2d(4, 4);
  EXPECT_THROW(build_mpk_plan(a, {0, 8}, 2), Error);      // offsets wrong end
  EXPECT_THROW(build_mpk_plan(a, {0, 16}, 0), Error);     // s < 1
  EXPECT_THROW(build_mpk_plan(a, {0, 10, 8, 16}, 2), Error);  // decreasing
}

class MpkExecTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MpkExecTest, MonomialPowersMatchRepeatedSpmv) {
  const auto [ng, s] = GetParam();
  const CsrMatrix a = sparse::make_circuit_like(0.05, true, 29);
  const int n = a.n_rows;
  const auto off = offsets_of(a, ng);
  const MpkPlan plan = build_mpk_plan(a, off, s);
  MpkExecutor exec(plan);
  Machine m(ng);

  DistMultiVec v(plan.rows_per_device(), s + 1);
  Rng rng(7);
  std::vector<double> x0(static_cast<std::size_t>(n));
  for (auto& x : x0) x = rng.normal();
  {
    std::size_t offv = 0;
    for (int d = 0; d < ng; ++d) {
      for (int i = 0; i < v.local_rows(d); ++i) {
        v.col(d, 0)[i] = x0[offv + static_cast<std::size_t>(i)];
      }
      offv += static_cast<std::size_t>(v.local_rows(d));
    }
  }
  exec.apply(m, v, 0, s);
  m.sync();  // the host reads the basis columns below

  // Reference: k plain SpMVs on the host.
  std::vector<double> ref = x0, tmp(static_cast<std::size_t>(n));
  for (int k = 1; k <= s; ++k) {
    sparse::spmv(a, ref.data(), tmp.data());
    ref.swap(tmp);
    std::size_t offv = 0;
    for (int d = 0; d < ng; ++d) {
      for (int i = 0; i < v.local_rows(d); ++i) {
        EXPECT_NEAR(v.col(d, k)[i], ref[offv + static_cast<std::size_t>(i)],
                    test::codec_near(1e-9 * std::pow(10.0, k),
                                     ref[offv + static_cast<std::size_t>(i)],
                                     std::pow(10.0, k)))
            << "k=" << k << " d=" << d << " i=" << i;
      }
      offv += static_cast<std::size_t>(v.local_rows(d));
    }
  }
  // Exactly one exchange: one gather + one scatter message per device that
  // has neighbors.
  if (ng > 1) {
    EXPECT_LE(m.counters().d2h_msgs, ng);
    EXPECT_LE(m.counters().h2d_msgs, ng);
    EXPECT_GE(m.counters().d2h_msgs, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, MpkExecTest,
                         ::testing::Values(std::make_tuple(1, 4),
                                           std::make_tuple(2, 3),
                                           std::make_tuple(3, 5),
                                           std::make_tuple(3, 1)),
                         [](const auto& info) {
                           return "ng" + std::to_string(std::get<0>(info.param)) +
                                  "_s" + std::to_string(std::get<1>(info.param));
                         });

TEST(MpkExec, NewtonRealShiftsMatchExplicitRecursion) {
  const CsrMatrix a = sparse::make_laplace2d(15, 14, 0.2);
  const int n = a.n_rows;
  const int ng = 2, s = 3;
  const auto off = offsets_of(a, ng);
  const MpkPlan plan = build_mpk_plan(a, off, s);
  MpkExecutor exec(plan);
  Machine m(ng);

  const double re[3] = {1.5, -0.7, 0.3};
  const double im[3] = {0.0, 0.0, 0.0};
  DistMultiVec v(plan.rows_per_device(), s + 1);
  Rng rng(8);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& e : x) e = rng.normal();
  std::size_t offv = 0;
  for (int d = 0; d < ng; ++d) {
    for (int i = 0; i < v.local_rows(d); ++i) v.col(d, 0)[i] = x[offv + static_cast<std::size_t>(i)];
    offv += static_cast<std::size_t>(v.local_rows(d));
  }
  exec.apply(m, v, 0, s, {re, im});
  m.sync();  // the host reads the basis columns below

  std::vector<double> cur = x, tmp(static_cast<std::size_t>(n));
  for (int k = 0; k < s; ++k) {
    sparse::spmv(a, cur.data(), tmp.data());
    for (int i = 0; i < n; ++i) tmp[static_cast<std::size_t>(i)] -= re[k] * cur[static_cast<std::size_t>(i)];
    cur = tmp;
    offv = 0;
    for (int d = 0; d < ng; ++d) {
      for (int i = 0; i < v.local_rows(d); ++i) {
        EXPECT_NEAR(v.col(d, k + 1)[i], cur[offv + static_cast<std::size_t>(i)],
                    test::codec_near(1e-10,
                                     cur[offv + static_cast<std::size_t>(i)],
                                     std::pow(10.0, k + 1)));
      }
      offv += static_cast<std::size_t>(v.local_rows(d));
    }
  }
}

TEST(MpkExec, ComplexPairMatchesExplicitRealArithmetic) {
  const CsrMatrix a = sparse::make_laplace2d(12, 12, 0.4);
  const int n = a.n_rows;
  const int ng = 3, s = 4;
  const auto off = offsets_of(a, ng);
  const MpkPlan plan = build_mpk_plan(a, off, s);
  MpkExecutor exec(plan);
  Machine m(ng);

  // Real, then a conjugate pair (alpha +- beta i), then real.
  const double re[4] = {0.5, 1.0, 1.0, -0.2};
  const double im[4] = {0.0, 0.8, -0.8, 0.0};
  DistMultiVec v(plan.rows_per_device(), s + 1);
  Rng rng(9);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& e : x) e = rng.normal();
  std::size_t offv = 0;
  for (int d = 0; d < ng; ++d) {
    for (int i = 0; i < v.local_rows(d); ++i) v.col(d, 0)[i] = x[offv + static_cast<std::size_t>(i)];
    offv += static_cast<std::size_t>(v.local_rows(d));
  }
  exec.apply(m, v, 0, s, {re, im});
  m.sync();  // the host reads the basis columns below

  // Reference recursion: v1 = (A-0.5)v0; v2 = (A-1)v1; v3 = (A-1)v2 +
  // 0.64*v1; v4 = (A+0.2)v3.
  std::vector<std::vector<double>> ref(static_cast<std::size_t>(s) + 1,
                                       std::vector<double>(static_cast<std::size_t>(n)));
  ref[0] = x;
  for (int k = 0; k < s; ++k) {
    sparse::spmv(a, ref[static_cast<std::size_t>(k)].data(),
                 ref[static_cast<std::size_t>(k) + 1].data());
    for (int i = 0; i < n; ++i) {
      ref[static_cast<std::size_t>(k) + 1][static_cast<std::size_t>(i)] -=
          re[k] * ref[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)];
      if (im[k] < 0.0) {
        ref[static_cast<std::size_t>(k) + 1][static_cast<std::size_t>(i)] +=
            im[k - 1] * im[k - 1] *
            ref[static_cast<std::size_t>(k) - 1][static_cast<std::size_t>(i)];
      }
    }
  }
  offv = 0;
  for (int d = 0; d < ng; ++d) {
    for (int k = 1; k <= s; ++k) {
      for (int i = 0; i < v.local_rows(d); ++i) {
        EXPECT_NEAR(v.col(d, k)[i],
                    ref[static_cast<std::size_t>(k)][offv + static_cast<std::size_t>(i)],
                    test::codec_near(
                        1e-9,
                        ref[static_cast<std::size_t>(k)][offv + static_cast<std::size_t>(i)],
                        std::pow(10.0, k)));
      }
    }
    offv += static_cast<std::size_t>(v.local_rows(d));
  }
}

TEST(MpkExec, PairStraddlingCallBoundaryThrows) {
  const CsrMatrix a = sparse::make_laplace2d(8, 8);
  const MpkPlan plan = build_mpk_plan(a, {0, a.n_rows}, 2);
  MpkExecutor exec(plan);
  Machine m(1);
  DistMultiVec v(plan.rows_per_device(), 3);
  v.col(0, 0)[0] = 1.0;
  const double re[2] = {1.0, 1.0};
  const double im[2] = {0.0, -0.8};  // second member with no first member
  EXPECT_THROW(exec.apply(m, v, 0, 2, {re, im}), Error);
}

TEST(MpkExec, DistributedSpmvMatchesHost) {
  const CsrMatrix a = sparse::make_cant_like(0.15);
  const int n = a.n_rows;
  const int ng = 3;
  const auto off = offsets_of(a, ng);
  const MpkPlan plan = build_mpk_plan(a, off, 1);
  MpkExecutor exec(plan);
  Machine m(ng);

  DistMultiVec v(plan.rows_per_device(), 2);
  Rng rng(10);
  std::vector<double> x(static_cast<std::size_t>(n)), y(static_cast<std::size_t>(n));
  for (auto& e : x) e = rng.normal();
  std::size_t offv = 0;
  for (int d = 0; d < ng; ++d) {
    for (int i = 0; i < v.local_rows(d); ++i) v.col(d, 0)[i] = x[offv + static_cast<std::size_t>(i)];
    offv += static_cast<std::size_t>(v.local_rows(d));
  }
  exec.spmv(m, v, 0, 1);
  m.sync();  // the host reads the product column below
  sparse::spmv(a, x.data(), y.data());
  offv = 0;
  for (int d = 0; d < ng; ++d) {
    for (int i = 0; i < v.local_rows(d); ++i) {
      EXPECT_NEAR(v.col(d, 1)[i], y[offv + static_cast<std::size_t>(i)],
                  test::codec_near(1e-10, y[offv + static_cast<std::size_t>(i)]));
    }
    offv += static_cast<std::size_t>(v.local_rows(d));
  }
}

TEST(MpkExec, SpmvRequiresS1Plan) {
  const CsrMatrix a = sparse::make_laplace2d(6, 6);
  const MpkPlan plan = build_mpk_plan(a, {0, 18, 36}, 2);
  MpkExecutor exec(plan);
  Machine m(2);
  DistMultiVec v(plan.rows_per_device(), 2);
  EXPECT_THROW(exec.spmv(m, v, 0, 1), Error);
}

TEST(Plan, GatherVolumeEqualsBruteForceUnion) {
  // gather_volume must equal the number of distinct owned elements any
  // other device needs — computed here by brute force from the hop sets.
  const CsrMatrix a = sparse::make_circuit_like(0.04, true, 31);
  const auto off = offsets_of(a, 3);
  const int s = 3;
  const MpkPlan plan = build_mpk_plan(a, off, s);

  std::vector<char> needed(static_cast<std::size_t>(a.n_rows), 0);
  for (int d = 0; d < 3; ++d) {
    const BoundarySets bs = compute_boundary_sets(
        a, off[static_cast<std::size_t>(d)], off[static_cast<std::size_t>(d) + 1], s);
    for (const auto& hop : bs.hops) {
      for (const int g : hop) needed[static_cast<std::size_t>(g)] = 1;
    }
  }
  std::int64_t union_count = 0;
  for (const char c : needed) union_count += c;
  EXPECT_EQ(plan.stats.gather_volume(), union_count);
}

TEST(Plan, DeterministicForFixedInputs) {
  const CsrMatrix a = sparse::make_cant_like(0.1);
  const auto off = offsets_of(a, 2);
  const MpkPlan p1 = build_mpk_plan(a, off, 4);
  const MpkPlan p2 = build_mpk_plan(a, off, 4);
  for (int d = 0; d < 2; ++d) {
    EXPECT_EQ(p1.dev[static_cast<std::size_t>(d)].ext_global,
              p2.dev[static_cast<std::size_t>(d)].ext_global);
    EXPECT_EQ(p1.dev[static_cast<std::size_t>(d)].send_local_rows,
              p2.dev[static_cast<std::size_t>(d)].send_local_rows);
    EXPECT_EQ(p1.dev[static_cast<std::size_t>(d)].boundary_rows_at_step,
              p2.dev[static_cast<std::size_t>(d)].boundary_rows_at_step);
  }
}

TEST(MpkExec, LatencySavingsVsRepeatedSpmv) {
  // The point of MPK (Fig. 8): one exchange instead of s exchanges. With a
  // banded matrix the extra flops are small, so simulated MPK time beats
  // s x distributed SpMV.
  const CsrMatrix a = sparse::make_cant_like(0.3);
  const int ng = 3, s = 8;
  const auto off = offsets_of(a, ng);
  const MpkPlan plan_s = build_mpk_plan(a, off, s);
  const MpkPlan plan_1 = build_mpk_plan(a, off, 1);
  MpkExecutor mpk(plan_s);
  MpkExecutor spmv(plan_1);

  // One basis per machine: each machine's worker streams write their own.
  DistMultiVec v(plan_s.rows_per_device(), s + 1);
  for (int d = 0; d < ng; ++d) {
    for (int i = 0; i < v.local_rows(d); ++i) v.col(d, 0)[i] = 1.0;
  }
  DistMultiVec w = v;
  Machine m_mpk(ng), m_spmv(ng);
  mpk.apply(m_mpk, v, 0, s);
  for (int k = 0; k < s; ++k) spmv.spmv(m_spmv, w, k, k + 1);
  EXPECT_LT(m_mpk.clock().elapsed(), m_spmv.clock().elapsed());
  // And it used far fewer messages.
  EXPECT_LT(m_mpk.counters().total_msgs(), m_spmv.counters().total_msgs());
}

// The executor caches its node split (bytes each sender ships to same-node
// and off-node readers, and each consumer's same-node share) per topology.
// One executor reused across flat, 2x2 and 4x1 machines must charge every
// exchange exactly as a fresh executor does on each.
TEST(MpkExec, NodeSplitFollowsTheTopology) {
  const CsrMatrix a = sparse::make_cant_like(0.1);
  const int ng = 4, s = 3;
  const MpkPlan plan = build_mpk_plan(a, offsets_of(a, ng), s);
  MpkExecutor reused(plan);
  for (const auto& [nodes, gpn] : {std::pair{1, 4}, {2, 2}, {4, 1}, {2, 2}}) {
    MpkExecutor fresh(plan);
    DistMultiVec v(plan.rows_per_device(), s + 1);
    for (int d = 0; d < ng; ++d) {
      for (int i = 0; i < v.local_rows(d); ++i) v.col(d, 0)[i] = 1.0 + i;
    }
    DistMultiVec w = v;
    Machine m_reused(ng), m_fresh(ng);
    m_reused.set_topology(nodes, gpn);
    m_fresh.set_topology(nodes, gpn);
    reused.apply(m_reused, v, 0, s);
    fresh.apply(m_fresh, w, 0, s);
    m_reused.sync();
    m_fresh.sync();
    const sim::Counters& cr = m_reused.counters();
    const sim::Counters& cf = m_fresh.counters();
    EXPECT_EQ(m_reused.clock().elapsed(), m_fresh.clock().elapsed())
        << nodes << "x" << gpn;
    EXPECT_EQ(cr.peer_bytes, cf.peer_bytes) << nodes << "x" << gpn;
    EXPECT_EQ(cr.h2d_bytes, cf.h2d_bytes) << nodes << "x" << gpn;
    EXPECT_EQ(cr.d2h_bytes, cf.d2h_bytes) << nodes << "x" << gpn;
    EXPECT_EQ(cr.net_bytes, cf.net_bytes) << nodes << "x" << gpn;
    if (nodes > 1) {
      EXPECT_GT(cr.net_bytes, 0.0) << nodes << "x" << gpn;
    }
    if (nodes > 1 && gpn > 1) {
      EXPECT_GT(cr.peer_bytes, 0.0) << nodes << "x" << gpn;
    }
  }
}

TEST(MpkCodec, HaloWireBytesMatchTheCodecSize) {
  // With halo=fp32 armed, every gather/scatter message must be priced at
  // exactly sim::wire_bytes of its payload while the logical counters
  // keep the uncompressed size — the achieved ratio is wire-accurate, not
  // an estimate.
  const CsrMatrix a = sparse::make_laplace2d(12, 10, 0.2);
  const int s = 3;
  const MpkPlan plan = build_mpk_plan(a, offsets_of(a, 2), s);
  MpkExecutor exec(plan);
  Machine m(2);
  m.set_halo_codec(sim::Codec::kFp32);

  DistMultiVec v(plan.rows_per_device(), s + 1);
  Rng rng(17);
  for (int d = 0; d < 2; ++d) {
    for (int i = 0; i < v.local_rows(d); ++i) v.col(d, 0)[i] = rng.normal();
  }
  exec.apply(m, v, 0, s);
  m.sync();

  // The MPK ships the deep halo once per block: one pack (d2h) per sending
  // device and one expand (h2d) per receiving device.
  double exp_d2h = 0.0, exp_d2h_logical = 0.0;
  double exp_h2d = 0.0, exp_h2d_logical = 0.0;
  for (int d = 0; d < 2; ++d) {
    const MpkDevicePlan& dp = plan.dev[static_cast<std::size_t>(d)];
    const double send = static_cast<double>(dp.send_local_rows.size());
    if (send > 0.0) {
      exp_d2h += sim::wire_bytes(sim::Codec::kFp32, send);
      exp_d2h_logical += 8.0 * send;
    }
    const double next = static_cast<double>(dp.ext_global.size());
    if (next > 0.0) {
      exp_h2d += sim::wire_bytes(sim::Codec::kFp32, next);
      exp_h2d_logical += 8.0 * next;
    }
  }
  ASSERT_GT(exp_d2h, 0.0);
  const sim::Counters& c = m.counters();
  EXPECT_DOUBLE_EQ(c.d2h_bytes, exp_d2h);
  EXPECT_DOUBLE_EQ(c.h2d_bytes, exp_h2d);
  EXPECT_DOUBLE_EQ(c.d2h_logical_bytes, exp_d2h_logical);
  EXPECT_DOUBLE_EQ(c.h2d_logical_bytes, exp_h2d_logical);
  // fp32 halves the wire exactly.
  EXPECT_DOUBLE_EQ(c.d2h_logical_bytes, 2.0 * c.d2h_bytes);
  EXPECT_DOUBLE_EQ(c.h2d_logical_bytes, 2.0 * c.h2d_bytes);
  // One codec pass per communicating endpoint.
  EXPECT_EQ(c.kernel_count[static_cast<std::size_t>(sim::Kernel::kCodec)], 4);
}

// --- Shared ghost-zone evaluation vs the per-device reference -----------
//
// apply() computes each ghost-zone row once on the host when that is exact
// (DESIGN.md §16); detail::apply_per_device is the evaluation the paper's
// devices run. They must agree bit for bit — values, NaN poison and charged
// seconds — on every basis, device count and depth, faulted or not.

/// Bitwise (NaN-aware) equality of every column of two multivectors.
bool same_bits(const DistMultiVec& x, const DistMultiVec& y) {
  if (x.n_parts() != y.n_parts() || x.cols() != y.cols()) return false;
  for (int d = 0; d < x.n_parts(); ++d) {
    for (int j = 0; j < x.cols(); ++j) {
      const std::size_t bytes =
          static_cast<std::size_t>(x.local_rows(d)) * sizeof(double);
      if (std::memcmp(x.col(d, j), y.col(d, j), bytes) != 0) return false;
    }
  }
  return true;
}

bool any_nan(const DistMultiVec& x) {
  for (int d = 0; d < x.n_parts(); ++d) {
    for (int j = 0; j < x.cols(); ++j) {
      for (int i = 0; i < x.local_rows(d); ++i) {
        if (std::isnan(x.col(d, j)[i])) return true;
      }
    }
  }
  return false;
}

enum class Basis { kMonomial, kNewton, kComplexPairs };

std::string basis_name(Basis b) {
  switch (b) {
    case Basis::kMonomial: return "monomial";
    case Basis::kNewton: return "newton";
    case Basis::kComplexPairs: return "pairs";
  }
  return "";
}

/// Shift arrays for `steps` steps of one basis: real Newton shifts, or
/// conjugate pairs (im > 0 then im < 0) with a real shift in the odd slot.
struct Shifts {
  std::vector<double> re, im;
  Basis basis = Basis::kMonomial;

  Shifts(Basis b, int steps) : basis(b) {
    for (int k = 0; k < steps; ++k) {
      re.push_back(0.3 + 0.25 * k);
      double v = 0.0;
      if (b == Basis::kComplexPairs && k + 1 < steps && k % 2 == 0) v = 0.6;
      if (b == Basis::kComplexPairs && k % 2 == 1) v = -0.6;
      im.push_back(v);
    }
  }
  ShiftSeq seq() const {
    if (basis == Basis::kMonomial) return {};
    return {re.data(), im.data()};
  }
};

DistMultiVec random_start(const MpkPlan& plan, int cols, std::uint64_t seed) {
  DistMultiVec v(plan.rows_per_device(), cols);
  Rng rng(seed);
  for (int d = 0; d < plan.n_devices(); ++d) {
    for (int i = 0; i < v.local_rows(d); ++i) v.col(d, 0)[i] = rng.normal();
  }
  return v;
}

class MpkSharedTest
    : public ::testing::TestWithParam<std::tuple<int, int, Basis>> {};

TEST_P(MpkSharedTest, ApplyMatchesPerDeviceReferenceBitwise) {
  const auto [ng, s, basis] = GetParam();
  const CsrMatrix a = sparse::make_circuit_like(0.1, true, 29);
  const MpkPlan plan = build_mpk_plan(a, offsets_of(a, ng), s);
  const Shifts sh(basis, s);
  MpkExecutor shared(plan), reference(plan);
  Machine m_shared(ng), m_ref(ng);
  DistMultiVec v_shared = random_start(plan, s + 1, 41);
  DistMultiVec v_ref = random_start(plan, s + 1, 41);
  // Two applies per executor, so the second runs on z-buffers the first
  // left behind (stale ghost slots included).
  for (int rep = 0; rep < 2; ++rep) {
    shared.apply(m_shared, v_shared, 0, s, sh.seq());
    detail::apply_per_device(reference, m_ref, v_ref, 0, s, sh.seq());
  }
  m_shared.sync();
  m_ref.sync();
  EXPECT_TRUE(same_bits(v_shared, v_ref));
  EXPECT_FALSE(any_nan(v_shared));
  EXPECT_EQ(m_shared.clock().elapsed(), m_ref.clock().elapsed());
  EXPECT_EQ(m_shared.counters().total_dev_flops(),
            m_ref.counters().total_dev_flops());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MpkSharedTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 16),
                       ::testing::Values(1, 3, 5, 15),
                       ::testing::Values(Basis::kMonomial, Basis::kNewton,
                                         Basis::kComplexPairs)),
    [](const auto& info) {
      return "ng" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param)) + "_" +
             basis_name(std::get<2>(info.param));
    });

TEST(MpkShared, DeepZoneSpansTheMatrix) {
  // The grid above is only a test of redundant work if the zones are deep:
  // on the scrambled circuit analog a 16-way, 15-hop plan gives each device
  // a ghost zone covering most of the rows it does not own.
  const CsrMatrix a = sparse::make_circuit_like(0.1, true, 29);
  const MpkPlan plan = build_mpk_plan(a, offsets_of(a, 16), 15);
  for (const MpkDevicePlan& dp : plan.dev) {
    EXPECT_GT(static_cast<double>(dp.ext_global.size()),
              0.8 * (a.n_rows - dp.owned));
  }
}

TEST(MpkShared, NonFiniteStartFallsBackBitwise) {
  // ELL padding adds 0 * x[i], with x[i] the row's own entry: exact for a
  // finite x[i], NaN for an infinite one, where a ghost copy's boundary CSR
  // row stays infinite. Positive tridiagonal, except that device 1's first
  // row r = 6 drops its right neighbour and so carries one padding slot.
  // With x[r] = Inf the owner gets NaN for row r and device 0's ghost copy
  // +Inf, so device 0's full-width row 5 differs at step 2 (NaN vs +Inf)
  // unless the shared path notices and hands the apply to the per-device
  // evaluation.
  const int n = 12, ng = 2, s = 2;
  sparse::CooBuilder coo(n, n);
  for (int i = 0; i < n; ++i) {
    coo.add(i, i, 2.0);
    if (i > 0) coo.add(i, i - 1, 1.0);
    if (i + 1 < n && i != 6) coo.add(i, i + 1, 1.0);
  }
  const CsrMatrix a = coo.build();
  const MpkPlan plan = build_mpk_plan(a, {0, 6, n}, s);
  MpkExecutor shared(plan), reference(plan);
  Machine m_shared(ng), m_ref(ng);
  DistMultiVec v_shared = random_start(plan, s + 1, 47);
  DistMultiVec v_ref = random_start(plan, s + 1, 47);
  v_shared.col(1, 0)[0] = std::numeric_limits<double>::infinity();
  v_ref.col(1, 0)[0] = std::numeric_limits<double>::infinity();
  shared.apply(m_shared, v_shared, 0, s);
  detail::apply_per_device(reference, m_ref, v_ref, 0, s, {});
  m_shared.sync();
  m_ref.sync();
  EXPECT_TRUE(std::isinf(v_ref.col(0, 2)[5]));
  EXPECT_TRUE(same_bits(v_shared, v_ref));
}

/// apply() vs the per-device reference on two `ng`-device machines armed
/// with the same fault schedule; `before` runs on each ahead of the apply.
void expect_faulted_match(int ng, const std::string& spec,
                          const std::function<void(Machine&)>& before) {
  const CsrMatrix a = sparse::make_circuit_like(0.1, true, 29);
  const int s = 5;
  const MpkPlan plan = build_mpk_plan(a, offsets_of(a, ng), s);
  const Shifts sh(Basis::kComplexPairs, s);
  MpkExecutor shared(plan), reference(plan);
  Machine m_shared(ng), m_ref(ng);
  sim::parse_fault_spec(spec, m_shared.fault_injector());
  sim::parse_fault_spec(spec, m_ref.fault_injector());
  DistMultiVec v_shared = random_start(plan, s + 1, 43);
  DistMultiVec v_ref = random_start(plan, s + 1, 43);
  before(m_shared);
  before(m_ref);
  shared.apply(m_shared, v_shared, 0, s, sh.seq());
  detail::apply_per_device(reference, m_ref, v_ref, 0, s, sh.seq());
  m_shared.sync();
  m_ref.sync();
  EXPECT_TRUE(any_nan(v_ref)) << "the injected poison never landed";
  EXPECT_TRUE(same_bits(v_shared, v_ref));
  EXPECT_EQ(m_shared.clock().elapsed(), m_ref.clock().elapsed());
}

TEST(MpkShared, KernelNanMidApplyFallsBackBitwise) {
  // Device 1's eighth op is a fused step kernel (on the flat topology the
  // exchange takes five ops, so it is step 3's): the poison is recorded by
  // the charge loop and must reach the per-device replay.
  expect_faulted_match(3, "seed=1;nan:d1@op=8", [](Machine&) {});
}

TEST(MpkShared, PendingLatchFallsBackBitwise) {
  // A charge that does not consume its latch (as charge_codec and the ILU
  // numeric builds do) leaves the device poisoned on entry. With nothing to
  // pack, the exchange's copy consumes it and poisons the starting
  // z-buffer. The shared path must see that consume, not only the step
  // loop's own hits.
  expect_faulted_match(1, "seed=1;nan:d0@op=1", [](Machine& m) {
    m.charge_device(0, sim::Kernel::kAxpy, 0.0, 8.0);
  });
}

// --- One fused kernel per (step, device) ---------------------------------

/// Charged seconds of one fused MPK step, written out from DESIGN.md §18
/// independently of sim::charge_mpk_step: the local ELL SpMV's flops and
/// bytes, the boundary prefix's (1.8x its bytes inside the ELL-classed
/// kernel), the shift epilogue's 2 flops and 8 B per computed row per term,
/// and 8 B per owned row for the store.
double fused_step_seconds(const sim::PerfModel& pm, const MpkDevicePlan& dp,
                          int k, int terms) {
  const int owned = dp.owned;
  const int brows = dp.boundary_rows_at_step[static_cast<std::size_t>(k) - 1];
  const double bnnz =
      brows > 0 ? static_cast<double>(
                      dp.boundary.row_ptr[static_cast<std::size_t>(brows)])
                : 0.0;
  const double slots = static_cast<double>(dp.local_ell.stored_slots());
  const double rows = static_cast<double>(owned + brows);
  const double flops = 2.0 * slots + 2.0 * bnnz + 2.0 * terms * rows;
  const double bytes = 20.0 * slots + 8.0 * owned +
                       1.8 * (20.0 * bnnz + 12.0 * brows) +
                       8.0 * terms * rows + 8.0 * owned;
  return pm.device_seconds(sim::Kernel::kSpmvEll, flops, bytes);
}

/// 1-based op-counter index (FaultEvent::at_op) of the `nth` kernel named
/// `name` on physical device `dev` in a traced run; markers carry a ':'
/// and are not ops. -1 when there is none.
std::int64_t op_index_of(const sim::Trace& trace, int dev,
                         const std::string& name, int nth) {
  std::int64_t op = 0;
  for (const sim::TraceEvent& e : trace.events()) {
    if (e.device != dev || e.name.find(':') != std::string::npos) continue;
    ++op;
    if (e.name == name && --nth == 0) return op;
  }
  return -1;
}

class MpkFusedTest : public ::testing::TestWithParam<Basis> {};

TEST_P(MpkFusedTest, OneKernelPerStepPerDevice) {
  const Basis basis = GetParam();
  const CsrMatrix a = sparse::make_circuit_like(0.1, true, 29);
  const int ng = 3, s = 5;
  const MpkPlan plan = build_mpk_plan(a, offsets_of(a, ng), s);
  const Shifts sh(basis, s);
  MpkExecutor exec(plan);
  Machine m(ng);
  m.enable_trace();
  DistMultiVec v = random_start(plan, s + 1, 53);
  exec.apply(m, v, 0, s, sh.seq());
  m.sync();

  const std::string step_kernel = "spmv_ell";
  for (int d = 0; d < ng; ++d) {
    const MpkDevicePlan& dp = plan.dev[static_cast<std::size_t>(d)];
    // The exchange launches a pack for the senders' rows, the owned-row
    // copy into z, the expand of the received ghosts and, when a halo
    // codec is armed (CAGMRES_COMPRESS), its (de)compression passes; every
    // other kernel on the device is one fused step.
    int codec_passes = 0;
    for (const sim::TraceEvent& e : m.trace().events()) {
      if (e.device == d && e.name == "codec") ++codec_passes;
    }
    const int exchange_kernels = (dp.send_local_rows.empty() ? 0 : 1) + 1 +
                                 (dp.ext_global.empty() ? 0 : 1) +
                                 codec_passes;
    EXPECT_EQ(m.counters().dev_kernels[static_cast<std::size_t>(d)],
              exchange_kernels + s)
        << "device " << d;
    std::vector<double> step_seconds;
    for (const sim::TraceEvent& e : m.trace().events()) {
      if (e.device == d && e.name == step_kernel) {
        EXPECT_EQ(e.phase, "mpk");
        step_seconds.push_back(e.t_end - e.t_start);
      }
    }
    ASSERT_EQ(static_cast<int>(step_seconds.size()), s) << "device " << d;
    for (int k = 1; k <= s; ++k) {
      int terms = 0;
      if (basis != Basis::kMonomial) {
        terms = sh.im[static_cast<std::size_t>(k) - 1] < 0.0 ? 2 : 1;
      }
      const double want = fused_step_seconds(m.perf(), dp, k, terms);
      EXPECT_NEAR(step_seconds[static_cast<std::size_t>(k) - 1], want,
                  1e-12 * want)
          << "device " << d << " step " << k;
    }
  }
}

TEST_P(MpkFusedTest, NanOnOneStepPoisonsTheRestOfTheBlock) {
  // One latch per (step, device): a NaN scheduled on device d's step-k
  // kernel poisons v(:, k..s) on d and nothing before it, and apply()
  // still matches the per-device reference bit for bit, unarmed or not.
  const Basis basis = GetParam();
  const CsrMatrix a = sparse::make_circuit_like(0.1, true, 29);
  const int ng = 3, s = 5;
  const MpkPlan plan = build_mpk_plan(a, offsets_of(a, ng), s);
  const Shifts sh(basis, s);
  const std::string step_kernel = "spmv_ell";

  Machine traced(ng);
  traced.enable_trace();
  {
    MpkExecutor exec(plan);
    DistMultiVec v = random_start(plan, s + 1, 59);
    exec.apply(traced, v, 0, s, sh.seq());
    traced.sync();
  }

  const std::vector<std::pair<int, int>> cases = {{-1, 0}, {0, 1}, {1, 3},
                                                  {2, 5}};
  for (const auto& [dev, k] : cases) {
    std::string spec = "seed=1";
    if (dev >= 0) {
      const std::int64_t op =
          op_index_of(traced.trace(), dev, step_kernel, k);
      ASSERT_GT(op, 0);
      spec = "nan:d" + std::to_string(dev) + "@op=" + std::to_string(op);
    }
    MpkExecutor shared(plan), reference(plan);
    Machine m_shared(ng), m_ref(ng);
    sim::parse_fault_spec(spec, m_shared.fault_injector());
    sim::parse_fault_spec(spec, m_ref.fault_injector());
    DistMultiVec v_shared = random_start(plan, s + 1, 59);
    DistMultiVec v_ref = random_start(plan, s + 1, 59);
    shared.apply(m_shared, v_shared, 0, s, sh.seq());
    detail::apply_per_device(reference, m_ref, v_ref, 0, s, sh.seq());
    m_shared.sync();
    m_ref.sync();
    EXPECT_TRUE(same_bits(v_shared, v_ref)) << spec;
    EXPECT_EQ(m_shared.clock().elapsed(), m_ref.clock().elapsed()) << spec;
    if (dev < 0) {
      EXPECT_FALSE(any_nan(v_shared)) << spec;
      continue;
    }
    EXPECT_EQ(m_shared.kernel_faults_consumed(), 1) << spec;
    for (int j = 1; j <= s; ++j) {
      const double* col = v_shared.col(dev, j);
      for (int i = 0; i < v_shared.local_rows(dev); ++i) {
        if (j < k) {
          ASSERT_TRUE(std::isfinite(col[i])) << spec << " col " << j;
        } else {
          ASSERT_TRUE(std::isnan(col[i])) << spec << " col " << j;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Bases, MpkFusedTest,
    ::testing::Values(Basis::kMonomial, Basis::kComplexPairs),
    [](const auto& info) { return basis_name(info.param); });

// --- Deferred deep-halo gather ------------------------------------------
//
// The exchange fills only each device's hop-1 ghosts, the prefix the shared
// path reads; before the per-device path runs, complete_halo() fills hops
// >= 2 with the same codec round trip and expand poison. The reference
// below knows nothing of z-buffers or of the plan's boundary CSR: per
// device it runs the scalar recursion over the global matrix on the rows
// of hop <= s-k, with the ghosts as the wire delivers them.

/// Device d's owned rows of v(:, 1..s) from the start x0 (global order),
/// each ghost x0 rounded to fp32 when `fp32` and NaN when `poisoned`.
std::vector<std::vector<double>> host_recursion(const CsrMatrix& a,
                                                int row0, int row1, int s,
                                                const std::vector<double>& x0,
                                                const Shifts& sh, bool fp32,
                                                bool poisoned) {
  const auto hops = brute_force_hops(a, row0, row1, s);
  const auto n = static_cast<std::size_t>(a.n_rows);
  std::vector<double> x2(n, 0.0), x1(n, 0.0), y(n, 0.0);
  for (int i = row0; i < row1; ++i) {
    x1[static_cast<std::size_t>(i)] = x0[static_cast<std::size_t>(i)];
  }
  for (const auto& h : hops) {
    for (const int g : h) {
      double v = x0[static_cast<std::size_t>(g)];
      if (fp32) v = static_cast<double>(static_cast<float>(v));
      if (poisoned) v = std::numeric_limits<double>::quiet_NaN();
      x1[static_cast<std::size_t>(g)] = v;
    }
  }
  std::vector<std::vector<double>> out;
  for (int k = 1; k <= s; ++k) {
    const ShiftSeq seq = sh.seq();
    const double theta = seq.re != nullptr ? seq.re[k - 1] : 0.0;
    const bool pair = seq.im != nullptr && seq.im[k - 1] < 0.0;
    const double beta2 = pair ? seq.im[k - 2] * seq.im[k - 2] : 0.0;
    const auto row = [&](int r) {
      double acc = 0.0;
      for (auto p = a.row_ptr[static_cast<std::size_t>(r)];
           p < a.row_ptr[static_cast<std::size_t>(r) + 1]; ++p) {
        acc += a.vals[static_cast<std::size_t>(p)] *
               x1[static_cast<std::size_t>(
                   a.col_idx[static_cast<std::size_t>(p)])];
      }
      if (theta != 0.0 || pair) {
        acc -= theta * x1[static_cast<std::size_t>(r)];
        if (pair) acc += beta2 * x2[static_cast<std::size_t>(r)];
      }
      y[static_cast<std::size_t>(r)] = acc;
    };
    for (int r = row0; r < row1; ++r) row(r);
    for (int t = 1; t <= s - k; ++t) {
      for (const int g : hops[static_cast<std::size_t>(t) - 1]) row(g);
    }
    out.emplace_back(y.begin() + row0, y.begin() + row1);
    std::swap(x2, x1);
    std::swap(x1, y);
  }
  return out;
}

enum class DeepPath { kFp32Halo, kExpandLatch, kPerDevice };

/// The two cases the deferred gather is checked on: the circuit analog
/// with complex-pair shifts, and a path graph with no diagonal under the
/// monomial basis, where a hop-1 ghost row's next value reads only hop-2
/// ghosts and owned rows, so poison missing from hop 2 shows in the owned
/// outputs.
std::vector<std::pair<CsrMatrix, Basis>> deep_halo_cases() {
  const int n = 60;
  sparse::CooBuilder path(n, n);
  Rng rng(67);
  for (int i = 0; i < n; ++i) {
    if (i > 0) path.add(i, i - 1, 0.5 + rng.uniform());
    if (i + 1 < n) path.add(i, i + 1, 0.5 + rng.uniform());
  }
  return {{sparse::make_circuit_like(0.1, true, 29), Basis::kComplexPairs},
          {path.build(), Basis::kMonomial}};
}

/// One apply() (or per-device apply) at 3 devices, s = 5, reaching
/// complete_halo() through `path`; every output column must match
/// host_recursion bit for bit.
void expect_deep_halo_exact(const CsrMatrix& a, Basis basis, DeepPath path) {
  const int ng = 3, s = 5, latched = 1;
  const auto off = offsets_of(a, ng);
  const MpkPlan plan = build_mpk_plan(a, off, s);
  const Shifts sh(basis, s);
  for (int d = 0; d < ng; ++d) {
    ASSERT_FALSE(brute_force_hops(a, off[static_cast<std::size_t>(d)],
                                  off[static_cast<std::size_t>(d) + 1], s)[2]
                     .empty())
        << "device " << d << " has fewer than 3 ghost hops";
  }
  const sim::Codec codec =
      path == DeepPath::kFp32Halo ? sim::Codec::kFp32 : sim::Codec::kNone;

  std::string spec = "seed=1";
  if (path == DeepPath::kExpandLatch) {
    // The expand is the device's second pack when it also sends, else
    // its first.
    Machine traced(ng);
    traced.set_halo_codec(codec);
    traced.enable_trace();
    MpkExecutor exec(plan);
    DistMultiVec v = random_start(plan, s + 1, 61);
    exec.apply(traced, v, 0, s, sh.seq());
    traced.sync();
    const int nth = plan.dev[latched].send_local_rows.empty() ? 1 : 2;
    const std::int64_t op = op_index_of(traced.trace(), latched, "pack", nth);
    ASSERT_GT(op, 0);
    spec = "nan:d" + std::to_string(latched) + "@op=" + std::to_string(op);
  }

  Machine m(ng);
  m.set_halo_codec(codec);
  sim::parse_fault_spec(spec, m.fault_injector());
  MpkExecutor exec(plan);
  DistMultiVec v = random_start(plan, s + 1, 61);
  std::vector<double> x0;
  for (int d = 0; d < ng; ++d) {
    x0.insert(x0.end(), v.col(d, 0), v.col(d, 0) + v.local_rows(d));
  }
  if (path == DeepPath::kPerDevice) {
    detail::apply_per_device(exec, m, v, 0, s, sh.seq());
  } else {
    exec.apply(m, v, 0, s, sh.seq());
  }
  m.sync();
  if (path == DeepPath::kExpandLatch) {
    ASSERT_EQ(m.kernel_faults_consumed(), 1) << spec;
  }

  for (int d = 0; d < ng; ++d) {
    const bool poisoned = path == DeepPath::kExpandLatch && d == latched;
    const auto ref = host_recursion(a, off[static_cast<std::size_t>(d)],
                                    off[static_cast<std::size_t>(d) + 1], s,
                                    x0, sh, codec == sim::Codec::kFp32,
                                    poisoned);
    bool saw_nan = false;
    for (int k = 1; k <= s; ++k) {
      const double* got = v.col(d, k);
      const auto& want = ref[static_cast<std::size_t>(k) - 1];
      for (int i = 0; i < v.local_rows(d); ++i) {
        const double w = want[static_cast<std::size_t>(i)];
        saw_nan |= std::isnan(got[i]);
        if (std::isnan(w)) {
          ASSERT_TRUE(std::isnan(got[i])) << "d=" << d << " k=" << k;
        } else {
          ASSERT_EQ(std::memcmp(&got[i], &w, sizeof(double)), 0)
              << "d=" << d << " k=" << k << " i=" << i << ": " << got[i]
              << " vs " << w;
        }
      }
    }
    EXPECT_EQ(saw_nan, poisoned) << "device " << d;
  }
}

TEST(MpkDeferredGather, Fp32HaloCompletesTheDeepHops) {
  for (const auto& [a, basis] : deep_halo_cases()) {
    expect_deep_halo_exact(a, basis, DeepPath::kFp32Halo);
  }
}

TEST(MpkDeferredGather, ExpandLatchPoisonsTheDeepHops) {
  for (const auto& [a, basis] : deep_halo_cases()) {
    expect_deep_halo_exact(a, basis, DeepPath::kExpandLatch);
  }
}

TEST(MpkDeferredGather, PerDeviceApplyCompletesTheDeepHops) {
  for (const auto& [a, basis] : deep_halo_cases()) {
    expect_deep_halo_exact(a, basis, DeepPath::kPerDevice);
  }
}

}  // namespace
}  // namespace cagmres::mpk
