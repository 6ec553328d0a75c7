#include "ortho/borth.hpp"

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "ortho/reduce.hpp"
#include "sim/device_blas.hpp"

namespace cagmres::ortho {

BorthMethod parse_borth(const std::string& name) {
  if (name == "mgs") return BorthMethod::kMgs;
  if (name == "cgs") return BorthMethod::kCgs;
  throw Error("unknown BOrth method: " + name + " (expected mgs|cgs)");
}

std::string to_string(BorthMethod m) {
  return m == BorthMethod::kMgs ? "mgs" : "cgs";
}

blas::DMat borth(sim::Machine& machine, BorthMethod method,
                 sim::DistMultiVec& v, int c0, int c1) {
  CAGMRES_REQUIRE(0 <= c0 && c0 < c1 && c1 <= v.cols(),
                  "borth: bad column range");
  const int ng = machine.n_devices();
  const int prev = c0;
  const int blk = c1 - c0;
  blas::DMat c(prev, blk);
  if (prev == 0) return c;

  // Sync structure — the dedicated BOrth event chain (DESIGN §10). Each
  // projection gemm/gemv is followed on its own stream by the d2h of its
  // partial Gram block; reduce_to_host_events records one event per device
  // right there, and the host waits on exactly those events (batching the
  // partial sums against the stragglers' transfers when that is charged-
  // cheaper). The subtraction update is then enqueued as a consumer-stream
  // closure behind the coefficient broadcast: the h2d and the update gemm
  // share the device's FIFO stream, so the update is gated on the broadcast
  // without any machine-wide barrier, and the next cycle's MPK — already
  // queued on other streams — keeps running through the whole hand-off.
  if (method == BorthMethod::kCgs) {
    // One projection C = Q_prev^T V_block and one update, a single
    // reduction of prev*blk coefficients.
    std::vector<std::vector<double>> partial(
        static_cast<std::size_t>(ng),
        std::vector<double>(static_cast<std::size_t>(prev) * blk, 0.0));
    for (int d = 0; d < ng; ++d) {
      sim::dev_gemm_tn(machine, d, v.local_rows(d), prev, blk, v.col(d, 0),
                       v.local(d).ld(), v.col(d, c0), v.local(d).ld(),
                       partial[static_cast<std::size_t>(d)].data(), prev);
    }
    detail::reduce_to_host_events(machine, partial, prev * blk, c.data());
    detail::broadcast_charge(machine, prev * blk);
    for (int d = 0; d < ng; ++d) {
      sim::dev_gemm_nn_sub(machine, d, v.local_rows(d), prev, blk,
                           v.col(d, 0), v.local(d).ld(), c.data(), c.ld(),
                           v.col(d, c0), v.local(d).ld());
    }
    return c;
  }

  // MGS flavor: one reduction per previous column (still blocked across the
  // s+1 new columns — "the s+1 vectors are orthogonalized against v_l at
  // once", paper §V-A). Each column's gemv -> reduce -> rank-1 update is
  // one link of the per-column event chain; successive links on a device
  // are ordered by its FIFO stream, so no cross-column barrier is needed.
  std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(ng),
      std::vector<double>(static_cast<std::size_t>(blk), 0.0));
  std::vector<double> row(static_cast<std::size_t>(blk), 0.0);
  for (int l = 0; l < prev; ++l) {
    for (int d = 0; d < ng; ++d) {
      sim::dev_gemv_t(machine, d, v.local_rows(d), blk, v.col(d, c0),
                      v.local(d).ld(), v.col(d, l),
                      partial[static_cast<std::size_t>(d)].data());
    }
    detail::reduce_to_host_events(machine, partial, blk, row.data());
    detail::broadcast_charge(machine, blk);
    for (int j = 0; j < blk; ++j) c(l, j) = row[static_cast<std::size_t>(j)];
    for (int d = 0; d < ng; ++d) {
      sim::dev_ger_sub(machine, d, v.local_rows(d), blk, v.col(d, l),
                       row.data(), v.col(d, c0), v.local(d).ld());
    }
  }
  return c;
}

bool block_norms_finite(sim::Machine& machine, const sim::DistMultiVec& v,
                        int c0, int c1) {
  CAGMRES_REQUIRE(0 <= c0 && c0 <= c1 && c1 <= v.cols(),
                  "block_norms_finite: bad column range");
  const int ng = machine.n_devices();
  const int blk = c1 - c0;
  if (blk == 0) return true;
  std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(ng),
      std::vector<double>(static_cast<std::size_t>(blk), 0.0));
  for (int d = 0; d < ng; ++d) {
    sim::dev_col_sqnorms(machine, d, v.local_rows(d), blk, v.col(d, c0),
                         v.local(d).ld(),
                         partial[static_cast<std::size_t>(d)].data());
  }
  std::vector<double> norms(static_cast<std::size_t>(blk), 0.0);
  detail::reduce_to_host(machine, partial, blk, norms.data());
  for (const double n : norms) {
    if (!std::isfinite(n)) return false;
  }
  return true;
}

}  // namespace cagmres::ortho
