// Communication-Avoiding QR TSQR (paper §V-E, Fig. 9 bottom-right).
//
// Each device computes a local Householder QR of its row block; the small
// local R factors are gathered and a second QR on the host combines them
// (a one-level reduction tree — enough for <= a handful of devices). The
// devices then multiply their local Q by their slice of the reduction Q.
// Unconditionally stable (O(eps) orthogonality), but the local QR runs at
// BLAS-1/2 rates, a fraction of CholQR's BLAS-3 throughput.
#include <vector>

#include "blas/blas1.hpp"
#include "blas/lapack.hpp"
#include "common/error.hpp"
#include "ortho/methods.hpp"
#include "ortho/reduce.hpp"
#include "sim/device_blas.hpp"

namespace cagmres::ortho::detail {

TsqrResult tsqr_caqr(sim::Machine& m, sim::DistMultiVec& v, int c0, int c1) {
  const int ng = m.n_devices();
  const int k = c1 - c0;
  TsqrResult res;

  // Local QR on each device.
  std::vector<blas::DMat> local_q(static_cast<std::size_t>(ng));
  std::vector<blas::DMat> local_r(static_cast<std::size_t>(ng));
  std::vector<sim::Event> shipped(static_cast<std::size_t>(ng));
  for (int d = 0; d < ng; ++d) {
    const int rows = v.local_rows(d);
    CAGMRES_REQUIRE(rows >= k,
                    "CAQR: device row block shorter than the panel width "
                    "(need n / n_devices >= s+1)");
    blas::DMat block(rows, k);
    // Wall-clock-only drain: the host copy below reads the panel columns,
    // which kernels enqueued by the caller (e.g. BOrth's block update) may
    // still be writing on this device's stream.
    m.drain_device(d);
    for (int j = 0; j < k; ++j) {
      blas::copy(rows, v.col(d, c0 + j), block.col(j));
    }
    sim::dev_qr_explicit(m, d, block, local_q[static_cast<std::size_t>(d)],
                         local_r[static_cast<std::size_t>(d)]);
    m.d2h(d, 8.0 * k * k);  // ship the local R factor
    shipped[static_cast<std::size_t>(d)] = m.record_event(d);
  }
  // The host only needs the ng local R messages, not idle devices: wait on
  // each ship event rather than the whole machine.
  for (int d = 0; d < ng; ++d) {
    m.host_wait_event(shipped[static_cast<std::size_t>(d)]);
  }

  // Host combines the stacked R factors with one more QR.
  blas::DMat stacked(ng * k, k);
  for (int d = 0; d < ng; ++d) {
    const blas::DMat& r = local_r[static_cast<std::size_t>(d)];
    for (int j = 0; j < k; ++j) {
      for (int i = 0; i < k; ++i) stacked(d * k + i, j) = r(i, j);
    }
  }
  blas::DMat q_red, r_final;
  blas::qr_explicit(stacked, q_red, r_final);
  m.charge_host(sim::Kernel::kGeqrf,
                4.0 * static_cast<double>(ng) * k * k * k, 8.0 * ng * k * k);

  // Scatter the reduction-Q slices and form the final Q on each device.
  for (int d = 0; d < ng; ++d) {
    m.h2d(d, 8.0 * k * k);
    blas::DMat slice(k, k);
    for (int j = 0; j < k; ++j) {
      for (int i = 0; i < k; ++i) slice(i, j) = q_red(d * k + i, j);
    }
    sim::dev_gemm_nn(m, d, v.local_rows(d), k, k,
                     local_q[static_cast<std::size_t>(d)].data(),
                     local_q[static_cast<std::size_t>(d)].ld(), slice.data(),
                     slice.ld(), v.col(d, c0), v.local(d).ld());
  }
  // Wall-clock-only barrier: the enqueued dev_gemm_nn closures read the
  // loop-scoped local_q panels, which die when this function returns.
  m.sync();
  res.r = std::move(r_final);
  return res;
}

}  // namespace cagmres::ortho::detail
