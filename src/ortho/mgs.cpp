// Modified Gram-Schmidt TSQR (paper §V-A, Fig. 9 top-left).
//
// Orthogonalizes one column at a time against each previous column with an
// individual global reduction per dot product: numerically the most stable
// Gram-Schmidt variant, but it pays (k)(k+1) GPU-CPU round trips of latency.
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "ortho/methods.hpp"
#include "ortho/reduce.hpp"
#include "sim/device_blas.hpp"

namespace cagmres::ortho::detail {

TsqrResult tsqr_mgs(sim::Machine& m, sim::DistMultiVec& v, int c0, int c1) {
  const int ng = m.n_devices();
  const int k = c1 - c0;
  TsqrResult res;
  res.r = blas::DMat(k, k);

  std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(ng), std::vector<double>(1, 0.0));
  for (int col = c0; col < c1; ++col) {
    for (int prev = c0; prev < col; ++prev) {
      // Local dot products, one reduction per (prev, col) pair.
      for (int d = 0; d < ng; ++d) {
        partial[static_cast<std::size_t>(d)][0] = sim::dev_dot(
            m, d, v.local_rows(d), v.col(d, prev), v.col(d, col));
      }
      double r = 0.0;
      reduce_to_host(m, partial, 1, &r);
      broadcast_charge(m, 1);
      res.r(prev - c0, col - c0) = r;
      for (int d = 0; d < ng; ++d) {
        sim::dev_axpy(m, d, v.local_rows(d), -r, v.col(d, prev),
                      v.col(d, col));
      }
    }
    // Normalize.
    for (int d = 0; d < ng; ++d) {
      partial[static_cast<std::size_t>(d)][0] =
          sim::dev_dot(m, d, v.local_rows(d), v.col(d, col), v.col(d, col));
    }
    double nrm_sq = 0.0;
    reduce_to_host(m, partial, 1, &nrm_sq);
    double nrm = std::sqrt(std::max(nrm_sq, 0.0));
    CAGMRES_REQUIRE_CODE(nrm > 0.0, ErrorCode::kBreakdown,
                         "MGS: zero column encountered");
    broadcast_charge(m, 1);
    res.r(col - c0, col - c0) = nrm;
    for (int d = 0; d < ng; ++d) {
      sim::dev_scal(m, d, v.local_rows(d), 1.0 / nrm, v.col(d, col));
    }
  }
  return res;
}

}  // namespace cagmres::ortho::detail
