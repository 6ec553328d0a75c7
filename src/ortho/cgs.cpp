// Classical Gram-Schmidt TSQR (paper §V-B, Fig. 9 top-right).
//
// Projects each column against all previous block columns at once via a
// tall-skinny GEMV. The column's norm is fused into the same reduction
// (Pythagoras: ||v - V r||^2 = ||v||^2 - ||r||^2 for orthonormal V), so each
// column costs exactly one reduce + one broadcast — the 2(s+1) messages of
// the paper's Fig. 10. When cancellation makes the fused norm untrustworthy
// (nearly dependent columns) the norm is recomputed with one extra
// reduction. The price of CGS remains its O(eps * kappa^k) orthogonality.
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "ortho/methods.hpp"
#include "ortho/reduce.hpp"
#include "sim/device_blas.hpp"

namespace cagmres::ortho::detail {

TsqrResult tsqr_cgs(sim::Machine& m, sim::DistMultiVec& v, int c0, int c1) {
  const int ng = m.n_devices();
  const int k = c1 - c0;
  TsqrResult res;
  res.r = blas::DMat(k, k);

  std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(ng),
      std::vector<double>(static_cast<std::size_t>(k) + 1, 0.0));
  std::vector<double> coeff(static_cast<std::size_t>(k) + 1, 0.0);
  for (int col = c0; col < c1; ++col) {
    const int prev = col - c0;
    // Fused projection + norm: one kernel pair, one reduction.
    for (int d = 0; d < ng; ++d) {
      auto& p = partial[static_cast<std::size_t>(d)];
      if (prev > 0) {
        sim::dev_gemv_t(m, d, v.local_rows(d), prev, v.col(d, c0),
                        v.local(d).ld(), v.col(d, col), p.data());
      }
      p[static_cast<std::size_t>(prev)] =
          sim::dev_dot(m, d, v.local_rows(d), v.col(d, col), v.col(d, col));
    }
    reduce_to_host(m, partial, prev + 1, coeff.data());
    broadcast_charge(m, prev + 1);
    const double norm2_before = coeff[static_cast<std::size_t>(prev)];
    double proj2 = 0.0;
    for (int i = 0; i < prev; ++i) {
      res.r(i, prev) = coeff[static_cast<std::size_t>(i)];
      proj2 += coeff[static_cast<std::size_t>(i)] * coeff[static_cast<std::size_t>(i)];
    }
    const double nrm2_est = norm2_before - proj2;

    if (prev > 0) {
      for (int d = 0; d < ng; ++d) {
        sim::dev_gemv_n_sub(m, d, v.local_rows(d), prev, v.col(d, c0),
                            v.local(d).ld(), coeff.data(), v.col(d, col));
      }
    }

    double nrm;
    if (nrm2_est > 1e-8 * norm2_before && nrm2_est > 0.0) {
      nrm = std::sqrt(nrm2_est);
    } else {
      // Heavy cancellation: recompute the norm of the projected column with
      // one extra reduction (rare; keeps the method robust near rank
      // deficiency).
      for (int d = 0; d < ng; ++d) {
        partial[static_cast<std::size_t>(d)][0] = sim::dev_dot(
            m, d, v.local_rows(d), v.col(d, col), v.col(d, col));
      }
      double nrm2 = 0.0;
      reduce_to_host(m, partial, 1, &nrm2);
      broadcast_charge(m, 1);
      nrm = std::sqrt(std::max(nrm2, 0.0));
    }
    CAGMRES_REQUIRE_CODE(nrm > 0.0, ErrorCode::kBreakdown,
                         "CGS: zero column encountered");
    res.r(prev, prev) = nrm;
    for (int d = 0; d < ng; ++d) {
      sim::dev_scal(m, d, v.local_rows(d), 1.0 / nrm, v.col(d, col));
    }
  }
  return res;
}

}  // namespace cagmres::ortho::detail
