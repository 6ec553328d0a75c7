// Cholesky QR TSQR (paper §V-C, Fig. 9 bottom-left).
//
// One BLAS-3 Gram matrix per device, a single reduction, a tiny host
// Cholesky, and one triangular solve: the minimum-communication TSQR
// (2 messages total). The price is the squared condition number of the
// Gram matrix — for ill-conditioned CA-GMRES bases Cholesky can break
// down, which we detect and (optionally) absorb with a shifted retry that
// the caller should follow with reorthogonalization ("2x CholQR").
#include <cmath>
#include <string>
#include <vector>

#include "blas/lapack.hpp"
#include "common/error.hpp"
#include "ortho/methods.hpp"
#include "ortho/reduce.hpp"
#include "sim/device_blas.hpp"

namespace cagmres::ortho::detail {

namespace {

/// First diagonal shift of the breakdown retry, relative to the Gram
/// diagonal; each further attempt grows it 100x.
constexpr double kBreakdownShift = 1e-12;

}  // namespace

TsqrResult tsqr_cholqr(sim::Machine& m, sim::DistMultiVec& v, int c0, int c1,
                       const TsqrOptions& opts, bool float_gram) {
  const int ng = m.n_devices();
  const int k = c1 - c0;
  TsqrResult res;
  // On any breakdown throw below, drain before unwinding: host workers may
  // still run overlapped tasks referencing the caller's cycle-local buffers.
  sim::UnwindDrainGuard unwind_guard(m);

  // Local Gram matrices (batched DGEMM class under the Optimized profile;
  // SGEMM-rate single-precision accumulation for the mixed variant).
  std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(ng),
      std::vector<double>(static_cast<std::size_t>(k) * k, 0.0));
  for (int d = 0; d < ng; ++d) {
    if (float_gram) {
      sim::dev_gram_float(m, d, v.local_rows(d), k, v.col(d, c0),
                          v.local(d).ld(),
                          partial[static_cast<std::size_t>(d)].data(), k);
    } else {
      sim::dev_gram(m, d, v.local_rows(d), k, v.col(d, c0), v.local(d).ld(),
                    partial[static_cast<std::size_t>(d)].data(), k);
    }
  }
  blas::DMat b(k, k);
  reduce_to_host(m, partial, k * k, b.data());

  // A poisoned basis block (injected kernel NaN) makes the Gram matrix
  // non-finite; no diagonal shift can fix that, so fail before the retry
  // loop. The resilient solvers treat this breakdown as tainted data.
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i <= j; ++i) {
      if (!std::isfinite(b(i, j))) {
        throw Error("CholQR: Gram matrix has non-finite entries",
                    ErrorCode::kBreakdown);
      }
    }
  }

  // Host Cholesky (O(k^3/3) — negligible next to the panels).
  blas::DMat r = b;
  int fail = blas::potrf_upper(r);
  m.charge_host(sim::Kernel::kGemm, static_cast<double>(k) * k * k / 3.0,
                8.0 * k * k);
  if (fail >= 0) {
    res.breakdown = true;
    if (!opts.cholqr_shift_on_breakdown) {
      throw Error("CholQR breakdown at pivot column " + std::to_string(fail) +
                      " of " + std::to_string(k) +
                      " (Gram matrix numerically indefinite)",
                  ErrorCode::kBreakdown);
    }
    // Escalating diagonal shift relative to the Gram diagonal.
    double shift = kBreakdownShift;
    for (int attempt = 0; attempt < 8 && fail >= 0; ++attempt) {
      r = b;
      for (int j = 0; j < k; ++j) r(j, j) = b(j, j) * (1.0 + shift) + shift;
      fail = blas::potrf_upper(r);
      shift *= 100.0;
    }
    if (fail >= 0) {
      throw Error("CholQR: shifted Cholesky still failing at pivot column " +
                      std::to_string(fail),
                  ErrorCode::kBreakdown);
    }
  }

  // Broadcast R, then the panel-wide triangular solve on each device.
  broadcast_charge(m, k * k);
  for (int d = 0; d < ng; ++d) {
    sim::dev_trsm(m, d, v.local_rows(d), k, r.data(), r.ld(), v.col(d, c0),
                  v.local(d).ld());
  }
  res.r = std::move(r);
  return res;
}

}  // namespace cagmres::ortho::detail
