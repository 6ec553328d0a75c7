// Singular Value QR TSQR (paper §V-D).
//
// Same communication pattern and BLAS-3 Gram matrix as CholQR, but the tiny
// host factorization goes through the SVD of the Gram matrix, which cannot
// break down on rank-deficient blocks: B = U S U^T, then R = qr(S^{1/2} U^T)
// satisfies R^T R = B. Following the paper's observation, the Gram matrix is
// first scaled to unit diagonal (configurable) to tame element-wise errors.
#include <cmath>
#include <vector>

#include "blas/lapack.hpp"
#include "blas/svd.hpp"
#include "common/error.hpp"
#include "ortho/methods.hpp"
#include "ortho/reduce.hpp"
#include "sim/device_blas.hpp"

namespace cagmres::ortho::detail {

namespace {

/// Relative floor on the Gram matrix's singular values: smaller ones are
/// clamped so the triangular solve stays bounded on rank-deficient blocks.
constexpr double kSigmaFloor = 1e-14;

}  // namespace

TsqrResult tsqr_svqr(sim::Machine& m, sim::DistMultiVec& v, int c0, int c1,
                     const TsqrOptions& opts) {
  const int ng = m.n_devices();
  const int k = c1 - c0;
  TsqrResult res;

  std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(ng),
      std::vector<double>(static_cast<std::size_t>(k) * k, 0.0));
  for (int d = 0; d < ng; ++d) {
    sim::dev_gram(m, d, v.local_rows(d), k, v.col(d, c0), v.local(d).ld(),
                  partial[static_cast<std::size_t>(d)].data(), k);
  }
  blas::DMat b(k, k);
  reduce_to_host(m, partial, k * k, b.data());

  // Optional unit-diagonal scaling B_hat = D^{-1} B D^{-1}.
  std::vector<double> dscale(static_cast<std::size_t>(k), 1.0);
  if (opts.svqr_scale_diagonal) {
    for (int j = 0; j < k; ++j) {
      const double dj = b(j, j);
      // A non-positive diagonal means the column collapsed numerically
      // (rank-deficient basis); keep scale 1 and let the sigma floor below
      // absorb it — surviving such blocks is SVQR's raison d'etre.
      dscale[static_cast<std::size_t>(j)] = (dj > 0.0) ? std::sqrt(dj) : 1.0;
    }
    for (int j = 0; j < k; ++j) {
      for (int i = 0; i < k; ++i) {
        b(i, j) /= dscale[static_cast<std::size_t>(i)] *
                   dscale[static_cast<std::size_t>(j)];
      }
    }
  }

  // Tiny host SVD (Jacobi) + QR; charged as host BLAS-1/2 work.
  const blas::EighResult eig = blas::jacobi_eigh(b);
  m.charge_host(sim::Kernel::kGeqrf,
                12.0 * static_cast<double>(k) * k * k * eig.sweeps,
                8.0 * k * k);
  const double smax = std::max(eig.w.front(), 0.0);
  CAGMRES_REQUIRE_CODE(smax > 0.0, ErrorCode::kBreakdown,
                       "SVQR: Gram matrix is zero");
  // M = S^{1/2} U^T, with singular values floored so R stays invertible on
  // rank-deficient input.
  blas::DMat mmat(k, k);
  for (int i = 0; i < k; ++i) {
    const double si =
        std::sqrt(std::max(eig.w[static_cast<std::size_t>(i)],
                           kSigmaFloor * smax));
    for (int j = 0; j < k; ++j) mmat(i, j) = si * eig.u(j, i);
  }
  // Undo the diagonal scaling: B = D B_hat D => R_final = qr(M * D).
  if (opts.svqr_scale_diagonal) {
    for (int j = 0; j < k; ++j) {
      for (int i = 0; i < k; ++i) mmat(i, j) *= dscale[static_cast<std::size_t>(j)];
    }
  }
  blas::DMat q_small, r(k, k);
  blas::qr_explicit(mmat, q_small, r);
  m.charge_host(sim::Kernel::kGeqrf, 4.0 * static_cast<double>(k) * k * k,
                8.0 * k * k);

  broadcast_charge(m, k * k);
  for (int d = 0; d < ng; ++d) {
    sim::dev_trsm(m, d, v.local_rows(d), k, r.data(), r.ld(), v.col(d, c0),
                  v.local(d).ld());
  }
  res.r = std::move(r);
  return res;
}

}  // namespace cagmres::ortho::detail
