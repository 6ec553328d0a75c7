// Newton basis shifts for CA-GMRES (paper §IV-A last paragraph).
//
// The monomial basis [v, Av, A^2 v, ...] becomes numerically dependent at a
// rate of |lambda_2/lambda_1| per power; CA-GMRES instead generates
// v_{k+1} = (A - theta_k I) v_k with the theta_k chosen as Ritz values of A
// (eigenvalues of the s-step harvest cycle's Hessenberg matrix), ordered by the
// Leja rule so consecutive shifts stay far apart. Complex conjugate pairs
// are kept adjacent and applied in real arithmetic (Hoemmen §7.3.2).
#pragma once

#include <complex>
#include <vector>

namespace cagmres::core {

/// A shift sequence in real storage: entry k is real when im[k] == 0;
/// a conjugate pair occupies slots (k, k+1) with im[k] > 0 and
/// im[k+1] = -im[k].
struct Shifts {
  std::vector<double> re;
  std::vector<double> im;

  int size() const { return static_cast<int>(re.size()); }
  bool empty() const { return re.empty(); }
};

/// Leja-orders the given values: the first is the largest in magnitude, and
/// each subsequent value maximizes the product of distances to all already
/// chosen ones (log-sum form to avoid overflow). Conjugate pairs (detected
/// by matching conjugates in the input) are emitted adjacently.
Shifts leja_order(const std::vector<std::complex<double>>& values);

/// Builds s Newton shifts from the Ritz values of a first-restart Hessenberg
/// matrix: Leja-orders all Ritz values and takes a prefix of length s,
/// demoting a complex pair that would straddle the cutoff to its real part.
Shifts newton_shifts(const std::vector<std::complex<double>>& ritz, int s);

/// Clips the shift sequence to a block of `steps` entries for one MPK call:
/// returns a copy of the first `steps` shifts where a pair that would
/// straddle the block end is demoted to a real shift (any shift still
/// produces a valid Krylov basis — only conditioning is affected).
Shifts block_shifts(const Shifts& shifts, int steps);

/// True when the sequence is a valid real-storage shift train: every entry
/// with im != 0 belongs to an adjacent (+beta, -beta) pair with matching
/// real parts. newton_shifts and block_shifts only ever produce consistent
/// trains; CA-GMRES relies on this when a restart's last block is shorter
/// than s.
bool shifts_consistent(const Shifts& shifts);

}  // namespace cagmres::core
