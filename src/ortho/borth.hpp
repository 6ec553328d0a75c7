// Block orthogonalization (BOrth) of a fresh basis block against the
// previously orthonormalized basis vectors (paper §V-A/B).
//
// CA-GMRES orthogonalizes each new s+1-column block in two stages: BOrth
// projects it against all previous Q columns, then TSQR orthonormalizes it
// internally. BOrth comes in an MGS flavor (one reduction per previous
// column, BLAS-2) and a CGS flavor (a single matrix-matrix projection,
// BLAS-3, one reduction total) — the paper's experiments use CGS.
#pragma once

#include <string>

#include "blas/matrix.hpp"
#include "sim/machine.hpp"

namespace cagmres::ortho {

/// BOrth projection flavor.
enum class BorthMethod { kMgs, kCgs };

/// Parses "mgs" or "cgs".
BorthMethod parse_borth(const std::string& name);
std::string to_string(BorthMethod m);

/// Orthogonalizes columns [c0, c1) of `v` against columns [0, c0) in place.
/// Returns the c0 x (c1-c0) coefficient block C = Q_prev^T * V_block, which
/// the caller stores into the R factor bookkeeping.
blas::DMat borth(sim::Machine& machine, BorthMethod method,
                 sim::DistMultiVec& v, int c0, int c1);

/// Charged health scrub for the recovery layer: computes the squared column
/// norms of columns [c0, c1) (one column-norms kernel per device,
/// sim::dev_col_sqnorms, plus one reduction) and reports whether every norm
/// is finite. A single NaN/Inf anywhere in the panel makes its column norm
/// non-finite, so the norms act as a one-number-per-column checksum for
/// data poisoned by an injected kernel fault. Only called when the
/// machine's fault injection is armed.
bool block_norms_finite(sim::Machine& machine, const sim::DistMultiVec& v,
                        int c0, int c1);

}  // namespace cagmres::ortho
