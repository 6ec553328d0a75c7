// Communication-Avoiding GMRES (paper §III, Fig. 2).
//
// CA-GMRES(s, m) replaces the SpMV + Orth pair of s standard GMRES
// iterations with three block kernels:
//   MPK   — generate s new basis vectors with one halo exchange (§IV),
//   BOrth — project the block against the previous basis (one reduction),
//   TSQR  — orthonormalize the block internally (§V).
// The Hessenberg matrix is recovered on the host from the triangular
// bookkeeping (H = R B R^{-1}, see core/hessenberg.hpp) and the usual
// least-squares update closes each restart cycle.
//
// With the Newton basis (the default), the first restart runs standard
// GMRES to harvest Ritz values for the shifts, exactly as in the paper.
#pragma once

#include "core/solver_common.hpp"
#include "sim/machine.hpp"

namespace cagmres::core {

/// Floor of the working block size: the escalation ladder's kShrinkS rung
/// never halves s below it.
inline constexpr int kShrinkSFloor = 1;

/// Solves the prepared problem with CA-GMRES(opts.s, opts.m).
SolveResult ca_gmres(sim::Machine& machine, const Problem& problem,
                     const SolverOptions& opts);

}  // namespace cagmres::core
