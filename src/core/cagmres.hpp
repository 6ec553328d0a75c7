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
// With the Newton basis (the default), the first restart runs s steps of
// standard GMRES to harvest the s Ritz values a degree-s Leja-ordered basis
// needs (Bai, Hu & Reichel 1994). The paper harvests from a full m-step
// first restart; the short cycle is a deliberate deviation that halves
// kkt's charged solve time (EXPERIMENTS.md, "Newton shift harvest").
#pragma once

#include "core/solver_common.hpp"
#include "sim/machine.hpp"

namespace cagmres::core {

/// Solves the prepared problem with CA-GMRES(opts.s, opts.m).
SolveResult ca_gmres(sim::Machine& machine, const Problem& problem,
                     const SolverOptions& opts);

}  // namespace cagmres::core
