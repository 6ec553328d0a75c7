// Pipelined GMRES — the communication-HIDING alternative the paper's
// footnote 5 studied (Ghysels, Ashby, Meerbergen, Vanroose, ref [19]).
//
// Depth-1 pipelining (p(1)-GMRES): the solver keeps a second basis
// Z = A·V. Each iteration posts the orthogonalization reduction for z_j,
// then launches the next SpMV w = A z_j BEFORE waiting for the reduction —
// the global-reduce latency hides behind the matrix-vector product. The
// orthogonalized vectors are then recovered by linearity:
//   v_{j+1} = (z_j - V a) / nu,   z_{j+1} = (w - Z a) / nu,
// at the price of doubled update flops + basis storage and CGS-grade
// stability (the coefficients come from the not-yet-normalized z_j).
//
// Contrast with CA-GMRES: pipelining hides the latency of communication
// that still happens; communication avoidance removes it. The bench
// `ext_pipelined` puts the two head-to-head as a function of latency.
#pragma once

#include "core/solver_common.hpp"
#include "sim/machine.hpp"

namespace cagmres::core {

/// Solves the prepared problem with depth-1 pipelined GMRES(opts.m).
/// Uses opts.m / tol / max_restarts; the orthogonalization is the fused
/// CGS-style single reduction inherent to the algorithm. Runs on the shared
/// restart driver (core/restart.hpp), so it checkpoints, repartitions and
/// degrades under faults exactly like GMRES.
SolveResult pipelined_gmres(sim::Machine& machine, const Problem& problem,
                            const SolverOptions& opts);

}  // namespace cagmres::core
