// Standard restarted GMRES(m) on the simulated multi-GPU machine
// (paper §III, Fig. 1).
//
// Arnoldi with MGS or CGS orthogonalization per iteration, Givens
// least-squares monitoring, restart after m iterations, convergence at a
// `tol` relative residual reduction. All SpMV and Orth costs are charged to
// the machine, phase-labelled "spmv" and "orth".
#pragma once

#include "core/restart.hpp"
#include "core/solver_common.hpp"
#include "mpk/exec.hpp"
#include "sim/machine.hpp"

namespace cagmres::core {

/// Solves the prepared problem with GMRES(opts.m); returns the solution in
/// the caller's original ordering/scaling plus telemetry.
SolveResult gmres(sim::Machine& machine, const Problem& problem,
                  const SolverOptions& opts);

namespace detail {

/// One Arnoldi restart cycle (shared with CA-GMRES's s-step shift
/// harvest): V(:,0) must hold the unit starting vector; generates up to m
/// more columns, orthogonalizing each with `orth`. Stops early when the
/// least-squares residual drops to `abs_tol` or on happy breakdown.
///
/// `max_replays` > 0 enables the recovery scrub: each iteration's Hessenberg
/// column and norm (computed anyway — a free checksum) are checked for
/// NaN/Inf before the iteration is accepted; a poisoned iteration is re-run
/// up to max_replays times, after which the cycle stops early at the last
/// clean column. 0 (the fault-free default) changes nothing.
///
/// `pc` non-null runs the right-preconditioned recurrence: each step stages
/// M^{-1} v_j (in the executor's scratch multivector) and multiplies A into
/// that, building a basis of A M^{-1}. The caller must then apply M^{-1}
/// once inside the solution update (update_solution with the same `pc`).
CycleOutcome arnoldi_cycle(sim::Machine& machine, mpk::MpkExecutor& spmv,
                           sim::DistMultiVec& v, int m, ortho::Method orth,
                           double beta, double abs_tol, int max_replays = 0,
                           precond::PrecondHandle* pc = nullptr);

/// GMRES's cycle step: one arnoldi_cycle with the per-iteration Orth. It
/// hardens by downshifting CGS to the more stable MGS.
class GmresStep : public CycleStep {
 public:
  explicit GmresStep(const SolverOptions& opts)
      : opts_(opts), orth_(opts.gmres_orth) {}

  EscalationStep harden() override;
  CycleOutcome cycle(Cycle& c) override { return cycle(c, opts_.m); }
  /// A cycle of at most `steps` <= opts.m Arnoldi steps (CA-GMRES's
  /// shift harvest runs s of them).
  CycleOutcome cycle(Cycle& c, int steps);

 private:
  const SolverOptions& opts_;
  ortho::Method orth_;
};

}  // namespace detail

}  // namespace cagmres::core
