// The restart driver shared by GMRES and CA-GMRES.
//
// Both solvers are restarted GMRES: every restart computes the true
// residual r = b - A x, tests convergence, builds a Krylov basis from
// r / ||r|| and adds the least-squares combination of that basis to x.
// They differ only in how one cycle builds the basis (paper §III: CA-GMRES
// swaps s SpMV+Orth steps for MPK+BOrth+TSQR). run_restarts owns
// everything else:
//   - the distributed buffers (V, x, b), the SpMV executor and DrainGuard;
//   - the Checkpointer and RecoveryDomains: repartition after a device
//     loss, residual rollback, checkpoint save, the host_gmres degrade floor;
//   - the lazy PrecondHandle build and its rebuild after a repartition;
//   - the convergence test, the health monitors and the escalation response;
//   - update_solution, per-restart bookkeeping and SolveStats finalization;
//   - the final gather.
// A solver supplies a CycleStep: its private state, one cycle, and its
// escalation ladder.
#pragma once

#include <functional>
#include <vector>

#include "blas/matrix.hpp"
#include "core/health.hpp"
#include "core/solver_common.hpp"
#include "mpk/exec.hpp"
#include "sim/machine.hpp"

namespace cagmres::core::detail {

/// Recovery bound (armed machines only): how many times one block
/// (CA-GMRES) or one Arnoldi step (GMRES) is replayed after the health
/// scrub finds poisoned data before the cycle is rolled back to the restart
/// checkpoint, and how many consecutive rollbacks a restart may take before
/// it gives up with kRetriesExhausted.
inline constexpr int kMaxBlockReplays = 3;

/// What one restart cycle produced.
struct CycleOutcome {
  int k = 0;                ///< basis columns generated (H has k columns)
  blas::DMat h;             ///< (m+1) x m raw Hessenberg (cols 0..k-1 valid)
  std::vector<double> y;    ///< LS solution for the k columns
  double ls_residual = 0.0; ///< final least-squares residual estimate
  int replays = 0;          ///< iterations re-run by the health scrub
  /// Persistent poison the cycle could not scrub: the driver discards it,
  /// rolls x back to the restart checkpoint and redoes the restart.
  bool tainted = false;
};

/// The driver state a cycle reads: V(:, 0) already holds r / ||r||.
struct Cycle {
  sim::Machine& machine;
  mpk::MpkExecutor& spmv;  ///< 1-step SpMV on the current partition
  sim::DistMultiVec& v;    ///< the (m+1)-column basis
  double beta;             ///< ||r||, the LS right-hand side
  double abs_tol;          ///< tol * initial residual
  int restart;
  bool resilient;          ///< the machine's fault injection is armed
  SolveStats& st;
  SolveHealthMonitor& hm;
  /// Logs a monitor trip's ladder response (one rung at most).
  const std::function<void(HealthEventKind)>& respond;
};

/// One solver's basis construction (see file comment). Every hook but
/// cycle() defaults to "nothing". Steps live on their entry point's stack
/// and are never deleted through this base.
class CycleStep {
 public:
  /// The escalation-ladder rungs this solver has.
  virtual LadderCapabilities capabilities() const { return {}; }
  /// Whether a rung still changes anything in the current state.
  virtual bool rung_applicable(EscalationStep) const { return false; }
  virtual void apply_rung(EscalationStep) {}

  /// (Re)builds private distributed state for the partition of `prob`:
  /// once before the first restart and again after every repartition.
  virtual void rebuild(const Problem& /*prob*/) {}

  /// Runs one cycle, adding its basis vectors to c.st.iterations and its
  /// scrub replays to c.st.recovery as they happen (a device fault may
  /// unwind the cycle midway; what it already cost stays counted).
  virtual CycleOutcome cycle(Cycle& c) = 0;

  /// After an accepted cycle updated x, the restart was counted and the
  /// recovery budgets refilled.
  virtual void after_restart(Cycle& /*c*/, const CycleOutcome& /*out*/) {}

 protected:
  ~CycleStep() = default;
};

/// Runs restarted GMRES with `step` building each cycle's basis; returns
/// the solution in the caller's original ordering/scaling plus telemetry.
SolveResult run_restarts(sim::Machine& machine, const Problem& problem,
                         const SolverOptions& opts, CycleStep& step);

/// r := b - A x into column rcol of v, where x lives in column xcol of
/// `xwork` (a 2-column scratch multivector) — or r := b when first is true.
/// Returns ||r|| (reduced on the host).
double compute_residual(sim::Machine& machine, mpk::MpkExecutor& spmv,
                        const sim::DistVec& b, sim::DistMultiVec& xwork,
                        sim::DistMultiVec& v, int rcol, bool first);

/// x (column 0 of xwork) += V(:, 0:k) * y, broadcasting y to the devices.
/// Right-preconditioned (`pc` non-null): x += M^{-1} (V(:, 0:k) y), staging
/// V y in `stage` (columns 0 and 1; pass the executor's stage(2)) so x
/// stays the true-space iterate.
void update_solution(sim::Machine& machine, sim::DistMultiVec& v, int k,
                     const std::vector<double>& y, sim::DistMultiVec& xwork,
                     precond::PrecondHandle* pc = nullptr,
                     sim::DistMultiVec* stage = nullptr);

/// Charges the host->device redistribution of the matrix and rhs blocks
/// after a repartition (the one recovery cost that is not a retry or replay
/// of existing work).
void charge_redistribution(sim::Machine& machine, const Problem& p);

}  // namespace cagmres::core::detail
