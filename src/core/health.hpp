// Numerical health monitoring and the one-rung escalation ladder
// (DESIGN.md §8).
//
// The fault layer makes the solvers survive injected *hardware* faults;
// this layer watches the *numerical* failure axis: the s-step basis going
// dependent as s grows (paper §IV-A), CholQR breaking down, the Arnoldi
// recurrence residual silently drifting from the true residual, and plain
// stagnation. Three monitors — each individually toggleable in
// SolverOptions::health, each charged to the simulated clock where it
// touches device data — feed one hardening action per solver, taken on the
// first trip:
//
//   CA-GMRES: force reorthogonalization (BOrth+TSQR twice per block), the
//             paper's "2x" remedy for a badly conditioned block
//   GMRES:    switch the per-iteration Orth from CGS to MGS
//
// A solver that already runs the hardened setting has no rung. Every trip
// and every action is appended to SolveStats::health_events and — when
// tracing — recorded as an instant event on the host timeline, so "what
// did the solver do to save this solve" is answerable after the fact. All
// decisions depend only on solver state, never on wall-clock or
// randomness, so a given problem + options reproduces the identical
// events on every run. Bounds on the solve itself are not monitors:
// Machine::set_deadline caps simulated time and SolverOptions::max_restarts
// caps the work.
//
// With every monitor off (the default) the solvers charge and compute
// exactly what they did before this layer existed — the same byte-identity
// invariant the unarmed fault injector established, and tested the same
// way.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "blas/matrix.hpp"
#include "sim/machine.hpp"

namespace cagmres::core {

/// Monitor configuration (SolverOptions::health): which monitors watch the
/// solve and how often the condition monitor pays for a charged sample.
/// Everything defaults to off; the trip thresholds are fixed constants in
/// core/health.cpp, and every trip asks the solver to harden.
struct HealthOptions {
  /// Monitor 1: estimate each committed block's condition from the TSQR R
  /// diagonal (free, host data) and sample the charged Gram condition
  /// number of the orthonormalized block on a cadence.
  bool monitor_condition = false;
  /// Charge an ortho::condition_number_charged sample every Nth committed
  /// block; 0 disables sampling (the free R-diagonal estimate remains).
  int condition_sample_every = 4;
  /// Monitor 2: compare the recurrence (least-squares) residual against
  /// the true residual at restart boundaries and on declared convergence.
  bool monitor_residual_gap = false;
  /// Monitor 3: stagnation / divergence watchdog over the restart
  /// residuals.
  bool monitor_stagnation = false;

  /// Any monitor armed. False (the default configuration) means the
  /// solvers take their pre-health code paths verbatim.
  bool any() const {
    return monitor_condition || monitor_residual_gap || monitor_stagnation;
  }
};

/// A solver's hardening action (kNone = it has none left).
enum class EscalationStep {
  kNone,
  kForceReorth,  ///< CA-GMRES: BOrth+TSQR twice for every remaining block
  kSwitchOrth,   ///< GMRES: CGS -> MGS per-iteration Orth
};

std::string to_string(EscalationStep step);

/// What a health event records (kNone on HealthEvent::action means the
/// event is a trip/observation, not a ladder action).
enum class HealthEventKind {
  kNone,
  kConditionTrip,     ///< monitor 1: basis or Q-block condition over limit
  kFalseConvergence,  ///< monitor 2: recurrence said converged, truth said no
  kResidualGap,       ///< monitor 2: gap over limit without a claim
  kStagnation,        ///< monitor 3: too little progress over the window
  kDivergence,        ///< monitor 3: residual blew up vs best-so-far
  kEscalation,        ///< ladder action taken (see action)
  kLadderExhausted,   ///< a trip found no hardening action left
};

std::string to_string(HealthEventKind kind);

/// One entry of SolveStats::health_events.
struct HealthEvent {
  HealthEventKind kind = HealthEventKind::kNone;
  EscalationStep action = EscalationStep::kNone;  ///< kEscalation only
  double time = 0.0;   ///< simulated seconds when recorded
  int restart = 0;     ///< restart loop index
  int iteration = 0;   ///< basis vectors generated so far
  double value = 0.0;  ///< tripping measurement (kappa, gap ratio, ...)
  std::string detail;  ///< human-readable context
};

/// Per-solve monitor engine. The hosting solver calls the check_* hooks at
/// its natural boundaries; each returns the trip kind (kNone = healthy) and
/// has already logged the trip. On a trip the solver hardens itself (or
/// finds it has nothing left to harden) and reports that to escalate(). All
/// events are collected here and moved into SolveStats at the end of the
/// solve.
class SolveHealthMonitor {
 public:
  SolveHealthMonitor(sim::Machine& machine, const HealthOptions& opts);

  /// Any monitor armed (mirrors HealthOptions::any).
  bool armed() const { return opts_.any(); }

  /// Monitor 1, at CA block commit. `r_block` is the block's TSQR factor
  /// (host data, free to scan); every condition_sample_every-th call also
  /// charges a Gram condition number of the orthonormalized columns
  /// [c0, c1) of v.
  HealthEventKind check_block(const blas::DMat& r_block,
                              const sim::DistMultiVec& v, int c0, int c1,
                              int restart, int iteration);

  /// Monitor 2, at a restart boundary: `true_res` is the just-computed
  /// explicit residual, `recurrence_res` the previous cycle's least-squares
  /// estimate, `claimed_converged` whether that estimate met the tolerance,
  /// `still_unconverged` whether the true residual is still above it.
  HealthEventKind check_residual_gap(double true_res, double recurrence_res,
                                     bool claimed_converged,
                                     bool still_unconverged, int restart,
                                     int iteration);

  /// Monitor 3, once per restart with the true residual norm.
  HealthEventKind check_progress(double res, int restart, int iteration);

  /// Logs the solver's response to a `cause` trip: the kEscalation event
  /// for `action`, or kLadderExhausted when `action` is kNone (the solver
  /// decides what exhaustion means for this cause). Either way it opens
  /// the mute windows that give the response time to show.
  void escalate(HealthEventKind cause, double value, int restart,
                int iteration, EscalationStep action);

  /// Largest and latest true/recurrence gap observed by monitor 2.
  double residual_gap_last() const { return gap_last_; }
  double residual_gap_max() const { return gap_max_; }

  const std::vector<HealthEvent>& events() const { return events_; }
  std::vector<HealthEvent> take_events() { return std::move(events_); }

 private:
  HealthEvent& log(HealthEventKind kind, double value, int restart,
                   int iteration, std::string detail);

  sim::Machine& m_;
  HealthOptions opts_;

  std::vector<HealthEvent> events_;

  // monitor 1 state
  std::int64_t blocks_seen_ = 0;
  std::int64_t condition_mute_until_block_ = 0;

  // monitor 2/3 state
  double gap_last_ = 0.0;
  double gap_max_ = 0.0;
  std::vector<double> residuals_;
  double best_res_ = 0.0;
  bool have_best_ = false;
  int progress_mute_until_restart_ = 0;
};

}  // namespace cagmres::core
