// Numerical health monitoring and the deterministic escalation ladder
// (DESIGN.md §8).
//
// PR 1 made the solvers survive injected *hardware* faults; this layer
// watches the *numerical* failure axis: the s-step basis going dependent as
// s grows (paper §IV-A), CholQR breaking down, the Arnoldi recurrence
// residual silently drifting from the true residual, and plain stagnation.
// Four monitors — each individually toggleable in SolverOptions::health,
// each charged to the simulated clock where it touches device data — feed
// one deterministic escalation ladder shared by GMRES and CA-GMRES:
//
//   force reorthogonalization -> shrink the working s -> rebuild the Newton
//   shifts from the freshest Hessenberg -> switch the TSQR method
//   (CholQR -> SVQR -> CAQR) -> fall back to standard GMRES
//
// (GMRES itself only has the CGS -> MGS orthogonalization downshift.)
// Every trip and every action is appended to SolveStats::health_events and
// — when tracing — recorded as an instant event on the host timeline, so
// "what did the solver do to save this solve" is answerable after the
// fact. Rungs are consumed strictly in order and all decisions depend only
// on solver state, never on wall-clock or randomness, so a given problem +
// options reproduces the identical ladder walk on every run.
//
// With every monitor off (the default) the solvers charge and compute
// exactly what they did before this layer existed — the same byte-identity
// invariant the unarmed fault injector established, and tested the same
// way.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "blas/matrix.hpp"
#include "sim/machine.hpp"

namespace cagmres::core {

/// Monitor and ladder configuration (SolverOptions::health). Everything
/// defaults to off/unlimited.
struct HealthOptions {
  // --- monitor 1: basis/orthogonality condition -----------------------
  /// Estimate each committed block's condition from the TSQR R diagonal
  /// (free, host data) and sample the charged Gram condition number of the
  /// orthonormalized block on a cadence.
  bool monitor_condition = false;
  /// Trip when max|r_ii|/min|r_ii| (a lower bound on kappa of the
  /// generated block) exceeds this. ~eps^-1/2 is where CholQR's O(eps
  /// kappa^2) orthogonality error reaches O(1).
  double kappa_limit = 1e7;
  /// Charge an ortho::condition_number_charged sample every Nth committed
  /// block; 0 disables sampling (the free R-diagonal estimate remains).
  int condition_sample_every = 4;

  // --- monitor 2: false-convergence guard -----------------------------
  /// Compare the recurrence (least-squares) residual against the true
  /// residual at restart boundaries and on declared convergence.
  bool monitor_residual_gap = false;
  /// Trip when true/recurrence exceeds this (healthy solves sit near 1).
  double residual_gap_limit = 10.0;

  // --- monitor 3: stagnation / divergence watchdog --------------------
  bool monitor_stagnation = false;
  /// Sliding window length, in restarts.
  int stagnation_window = 4;
  /// Trip when the residual shrank by less than this factor over the
  /// window (res_now > stagnation_reduction * res_window_ago).
  double stagnation_reduction = 0.9;
  /// Trip (divergence) when the residual exceeds the best seen so far by
  /// this factor.
  double divergence_factor = 1e3;

  // --- monitor 4: budgets ---------------------------------------------
  /// Simulated-seconds budget for the whole solve; 0 = unlimited.
  /// Exceeding it throws Error(kDeadlineExceeded).
  double max_solve_seconds = 0.0;
  /// Total basis-vector budget; 0 = unlimited. Same error on overrun.
  std::int64_t max_iterations = 0;

  // --- ladder ---------------------------------------------------------
  /// When false, trips are logged but never acted on (report-only mode);
  /// progress-class trips then never raise kDeadlineExceeded either.
  bool escalate = true;

  /// Any monitor or budget armed. False (the default configuration) means
  /// the solvers take their pre-health code paths verbatim.
  bool any() const {
    return monitor_condition || monitor_residual_gap || monitor_stagnation ||
           max_solve_seconds > 0.0 || max_iterations > 0;
  }
};

/// One rung of the escalation ladder (kNone = ladder exhausted).
enum class EscalationStep {
  kNone,
  kForceReorth,    ///< BOrth+TSQR twice for every remaining block
  kShrinkS,        ///< halve the working s for the rest of the solve
  kRebuildShifts,  ///< fresh Newton shifts from the latest Hessenberg
  kSwitchTsqr,     ///< CholQR -> SVQR -> CAQR for the remainder
  kSwitchOrth,     ///< GMRES: CGS -> MGS per-iteration Orth
  kFallbackGmres,  ///< CA-GMRES: standard GMRES for the remaining budget
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
  kLadderExhausted,   ///< a trip found no applicable rung left
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

/// Which ladder rungs the hosting solver can perform (CA-GMRES: all but
/// kSwitchOrth; GMRES: kSwitchOrth only). The policy walks only these.
struct LadderCapabilities {
  bool force_reorth = false;
  bool shrink_s = false;
  bool rebuild_shifts = false;
  int tsqr_switches = 0;  ///< downshifts left in the TSQR chain
  bool switch_orth = false;
  bool fallback_gmres = false;
};

/// The deterministic rung sequence. next() yields rungs strictly in ladder
/// order, each at most the configured number of times, and kNone forever
/// once exhausted; there is no state besides the cursor, so identical trip
/// sequences walk identical ladders.
class EscalationPolicy {
 public:
  explicit EscalationPolicy(const LadderCapabilities& caps);

  EscalationStep next();
  bool exhausted() const { return cursor_ >= rungs_.size(); }

 private:
  std::vector<EscalationStep> rungs_;
  std::size_t cursor_ = 0;
};

/// Per-solve monitor engine. The hosting solver calls the check_* hooks at
/// its natural boundaries; each returns the trip kind (kNone = healthy) and
/// has already logged the trip. On a trip the solver calls escalate() with
/// an applicability predicate (is this rung still useful given my current
/// state?) and applies the returned action. All events are collected here
/// and moved into SolveStats at the end of the solve.
class SolveHealthMonitor {
 public:
  SolveHealthMonitor(sim::Machine& machine, const HealthOptions& opts,
                     const LadderCapabilities& caps, double t_start);

  /// Any monitor or budget armed (mirrors HealthOptions::any).
  bool armed() const { return opts_.any(); }
  const HealthOptions& options() const { return opts_; }

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

  /// Monitor 4; throws Error(kDeadlineExceeded) when a budget is exceeded.
  void check_budget(std::int64_t iterations, int restart);

  /// Walks the ladder to the first rung `applicable` accepts, logging the
  /// kEscalation (or kLadderExhausted) event. Returns kNone when no rung is
  /// left; the solver decides what exhaustion means for this cause.
  EscalationStep escalate(
      HealthEventKind cause, double value, int restart, int iteration,
      const std::function<bool(EscalationStep)>& applicable);

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
  EscalationPolicy policy_;
  double t_start_ = 0.0;

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
