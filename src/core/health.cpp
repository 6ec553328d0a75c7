#include "core/health.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "ortho/metrics.hpp"

namespace cagmres::core {

namespace {

/// Monitor 1: trip when max|r_ii|/min|r_ii| of a block's TSQR factor (a
/// lower bound on kappa of the generated block) exceeds this. ~eps^-1/2 is
/// where CholQR's O(eps kappa^2) orthogonality error reaches O(1).
constexpr double kKappaLimit = 1e7;
/// Monitor 1: trip when the sampled kappa of the *orthonormalized* block
/// exceeds this (an honest "the orthogonalizer failed" signal; ~1 when
/// healthy).
constexpr double kQKappaLimit = 1e3;
/// Monitor 2: trip when true/recurrence residual exceeds this (healthy
/// solves sit near 1).
constexpr double kResidualGapLimit = 10.0;
/// Monitor 3: sliding window, in restarts; a trip also mutes the progress
/// monitors for this many restarts after a ladder response.
constexpr int kStagnationWindow = 4;
/// Monitor 3: trip when the residual shrank by less than this factor over
/// the window (res_now > kStagnationReduction * res_window_ago).
constexpr double kStagnationReduction = 0.9;
/// Monitor 3: trip (divergence) when the residual exceeds the best seen so
/// far by this factor.
constexpr double kDivergenceFactor = 1e3;

}  // namespace

std::string to_string(EscalationStep step) {
  switch (step) {
    case EscalationStep::kNone:
      return "none";
    case EscalationStep::kForceReorth:
      return "force_reorth";
    case EscalationStep::kSwitchOrth:
      return "switch_orth";
  }
  return "?";
}

std::string to_string(HealthEventKind kind) {
  switch (kind) {
    case HealthEventKind::kNone:
      return "none";
    case HealthEventKind::kConditionTrip:
      return "condition";
    case HealthEventKind::kFalseConvergence:
      return "false_convergence";
    case HealthEventKind::kResidualGap:
      return "residual_gap";
    case HealthEventKind::kStagnation:
      return "stagnation";
    case HealthEventKind::kDivergence:
      return "divergence";
    case HealthEventKind::kEscalation:
      return "escalation";
    case HealthEventKind::kLadderExhausted:
      return "ladder_exhausted";
  }
  return "?";
}

SolveHealthMonitor::SolveHealthMonitor(sim::Machine& machine,
                                       const HealthOptions& opts)
    : m_(machine), opts_(opts) {
  CAGMRES_REQUIRE(opts.condition_sample_every >= 0, "bad sample cadence");
}

HealthEvent& SolveHealthMonitor::log(HealthEventKind kind, double value,
                                     int restart, int iteration,
                                     std::string detail) {
  HealthEvent e;
  e.kind = kind;
  e.time = m_.clock().elapsed();
  e.restart = restart;
  e.iteration = iteration;
  e.value = value;
  e.detail = std::move(detail);
  m_.trace_instant("health:" + to_string(kind), "health");
  events_.push_back(std::move(e));
  return events_.back();
}

HealthEventKind SolveHealthMonitor::check_block(const blas::DMat& r_block,
                                                const sim::DistMultiVec& v,
                                                int c0, int c1, int restart,
                                                int iteration) {
  if (!opts_.monitor_condition) return HealthEventKind::kNone;
  const std::int64_t block = blocks_seen_++;

  // Free estimate: the R diagonal of V = Q R bounds kappa(V) from below by
  // max|r_ii|/min|r_ii| (R inherits V's conditioning while Q stays ~1).
  double dmax = 0.0;
  double dmin = std::numeric_limits<double>::infinity();
  bool finite = true;
  const int k = std::min(r_block.rows(), r_block.cols());
  for (int i = 0; i < k; ++i) {
    const double d = std::abs(r_block(i, i));
    if (!std::isfinite(d)) finite = false;
    dmax = std::max(dmax, d);
    dmin = std::min(dmin, d);
  }
  const double est = (!finite || dmin <= 0.0)
                         ? std::numeric_limits<double>::infinity()
                         : dmax / dmin;

  // Charged sample on the cadence: kappa of the *orthonormalized* block —
  // an honest measurement of whether the orthogonalizer actually worked.
  double q_kappa = 0.0;
  const bool sampled = opts_.condition_sample_every > 0 &&
                       block % opts_.condition_sample_every == 0;
  if (sampled) q_kappa = ortho::condition_number_charged(m_, v, c0, c1);

  if (block < condition_mute_until_block_) return HealthEventKind::kNone;
  if (est > kKappaLimit) {
    std::ostringstream os;
    os << "R-diagonal kappa estimate " << est << " > " << kKappaLimit;
    log(HealthEventKind::kConditionTrip, est, restart, iteration, os.str());
    return HealthEventKind::kConditionTrip;
  }
  if (sampled && q_kappa > kQKappaLimit) {
    std::ostringstream os;
    os << "orthonormalized-block kappa " << q_kappa << " > " << kQKappaLimit;
    log(HealthEventKind::kConditionTrip, q_kappa, restart, iteration,
        os.str());
    return HealthEventKind::kConditionTrip;
  }
  return HealthEventKind::kNone;
}

HealthEventKind SolveHealthMonitor::check_residual_gap(
    double true_res, double recurrence_res, bool claimed_converged,
    bool still_unconverged, int restart, int iteration) {
  if (!opts_.monitor_residual_gap || recurrence_res < 0.0) {
    return HealthEventKind::kNone;
  }
  const double gap =
      true_res / std::max(recurrence_res, 1e-300 * (1.0 + true_res));
  gap_last_ = gap;
  gap_max_ = std::max(gap_max_, gap);
  if (restart < progress_mute_until_restart_) return HealthEventKind::kNone;

  if (claimed_converged && still_unconverged) {
    std::ostringstream os;
    os << "recurrence residual " << recurrence_res
       << " met the tolerance but the true residual is " << true_res
       << " (gap " << gap << "x)";
    log(HealthEventKind::kFalseConvergence, gap, restart, iteration,
        os.str());
    return HealthEventKind::kFalseConvergence;
  }
  if (gap > kResidualGapLimit) {
    std::ostringstream os;
    os << "true/recurrence residual gap " << gap << " > "
       << kResidualGapLimit;
    log(HealthEventKind::kResidualGap, gap, restart, iteration, os.str());
    return HealthEventKind::kResidualGap;
  }
  return HealthEventKind::kNone;
}

HealthEventKind SolveHealthMonitor::check_progress(double res, int restart,
                                                   int iteration) {
  if (!opts_.monitor_stagnation) return HealthEventKind::kNone;
  residuals_.push_back(res);
  if (!have_best_ || res < best_res_) {
    best_res_ = res;
    have_best_ = true;
  }
  if (restart < progress_mute_until_restart_) return HealthEventKind::kNone;

  if (best_res_ > 0.0 && res > kDivergenceFactor * best_res_) {
    std::ostringstream os;
    os << "residual " << res << " exceeds best-so-far " << best_res_
       << " by more than " << kDivergenceFactor << "x";
    log(HealthEventKind::kDivergence, res / best_res_, restart, iteration,
        os.str());
    return HealthEventKind::kDivergence;
  }
  const std::size_t w = static_cast<std::size_t>(kStagnationWindow);
  if (residuals_.size() > w) {
    const double old = residuals_[residuals_.size() - 1 - w];
    if (res > kStagnationReduction * old) {
      std::ostringstream os;
      os << "residual shrank only " << (old > 0.0 ? res / old : 1.0)
         << "x over the last " << kStagnationWindow << " restarts";
      log(HealthEventKind::kStagnation, old > 0.0 ? res / old : 1.0, restart,
          iteration, os.str());
      return HealthEventKind::kStagnation;
    }
  }
  return HealthEventKind::kNone;
}

void SolveHealthMonitor::escalate(HealthEventKind cause, double value,
                                  int restart, int iteration,
                                  EscalationStep action) {
  // Give whatever the solver just changed a window to show progress before
  // the watchdogs may trip again; condition trips get one sampling period.
  progress_mute_until_restart_ = restart + kStagnationWindow;
  condition_mute_until_block_ =
      blocks_seen_ + std::max(1, opts_.condition_sample_every);
  if (action == EscalationStep::kNone) {
    log(HealthEventKind::kLadderExhausted, value, restart, iteration,
        "no applicable rung left for " + to_string(cause) + " trip");
    return;
  }
  HealthEvent& e = log(HealthEventKind::kEscalation, value, restart,
                       iteration, "ladder response to " + to_string(cause));
  e.action = action;
  m_.trace_instant("health:escalate:" + to_string(action), "health");
}

}  // namespace cagmres::core
