#include "core/health.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "ortho/metrics.hpp"

namespace cagmres::core {

namespace {

/// Trip when the sampled kappa of the *orthonormalized* block exceeds this
/// (an honest "the orthogonalizer failed" signal; ~1 when healthy).
constexpr double kQKappaLimit = 1e3;

}  // namespace

std::string to_string(EscalationStep step) {
  switch (step) {
    case EscalationStep::kNone:
      return "none";
    case EscalationStep::kForceReorth:
      return "force_reorth";
    case EscalationStep::kShrinkS:
      return "shrink_s";
    case EscalationStep::kRebuildShifts:
      return "rebuild_shifts";
    case EscalationStep::kSwitchTsqr:
      return "switch_tsqr";
    case EscalationStep::kSwitchOrth:
      return "switch_orth";
    case EscalationStep::kFallbackGmres:
      return "fallback_gmres";
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

EscalationPolicy::EscalationPolicy(const LadderCapabilities& caps) {
  if (caps.force_reorth) rungs_.push_back(EscalationStep::kForceReorth);
  if (caps.shrink_s) rungs_.push_back(EscalationStep::kShrinkS);
  if (caps.rebuild_shifts) rungs_.push_back(EscalationStep::kRebuildShifts);
  for (int i = 0; i < caps.tsqr_switches; ++i) {
    rungs_.push_back(EscalationStep::kSwitchTsqr);
  }
  if (caps.switch_orth) rungs_.push_back(EscalationStep::kSwitchOrth);
  if (caps.fallback_gmres) rungs_.push_back(EscalationStep::kFallbackGmres);
}

EscalationStep EscalationPolicy::next() {
  if (cursor_ >= rungs_.size()) return EscalationStep::kNone;
  return rungs_[cursor_++];
}

SolveHealthMonitor::SolveHealthMonitor(sim::Machine& machine,
                                       const HealthOptions& opts,
                                       const LadderCapabilities& caps,
                                       double t_start)
    : m_(machine), opts_(opts), policy_(caps), t_start_(t_start) {
  CAGMRES_REQUIRE(opts.stagnation_window >= 1, "bad stagnation window");
  CAGMRES_REQUIRE(opts.kappa_limit > 0.0, "condition limit must be positive");
  CAGMRES_REQUIRE(opts.residual_gap_limit > 1.0,
                  "residual gap limit must exceed 1");
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
  if (est > opts_.kappa_limit) {
    std::ostringstream os;
    os << "R-diagonal kappa estimate " << est << " > " << opts_.kappa_limit;
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
  if (gap > opts_.residual_gap_limit) {
    std::ostringstream os;
    os << "true/recurrence residual gap " << gap << " > "
       << opts_.residual_gap_limit;
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

  if (best_res_ > 0.0 && res > opts_.divergence_factor * best_res_) {
    std::ostringstream os;
    os << "residual " << res << " exceeds best-so-far " << best_res_
       << " by more than " << opts_.divergence_factor << "x";
    log(HealthEventKind::kDivergence, res / best_res_, restart, iteration,
        os.str());
    return HealthEventKind::kDivergence;
  }
  const std::size_t w = static_cast<std::size_t>(opts_.stagnation_window);
  if (residuals_.size() > w) {
    const double old = residuals_[residuals_.size() - 1 - w];
    if (res > opts_.stagnation_reduction * old) {
      std::ostringstream os;
      os << "residual shrank only " << (old > 0.0 ? res / old : 1.0)
         << "x over the last " << opts_.stagnation_window << " restarts";
      log(HealthEventKind::kStagnation, old > 0.0 ? res / old : 1.0, restart,
          iteration, os.str());
      return HealthEventKind::kStagnation;
    }
  }
  return HealthEventKind::kNone;
}

void SolveHealthMonitor::check_budget(std::int64_t iterations, int restart) {
  // On either budget throw, drain before unwinding the solver frame: host
  // workers may still reference solver-local buffers the unwind destroys.
  sim::UnwindDrainGuard unwind_guard(m_);
  if (opts_.max_solve_seconds > 0.0) {
    const double spent = m_.clock().elapsed() - t_start_;
    if (spent > opts_.max_solve_seconds) {
      m_.trace_instant("health:deadline", "health");
      std::ostringstream os;
      os << "simulated-time budget exceeded: " << spent << "s > "
         << opts_.max_solve_seconds << "s at restart " << restart;
      throw Error(os.str(), ErrorCode::kDeadlineExceeded);
    }
  }
  if (opts_.max_iterations > 0 && iterations > opts_.max_iterations) {
    m_.trace_instant("health:deadline", "health");
    std::ostringstream os;
    os << "iteration budget exceeded: " << iterations << " > "
       << opts_.max_iterations << " basis vectors at restart " << restart;
    throw Error(os.str(), ErrorCode::kDeadlineExceeded);
  }
}

EscalationStep SolveHealthMonitor::escalate(
    HealthEventKind cause, double value, int restart, int iteration,
    const std::function<bool(EscalationStep)>& applicable) {
  EscalationStep step = policy_.next();
  // Burn rungs the solver's current state makes useless (e.g. shrink_s at
  // the floor, switch_tsqr already at CAQR): strictly in order, so the walk
  // stays deterministic.
  while (step != EscalationStep::kNone && !applicable(step)) {
    step = policy_.next();
  }
  // Give whatever we just changed a window to show progress before the
  // watchdogs may trip again; condition trips get one sampling period.
  progress_mute_until_restart_ = restart + opts_.stagnation_window;
  condition_mute_until_block_ =
      blocks_seen_ + std::max(1, opts_.condition_sample_every);
  if (step == EscalationStep::kNone) {
    log(HealthEventKind::kLadderExhausted, value, restart, iteration,
        "no applicable rung left for " + to_string(cause) + " trip");
    return step;
  }
  HealthEvent& e = log(HealthEventKind::kEscalation, value, restart,
                       iteration, "ladder response to " + to_string(cause));
  e.action = step;
  m_.trace_instant("health:escalate:" + to_string(step), "health");
  return step;
}

}  // namespace cagmres::core
