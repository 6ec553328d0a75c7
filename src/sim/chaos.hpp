// Chaos campaign engine: randomized multi-fault schedules against the
// resilient solvers, with a machine-readable invariant oracle and
// delta-debugged minimal reproducers.
//
// From one campaign seed the runner deterministically generates N fault
// schedules — mixed kill/NaN/corrupt/stall one-shot events (time- and
// op-triggered, including cascading multi-device kills clustered tightly
// enough to land inside a previous kill's checkpoint-restart) plus
// continuous rates — and runs each over the configured host worker counts,
// alternating CA-GMRES and GMRES. Every run must end in
// one of the sanctioned states:
//   - converged, with a finite solution whose TRUE residual (checked
//     against the original, unprepared system) meets the tolerance;
//   - clean non-convergence (restart budget spent, solution finite);
//   - a clean typed Error (any code except kBadInput);
//   - a tripped simulated watchdog (Machine deadline -> kDeadlineExceeded).
// Additionally a same-seed replay (Machine::reset) must be bit-identical,
// and a zero-fault schedule must reproduce the unarmed baseline bytes for
// its configuration. Anything else is an invariant violation, and the
// violating schedule is auto-minimized (ddmin over events, then rate
// zeroing) to a minimal reproducer printable as a --faults spec string.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/solver_common.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"

namespace cagmres::sim {

/// Which solver a run drives (the campaign alternates by schedule index).
/// The kPrecond* variants run the same solvers right-preconditioned with a
/// fresh ILU(0) PrecondHandle per run (ChaosConfig::precond), so kills and
/// corrupt storms land inside preconditioner setup and the trisolve kernels
/// as well as the solver proper.
enum class ChaosSolver { kCaGmres, kGmres, kPrecondCaGmres, kPrecondGmres };
std::string to_string(ChaosSolver s);
/// Inverse of to_string, plus the short alias "ca".
/// Throws Error(kBadInput) on any other name.
ChaosSolver parse_chaos_solver(const std::string& name);

/// Sanctioned terminal states of one run (see file comment).
enum class ChaosOutcome { kConverged, kUnconverged, kCleanError, kWatchdog };
std::string to_string(ChaosOutcome o);

/// One generated fault schedule; representable as (and round-trippable
/// through) the --faults spec grammar of parse_fault_spec.
struct ChaosSchedule {
  std::uint64_t seed = 0x5eedULL;  ///< injector RNG seed
  double stall_us = 250.0;         ///< injected stall latency
  std::vector<FaultEvent> events;  ///< one-shot events, in schedule order
  FaultRates rates;                ///< continuous per-op probabilities

  /// True when the schedule would arm an injector (any event or rate).
  bool armed() const;
  /// Renders the schedule as a --faults spec string.
  std::string to_spec() const;
  /// Applies the schedule to an injector (seed, stall, events, rates).
  void arm(FaultInjector& fi) const;
  /// Parses a --faults spec string back into a schedule.
  static ChaosSchedule from_spec(const std::string& spec);
};

/// Result of one (schedule, solver, workers) run.
struct ChaosRunResult {
  ChaosOutcome outcome = ChaosOutcome::kConverged;
  std::string error_code;    ///< to_string(code) when outcome==kCleanError
  std::string violation;     ///< non-empty = the oracle failed (the reason)
  bool degraded = false;     ///< finished on the cpu_gmres floor
  int device_failures = 0;   ///< injected permanent kills observed
  double elapsed = 0.0;      ///< simulated seconds of the run
  double final_residual = 0.0;
  std::uint64_t fingerprint = 0;  ///< hash of x bytes + outcome + timing
  /// Per-tier interconnect traffic of the run: wire bytes actually moved
  /// and the pre-codec payload ("logical") bytes — equal unless a transfer
  /// codec was armed (CAGMRES_COMPRESS). Zero when the solver threw before
  /// returning stats.
  core::TierTraffic traffic;
};

/// One confirmed invariant violation.
struct ChaosViolation {
  int schedule_index = -1;
  ChaosSolver solver = ChaosSolver::kCaGmres;
  int workers = 0;
  std::string what;  ///< which invariant broke, and how
  std::string spec;  ///< the offending schedule as a --faults spec
};

/// Campaign configuration. The defaults match the faults_test scale: a
/// 24x24 convection-diffusion Laplacian over 4 simulated devices.
struct ChaosConfig {
  int n_devices = 4;
  /// Multi-node topology: n_nodes fault domains of n_devices/n_nodes
  /// devices each (must divide n_devices). When > 1, every machine the
  /// campaign builds gets Machine::set_topology and the generator mixes in
  /// node-scoped faults: atomic whole-node kills, inter-node link
  /// corruption/stall rates, and node-targeted corrupt storms.
  int n_nodes = 1;
  int nx = 24, ny = 24;        ///< grid of the generated test matrix
  /// Non-empty: use a paper-matrix analog from make_paper_matrix ("cant",
  /// "g3_circuit", "dielfilter", "nlpkkt") at `matrix_scale` instead of the
  /// nx x ny convection-diffusion Laplacian.
  std::string matrix;
  double matrix_scale = 1.0;
  int m = 30;                  ///< restart length
  int s = 6;                   ///< CA-GMRES block size
  double tol = 1e-6;
  int max_restarts = 400;
  /// Watchdog: deadline = deadline_factor x the slowest fault-free
  /// baseline, armed on every faulty run.
  double deadline_factor = 50.0;
  std::vector<int> worker_counts = {0, 2};
  /// Alternate CA-GMRES / GMRES by index (CA-GMRES only when off).
  bool both_solvers = true;
  /// Non-empty: a parse_precond_spec string ("ilu"); the alternation
  /// widens to a 4-cycle {ca, gmres, precond_ca, precond_gmres} (2-cycle
  /// {ca, precond_ca} when both_solvers is off), so the preconditioned
  /// drivers get their share of the schedules. Empty (the default) keeps
  /// the campaign byte-identical to the pre-preconditioner engine —
  /// schedule generation never consumes RNG for this knob.
  std::string precond;
  bool check_replay = true;    ///< rerun each config after Machine::reset
  /// Demo hook for exercising the minimizer on a healthy build: when >= 0,
  /// any run observing at least this many device kills is flagged as a
  /// violation (see tools/chaos --demo-bug-kills).
  int demo_bug_kills = -1;
};

/// Aggregate campaign outcome.
struct ChaosCampaignStats {
  int schedules = 0;
  int zero_fault = 0;  ///< schedules generated unarmed (baseline checks)
  int runs = 0;
  int converged = 0;
  int unconverged = 0;
  int clean_errors = 0;
  int watchdogs = 0;
  int degraded = 0;
  /// Summed per-tier traffic over every run (wire vs pre-codec payload
  /// bytes; see ChaosRunResult) so the driver can report the campaign's
  /// achieved compression ratios.
  core::TierTraffic traffic;
  std::vector<ChaosViolation> violations;
};

/// The campaign engine (see file comment). Deterministic end to end: the
/// campaign seed fixes every schedule, every run, and every fingerprint.
class ChaosRunner {
 public:
  explicit ChaosRunner(const ChaosConfig& cfg = {});
  ~ChaosRunner();
  ChaosRunner(const ChaosRunner&) = delete;
  ChaosRunner& operator=(const ChaosRunner&) = delete;

  const ChaosConfig& config() const;

  /// Deterministically generates schedule `index` of a campaign.
  ChaosSchedule generate(std::uint64_t campaign_seed, int index);

  /// Runs one schedule over every configured worker count with the
  /// index-selected solver, checking the full oracle (terminal state,
  /// replay bit-identity, zero-fault baseline match). Returns violations.
  std::vector<ChaosViolation> run_schedule(const ChaosSchedule& schedule,
                                           int index);
  /// Same, on a named solver (the one-schedule replay of tools/chaos
  /// --faults). The solver must be in the configuration's roster, whose
  /// baselines and watchdog deadline the oracle uses; throws
  /// Error(kBadInput) otherwise.
  std::vector<ChaosViolation> run_schedule(const ChaosSchedule& schedule,
                                           ChaosSolver solver);

  /// Generates and runs `n_schedules` schedules.
  ChaosCampaignStats run_campaign(
      std::uint64_t campaign_seed, int n_schedules,
      const std::function<void(int, const ChaosSchedule&,
                               const std::vector<ChaosViolation>&)>&
          progress = nullptr);

  /// One run of one configuration (no replay/baseline cross-checks beyond
  /// the run's own oracle).
  ChaosRunResult run_one(const ChaosSchedule& schedule, ChaosSolver solver,
                         int workers);

  /// True when run_schedule-style checks find any violation for `solver`.
  bool violates(const ChaosSchedule& schedule, ChaosSolver solver);

  /// Delta-debugs a violating schedule down to a minimal one that still
  /// satisfies `still_violates`: ddmin over the event list, then zeroing
  /// each continuous rate. Requires still_violates(schedule).
  ChaosSchedule minimize(
      const ChaosSchedule& schedule,
      const std::function<bool(const ChaosSchedule&)>& still_violates);

  /// minimize() against the standard oracle for one solver.
  ChaosSchedule minimize(const ChaosSchedule& schedule, ChaosSolver solver);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cagmres::sim
