// Shared solver types: options, statistics, and problem preparation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/health.hpp"
#include "graph/partition.hpp"
#include "ortho/borth.hpp"
#include "ortho/metrics.hpp"
#include "ortho/tsqr.hpp"
#include "sparse/balance.hpp"
#include "sparse/csr.hpp"

namespace cagmres::precond {
class PrecondHandle;
}  // namespace cagmres::precond

namespace cagmres::core {

/// Krylov basis generated by MPK.
enum class Basis { kMonomial, kNewton };

Basis parse_basis(const std::string& name);
std::string to_string(Basis b);

/// Solver configuration shared by GMRES and CA-GMRES.
struct SolverOptions {
  int m = 60;            ///< restart length (paper sweeps 30..180)
  int s = 10;            ///< CA-GMRES block size (ignored by GMRES)
  int max_restarts = 1000;
  double tol = 1e-4;     ///< relative residual reduction target (paper: 1e-4)

  /// GMRES: per-iteration Orth procedure (MGS or CGS).
  ortho::Method gmres_orth = ortho::Method::kCgs;

  /// CA-GMRES: TSQR procedure for the new block.
  ortho::Method tsqr = ortho::Method::kCholQr;
  /// CA-GMRES: BOrth projection against the previous basis.
  ortho::BorthMethod borth = ortho::BorthMethod::kCgs;
  /// CA-GMRES: always run BOrth+TSQR twice ("2x" in the paper's tables).
  /// A block whose CholQR broke down is reorthogonalized regardless.
  bool reorthogonalize = false;
  /// CA-GMRES basis; Newton needs one plain GMRES restart to harvest shifts.
  Basis basis = Basis::kNewton;
  /// CA-GMRES: generate blocks with MPK; if false, fall back to s plain
  /// SpMVs per block (the paper's Fig. 15 does this when SpMV beats MPK).
  bool use_mpk = true;

  ortho::TsqrOptions tsqr_opts = {};

  /// CA-GMRES: record the Fig. 13 error norms (orthogonality,
  /// factorization, element-wise) of every TSQR call into
  /// SolveStats::tsqr_errors. Costs an extra copy of each block; off by
  /// default.
  bool collect_tsqr_errors = false;

  /// Numerical health monitors + escalation ladder (core/health.hpp). All
  /// monitors default to off, which keeps the solvers byte-identical to
  /// their pre-health behavior.
  HealthOptions health = {};

  /// Right preconditioner: a precond::PrecondHandle (non-owning; the
  /// caller keeps it alive across the solve and points this at it only
  /// when its spec is armed). The solvers iterate on A M^{-1} u = b,
  /// so residuals and x stay in the true (unpreconditioned) space, and
  /// they rebuild the handle's affected device factors after a
  /// repartition. nullptr (the default) is the unpreconditioned path,
  /// byte-identical to the pre-precond solvers.
  precond::PrecondHandle* precond = nullptr;
};

/// One instrumented TSQR call (paper Fig. 13).
struct TsqrErrorSample {
  int restart = 0;
  int pass = 0;  ///< 0 = first orthogonalization, 1 = reorthogonalization
  double kappa_block = 0.0;  ///< condition number of the block before TSQR
  ortho::OrthoErrors errors;
};

/// What resilience cost this solve (all zero on a fault-free run). Counts
/// injections seen by THIS solve plus the recovery work they triggered, in
/// the same simulated-seconds currency as the phase times.
struct RecoveryStats {
  std::int64_t faults_injected = 0;     ///< total injections during the solve
  int device_failures = 0;              ///< permanent device losses survived
  int node_failures = 0;                ///< correlated whole-node losses
  std::int64_t kernel_faults = 0;       ///< NaN-poisoned kernels injected
  std::int64_t transfer_corruptions = 0;
  std::int64_t transfer_stalls = 0;
  std::int64_t transfer_retries = 0;    ///< retransmissions charged
  int blocks_replayed = 0;   ///< blocks/steps re-run by the health scrub
  int rollbacks = 0;         ///< cycles rolled back to the restart checkpoint
  int repartitions = 0;      ///< problem re-splits after a device loss
  int partner_restores = 0;  ///< node shards restored from the buddy copy
  double time_lost = 0.0;    ///< sim seconds spent on recovery (retries,
                             ///< stalls, replays, repartitioning)

  bool any() const {
    return faults_injected != 0 || blocks_replayed != 0 || rollbacks != 0 ||
           repartitions != 0;
  }
};

/// Interconnect traffic one solve pushed over each tier of the machine
/// (sim/machine.hpp Topology): peer = intra-node device links, pcie = the
/// host link (d2h + h2d through a node host or the coordinating host), net
/// = the inter-node network hop charged on top of pcie for cross-node
/// messages. Counter-snapshot deltas over the solve, so concurrent charges
/// outside it (none today) would not leak in.
struct TierTraffic {
  double peer_bytes = 0.0;
  std::int64_t peer_msgs = 0;
  double pcie_bytes = 0.0;
  std::int64_t pcie_msgs = 0;
  double net_bytes = 0.0;
  std::int64_t net_msgs = 0;
  /// Pre-codec payload sizes (== the *_bytes wire totals when no transfer
  /// codec was armed; see sim/codec.hpp). logical/wire is the achieved
  /// compression ratio per tier.
  double peer_logical_bytes = 0.0;
  double pcie_logical_bytes = 0.0;
  double net_logical_bytes = 0.0;

  /// Achieved compression ratio of one tier (1.0 when uncompressed or idle).
  static double ratio(double logical, double wire) {
    return (wire > 0.0 && logical > 0.0) ? logical / wire : 1.0;
  }
  double peer_ratio() const { return ratio(peer_logical_bytes, peer_bytes); }
  double pcie_ratio() const { return ratio(pcie_logical_bytes, pcie_bytes); }
  double net_ratio() const { return ratio(net_logical_bytes, net_bytes); }
  /// True when any tier moved fewer wire bytes than payload bytes.
  bool compressed() const {
    return peer_logical_bytes > peer_bytes || pcie_logical_bytes > pcie_bytes ||
           net_logical_bytes > net_bytes;
  }
  /// Tier-by-tier sum (campaign totals over many solves).
  TierTraffic& operator+=(const TierTraffic& o);
};

/// Tier traffic recorded between two Machine counter snapshots.
TierTraffic tier_traffic(const sim::Counters& before,
                         const sim::Counters& after);

/// Emits the tier deltas since `before` as one host-row trace instant
/// ("traffic:peer=...:pcie=...:net=...", bytes/msgs per tier) so a
/// trace_solve timeline shows where communication went. No-op unless the
/// machine is tracing.
void trace_tier_traffic(sim::Machine& machine, const sim::Counters& before);

/// Record of a graceful degradation to the host-only solver (the floor the
/// resilient solvers land on, only when fault injection is armed, once no
/// device survives, the nested recovery budget runs out, or the last
/// survivor keeps faulting; they then finish on the host-only cpu_gmres
/// core from the latest checkpoint instead of failing). Inactive (all
/// defaults) on normal solves.
struct DegradedRecord {
  bool active = false;
  int devices_at_handoff = 0;  ///< survivors when the solver gave up on them
  double at_time = 0.0;        ///< simulated seconds at the hand-off
  std::string reason;          ///< e.g. "nested recovery budget exhausted"

  explicit operator bool() const { return active; }
};

/// Per-solve telemetry. Times are simulated seconds from the Machine clock.
struct SolveStats {
  bool converged = false;
  int restarts = 0;      ///< restart loops executed
  int iterations = 0;    ///< basis vectors generated (excl. the initial one)
  double initial_residual = 0.0;
  double final_residual = 0.0;

  double time_total = 0.0;
  double time_spmv = 0.0;   ///< standard SpMV time (incl. halo exchange)
  double time_mpk = 0.0;    ///< matrix powers kernel time
  double time_orth = 0.0;   ///< GMRES per-iteration Orth
  double time_borth = 0.0;  ///< CA-GMRES block projection
  double time_tsqr = 0.0;   ///< CA-GMRES in-block factorization
  double time_other = 0.0;  ///< least squares, bookkeeping, residual checks
  /// Preconditioner time: M^{-1} applies ("precond") plus factorization
  /// setup ("precond_setup"). 0 when no preconditioner is armed.
  double time_precond = 0.0;

  int cholqr_breakdowns = 0;
  int reorth_blocks = 0;
  std::vector<double> residual_history;  ///< true residual after each restart
  std::vector<TsqrErrorSample> tsqr_errors;  ///< when collect_tsqr_errors
  std::vector<int> block_sizes;  ///< CA-GMRES: steps of every block run

  RecoveryStats recovery;  ///< fault-injection and self-healing log
  DegradedRecord degraded;  ///< set when the solve finished on the CPU floor
  TierTraffic traffic;      ///< interconnect bytes/msgs moved by this solve

  // --- numerical-health telemetry (empty/zero when no monitor armed) ---
  /// Every monitor trip and escalation-ladder action, in order.
  std::vector<HealthEvent> health_events;
  /// Escalation actions actually applied (the ladder steps taken).
  int ladder_steps = 0;
  /// The last cycle's recurrence (least-squares) residual estimate.
  double recurrence_residual = -1.0;
  /// Last and largest true/recurrence residual ratio the false-convergence
  /// guard measured (1 is perfect agreement; >> 1 means the Arnoldi
  /// recurrence drifted and "converged" claims are not trustworthy).
  double residual_gap = 0.0;
  double residual_gap_max = 0.0;

  /// Combined orthogonalization time (paper's "Ortho" column).
  double time_ortho_total() const { return time_orth + time_borth + time_tsqr; }
};

/// Sets the per-phase time_* fields of `st` to the phase-timer deltas from
/// `before` to `after`; time_other is the rest of st.time_total.
void finalize_phase_times(SolveStats& st, const sim::PhaseTimers& before,
                          const sim::PhaseTimers& after);

/// Result of a solve in the caller's original row ordering/scaling.
struct SolveResult {
  std::vector<double> x;
  SolveStats stats;
};

/// A prepared distributed problem: the matrix permuted so device blocks are
/// contiguous, optionally balanced (paper §VI), plus everything needed to
/// map solutions back to the caller's space.
struct Problem {
  sparse::CsrMatrix a;                ///< permuted (+balanced) matrix
  std::vector<double> b;              ///< permuted (+row-scaled) rhs
  std::vector<int> perm;              ///< permuted row i = original perm[i]
  std::vector<int> offsets;           ///< device block offsets
  sparse::BalanceScaling scaling;     ///< identity when balancing disabled
  bool balanced = false;
  double b_norm = 0.0;                ///< ||b|| of the transformed system

  int n() const { return a.n_rows; }
  int n_devices() const { return static_cast<int>(offsets.size()) - 1; }
  std::vector<int> rows_per_device() const;
};

/// Prepares a problem: symmetric permutation per the partitioning scheme,
/// then (optionally) the paper's row/column balancing. For a multi-node
/// machine pass its node count as `n_nodes` so the KWY split is node-first
/// (see graph::make_partition) — the block list must line up with the
/// Topology device order for the saving to materialize.
Problem make_problem(const sparse::CsrMatrix& a, const std::vector<double>& b,
                     int n_devices, graph::Ordering ordering,
                     bool balance = true, std::uint64_t seed = 0,
                     int n_nodes = 1);

/// Re-splits an already-prepared problem over fewer devices (recovery after
/// a permanent device failure). The matrix is already permuted and balanced,
/// so only the block offsets change — a natural contiguous split of the
/// prepared row space — and any prepared-space vector (e.g. the checkpointed
/// solution) remains valid unchanged.
Problem repartition_problem(const Problem& p, int n_devices);

/// Maps a solution of the prepared (permuted, balanced) system back to the
/// original ordering and scaling.
std::vector<double> recover_solution(const Problem& p,
                                     const std::vector<double>& x_prepared);

/// Residual norm ||b - A x|| in the ORIGINAL system (exact check).
double true_residual(const sparse::CsrMatrix& a_orig,
                     const std::vector<double>& b_orig,
                     const std::vector<double>& x_orig);

}  // namespace cagmres::core
