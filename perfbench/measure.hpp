// Measurement pieces of the time-to-solution benchmark besides the solve
// loop itself: the machine-drift probe and the traced layer replay.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// Named metric values in report order.
using MetricList = std::vector<std::pair<std::string, double>>;

/// Machine-speed probe, reported next to every run but never gated: STREAM
/// triad over three arrays that together span at least 4x the LLC, and
/// blas::gemm at one fixed square shape. Both are medians of repeats.
MetricList run_host_probe(double llc_bytes);

/// One timed call into a layer, recorded from outside the library.
struct Span {
  int id = 0;
  int parent = -1;  ///< enclosing span id (-1: root)
  std::string name;
  double t0 = 0.0;
  double t1 = 0.0;
  double count = 0.0;  ///< work the call did (steps, columns, flops, ...)
};

/// In-memory span log; written out once, when the run ends.
class SpanLog {
 public:
  /// Opens a span under the innermost open one; returns its id.
  int open(const std::string& name, double count = 0.0);
  /// Closes span `id`; returns its duration in seconds.
  double close(int id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes the spans as a JSON array to `path` (false on I/O failure).
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// What the solve reported, used to scale the replay's per-call times.
struct SolveCounts {
  double wall_s = 0.0;  ///< wall seconds of an untraced solve
  int iterations = 0;
  int restarts = 0;
  int repartitions = 0;
  std::int64_t ca_steps = 0;  ///< sum of CA block sizes
  int reorth_blocks = 0;
  std::int64_t precond_applies = 0;
  /// Share of a surviving device's "spmv"- and "mpk"-phase SpMV kernels
  /// the solve charged after its first device kill (0 without one): how
  /// much of the standard and of the CA work ran on the shrunk machine.
  double spmv_share_after = 0.0;
  double mpk_share_after = 0.0;
};

/// Wall seconds of one replayed restart cycle on one machine shape.
struct ShapeTimes {
  double plan = 0.0;     ///< build_mpk_plan, s = 1 and (CA) s = w.s
  double arnoldi = 0.0;  ///< one standard cycle of w.m iterations
  double spmv = 0.0;     ///< w.m single-hop SpMVs
  double pc = 0.0;       ///< w.m preconditioner applies
  // One CA cycle, summed over its blocks.
  double apply = 0.0, borth = 0.0, tsqr = 0.0;
  double spmv_floor = 0.0, gemm_floor = 0.0, borth_flops = 0.0;
  double steps = 0.0;
  int blocks = 0;
};

/// One replay pass over the layers' public entry points.
struct ReplayPass {
  double partition = 0.0;  ///< graph::make_partition
  ShapeTimes initial;      ///< the shape the solve started on
  ShapeTimes shrunk;       ///< the shape it finished on (== initial if none)
};

/// Replays one standard and (CA workloads) one CA restart cycle through the
/// layers' public entry points (mpk, ortho, precond, core), alongside raw
/// sparse::spmv and blas::gemm floors, each shape after a warmup cycle. It
/// runs on a fault-free machine of the workload's shape and, when the solve
/// ended on fewer devices (`survivors`: their physical ids), again with the
/// other devices retired and the problem re-split by
/// core::repartition_problem, as the solver's recovery does. Every call is
/// recorded in `log`.
ReplayPass replay_pass(const Workload& w, const Prepared& p,
                       const sparse::CsrMatrix& a,
                       const std::vector<int>& survivors, SpanLog& log);

/// Scales one pass's per-call times by the solve's call counts, weighting
/// the two shapes by the work the solve ran on each. Returns the per-layer
/// metrics: wall seconds per solve, floor ratios, and the share of
/// `counts.wall_s` they account for.
MetricList layer_metrics(const Workload& w, const ReplayPass& pass,
                         const SolveCounts& counts);

}  // namespace perfbench
