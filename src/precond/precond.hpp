// The preconditioner subsystem's public face: a parsed spec ("ilu"), and
// a PrecondHandle owning the per-device ILU(0) factors with the symbolic phase cached across numeric
// refreshes, restarts, and repartitions (a repartition rebuilds only the
// devices whose row ranges changed; unchanged ranges reuse their factor).
//
// The handle applies M^{-1} right-preconditioned: solvers iterate on
// A M^{-1} u = b, so the Arnoldi residual is the TRUE residual and x is
// recovered by one extra M^{-1} apply inside the solution update. The
// apply is block-local per device (no communication), charged through
// PerfModel as one sync-free kernel per triangular factor
// (precond/trisolve.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "precond/ilu.hpp"
#include "sim/machine.hpp"
#include "sparse/csr.hpp"

namespace cagmres::precond {

enum class PrecondKind {
  kNone,  ///< identity M (the unpreconditioned path, bit-for-bit)
  kIlu,   ///< device-local ILU(0)
};

/// Parsed preconditioner request.
struct PrecondSpec {
  PrecondKind kind = PrecondKind::kNone;

  bool armed() const { return kind != PrecondKind::kNone; }
  std::string to_string() const;
};

/// Parses "ilu" or "ilu:k=0" (kIlu) and "", "none", "off" or "0" (kNone).
/// Throws Error(kBadInput) on anything else; an "ilu:" spec with any other
/// option (the removed ILU(k) keys) gets a message naming that key.
PrecondSpec parse_precond_spec(const std::string& text);

/// Cumulative handle telemetry (never reset by rebuilds).
struct PrecondStats {
  int symbolic_builds = 0;   ///< ilu_symbolic runs (cache misses)
  int numeric_builds = 0;    ///< ilu_numeric runs
  int device_rebuilds = 0;   ///< devices refactored by rebuild()
  int device_reuses = 0;     ///< devices whose cached factor was reused
  std::int64_t applies = 0;  ///< M^{-1} applications
  int pivot_fallbacks = 0;   ///< tiny pivots replaced by 1 (active factors)
  std::int64_t fill_nnz = 0; ///< total factor nonzeros (active factors)
  int max_levels_l = 0;      ///< deepest L dependency chain, active factors
  int max_levels_u = 0;      ///< deepest U dependency chain, active factors
  double setup_seconds = 0.0;  ///< simulated seconds charged to setup
};

/// Owns the per-device factors for one prepared matrix. build() starts
/// from fresh matrix values (clears the factor cache); rebuild() keeps it,
/// so a repartition that leaves some devices' (row0, row1) ranges intact
/// reuses their factors untouched — the matrix values are unchanged by
/// repartitioning, only the block boundaries move.
class PrecondHandle {
 public:
  explicit PrecondHandle(PrecondSpec spec) : spec_(spec) {}

  const PrecondSpec& spec() const { return spec_; }
  bool armed() const { return spec_.armed(); }

  /// Factors every device block of `a` split at `offsets`. Charges the
  /// symbolic phase to the host and the numeric phase to each device
  /// under phase "precond_setup". Clears any previously cached factors.
  void build(sim::Machine& m, const sparse::CsrMatrix& a,
             const std::vector<int>& offsets);

  /// Re-targets the handle at a new device split of the SAME matrix
  /// (post-repartition): devices whose row range is unchanged reuse their
  /// cached factor; only changed ranges are refactored.
  void rebuild(sim::Machine& m, const sparse::CsrMatrix& a,
               const std::vector<int>& offsets);

  /// out[:, outcol] = M^{-1} in[:, incol], device-local sync-free
  /// trisolves under phase "precond". in and out may be the same
  /// multivector (and the same column). Both must match the build split.
  void apply(sim::Machine& m, const sim::DistMultiVec& in, int incol,
             sim::DistMultiVec& out, int outcol);

  /// True when the active factors cover exactly this device split (the
  /// solvers use this to build lazily once and skip on later restarts).
  /// Pure host inspection: charges nothing.
  bool matches(const std::vector<int>& offsets) const;

  const PrecondStats& stats() const { return stats_; }
  int n_devices() const { return static_cast<int>(active_.size()); }
  const DeviceFactor& factor(int d) const { return *active_[d]; }

 private:
  DeviceFactor* factor_for(sim::Machine& m, const sparse::CsrMatrix& a,
                           int row0, int row1, bool reuse_cache);
  void refresh_aggregate_stats();

  PrecondSpec spec_;
  /// Factors keyed by exact row range. Entries are never erased while the
  /// handle lives (device closures may still reference superseded factors
  /// until their streams drain).
  std::map<std::pair<int, int>, std::unique_ptr<DeviceFactor>> cache_;
  std::vector<DeviceFactor*> active_;  ///< per logical device
  PrecondStats stats_;
};

}  // namespace cagmres::precond
