// Matrix powers kernel execution (paper §IV-A, Fig. 4).
//
// MpkExecutor::apply generates steps new basis vectors from one starting
// column with a single halo exchange:
//   v_{c0+k} = (A - theta_k I) v_{c0+k-1}  (+ beta_k^2 v_{c0+k-2} for the
//   second member of a complex conjugate shift pair — Hoemmen §7.3.2's
//   real-arithmetic Newton basis).
// theta = 0 everywhere gives the monomial basis. MpkExecutor::spmv runs the
// plain one-hop distributed SpMV on an s=1 plan (the GMRES baseline).
//
// Every device is charged for its redundant ghost-zone rows, as on the
// paper's GPUs, but the host computes each row once whenever that is
// bitwise identical to the per-device evaluation (DESIGN.md §16).
#pragma once

#include <vector>

#include "mpk/plan.hpp"
#include "sim/machine.hpp"

namespace cagmres::mpk {

class MpkExecutor;
struct ShiftSeq;

namespace detail {
/// MpkExecutor::apply with the shared evaluation disabled: every device
/// recomputes its own ghost zone, as the paper's devices do. Same charges
/// (the exchange, then one fused kernel per step and device) and the same
/// fault handling (a hit on a step's kernel NaN-poisons its owned rows,
/// its boundary slots and v(:, c0+k)); apply() must match it bit for bit
/// (the reference the MPK tests compare against).
void apply_per_device(MpkExecutor& exec, sim::Machine& machine,
                      sim::DistMultiVec& v, int c0, int steps,
                      const ShiftSeq& shifts);
}  // namespace detail

/// Newton-basis shift sequence; null pointers mean the monomial basis.
/// re/im must hold at least `steps` entries; a complex conjugate pair
/// occupies two adjacent slots (im > 0 then im < 0) and must not straddle
/// an apply() boundary (core::prepare_block_shifts enforces this).
struct ShiftSeq {
  const double* re = nullptr;
  const double* im = nullptr;
};

/// Executes MPK invocations against a fixed plan, reusing its z-buffers.
class MpkExecutor {
 public:
  explicit MpkExecutor(const MpkPlan& plan);

  const MpkPlan& plan() const { return *plan_; }

  /// Generates v(:, c0+1 .. c0+steps) from v(:, c0). Requires
  /// steps <= plan.s and c0 + steps < v.cols(). Charges the exchange and
  /// one fused kernel per (step, device) — local SpMV, boundary rows, shift
  /// and basis store in a single launch (sim::charge_mpk_step) — to
  /// `machine` under phase "mpk".
  void apply(sim::Machine& machine, sim::DistMultiVec& v, int c0, int steps,
             ShiftSeq shifts = {}) {
    run(machine, v, c0, steps, shifts, /*shared=*/true);
  }

  /// y(:, ycol) := A x(:, xcol) with the standard one-hop halo exchange.
  /// Requires a plan built with s == 1. Charged under phase "spmv".
  void spmv(sim::Machine& machine, sim::DistMultiVec& v, int xcol, int ycol);

  /// Cross-multivector variant: y(:, ycol) := A x(:, xcol). The
  /// right-preconditioned solvers multiply from the stage() multivector
  /// that holds M^{-1} v into the basis.
  void spmv(sim::Machine& machine, const sim::DistMultiVec& x, int xcol,
            sim::DistMultiVec& y, int ycol);

  /// Lazily-allocated device-resident scratch multivector split like the
  /// plan (at least `cols` columns). The right-preconditioned solvers stage
  /// M^{-1} v here between the preconditioner apply and the SpMV, so they
  /// need no extra distributed state of their own.
  sim::DistMultiVec& stage(int cols);

 private:
  friend void detail::apply_per_device(MpkExecutor&, sim::Machine&,
                                       sim::DistMultiVec&, int, int,
                                       const ShiftSeq&);

  /// apply(): the exchange and the full per-device charge sequence, then
  /// the numerics — shared (each row once) when `shared` is set and the
  /// exactness conditions hold, else per-device with the recorded hits.
  void run(sim::Machine& machine, sim::DistMultiVec& v, int c0, int steps,
           ShiftSeq shifts, bool shared);
  /// Charges every step's fused kernel (sim::charge_mpk_step) in apply
  /// order without running it. Returns the fault latches consumed, one
  /// flag per (step, device), step-major.
  std::vector<unsigned char> charge_steps(sim::Machine& machine, int steps,
                                          ShiftSeq shifts);
  /// Shared evaluation: each device computes only its owned rows and
  /// refreshes its hop-1 ghosts from the owners' new column. Returns false
  /// (leaving z_ and v partly written) at the first non-finite value.
  bool shared_steps(sim::Machine& machine, sim::DistMultiVec& v, int c0,
                    int steps, ShiftSeq shifts);
  /// Per-device evaluation: every device recomputes its ghost zone from its
  /// own z-buffers, applying the poison of `hits` (one closure per device).
  void ghost_zone_steps(sim::Machine& machine, sim::DistMultiVec& v, int c0,
                        int steps, ShiftSeq shifts,
                        const std::vector<unsigned char>& hits);
  /// Rebuilds z-buffer slot 0 from v(:, c0) as an unfaulted, uncoded
  /// exchange leaves it.
  void assemble_start(const sim::DistMultiVec& v, int c0);

  /// Halo exchange of column c0 into z-buffer `slot` of every device:
  /// gather through the host, then hand each consumer only the senders it
  /// reads, behind per-buffer events.
  void exchange(sim::Machine& machine, const sim::DistMultiVec& v, int c0,
                int slot);

  /// Rebuilds the per-sender node split (send_local_bytes_ /
  /// send_cross_bytes_) if the machine's topology changed since the last
  /// exchange. No-op on a flat machine.
  void build_node_split(const sim::Machine& machine);

  const MpkPlan* plan_;
  sim::DistMultiVec stage_;  ///< see stage(); empty until first use
  // Triple-buffered working vectors per device (pair shifts read two back).
  std::vector<std::vector<std::vector<double>>> z_;
  std::vector<std::vector<double>> pack_buf_;
  // Distinct sending devices whose packed entries device d consumes, in
  // ascending order (derived once from ext_owner; drives the exchange).
  std::vector<std::vector<int>> ext_owners_;
  // Multi-node sender split (build_node_split): bytes of each sender's
  // packed rows read by same-node consumers (shipped d2h_node, peer tier)
  // vs off-node consumers (shipped d2h, which prices the network hop).
  // A row read from both sides counts in both — two honest messages.
  std::vector<double> send_local_bytes_;
  std::vector<double> send_cross_bytes_;
  int split_nodes_ = 0;  ///< topology key the split was built for
  int split_gpn_ = 0;
};

}  // namespace cagmres::mpk
