// Hierarchical (buddy) checkpointing and node-level fault domains.
//
// On a flat machine the resilient solvers checkpoint x to the coordinating
// host each restart and restore from there after any loss — the PR 1 path,
// kept bitwise-identical here. On a multi-node topology that host round
// trip pays PCIe + network per remote device, and a whole-node loss makes
// every survivor re-load over the slow link. The hierarchy splits the
// cost:
//
//   rung 1  intra-node checkpoint   each device saves its shard to its own
//                                   node's host memory over the NVLink-class
//                                   peer link (cheap; covers single-device
//                                   loss and NaN rollbacks);
//   rung 2  partner mirror          each node's shard is mirrored to a
//                                   partner node (k -> (k+1) mod N) over the
//                                   inter-node link, asynchronously: the
//                                   mirror is modelled as NIC DMA out of
//                                   node-host memory, so it occupies no
//                                   device stream — only a readiness Event
//                                   whose completion a restore may have to
//                                   wait on (record_event/host_wait_event);
//   rung 3  partner restore         a full node loss repartitions and pulls
//                                   the lost shard from its partner instead
//                                   of re-shipping everything from the
//                                   coordinating host;
//   rung 4  host checkpoint         the partner itself is gone (correlated
//                                   double-node loss): fall back to the
//                                   flat restore path;
//   rung 5  host_gmres floor        once no device survives, or once the
//                                   nested recovery budget runs out, the
//                                   solver degrades to the host-only
//                                   core.
//
// Every resilient solve on a machine with more than one node uses the
// hierarchy; flat machines checkpoint to the coordinating host.
//
// RecoveryDomains is the node-aware half of the solvers' fault handler: it
// surveys which devices a correlated fault actually killed (a node kill
// marks a whole domain dead but throws from one victim's poll), applies the
// per-domain nested-recovery budget, and retires every dead device. On a
// flat machine both classes reproduce the PR 6 behavior exactly.
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/solver_common.hpp"
#include "sim/machine.hpp"

namespace cagmres::core {

/// Checkpoint/restore of the distributed iterate x (see file comment).
/// Owns the host-side authoritative copy; on hierarchical machines it also
/// tracks the per-node mirror events and shard sizes.
class Checkpointer {
 public:
  Checkpointer(sim::Machine& m, bool resilient);

  /// True when the buddy hierarchy is active (resilient solve on a
  /// topology with more than one node).
  bool hierarchical() const { return hier_; }

  /// Installs the initial all-zero checkpoint of length n (resilient solves
  /// start from x = 0).
  void init_zero(int n);

  /// Captures xwork column 0 as the new checkpoint. Flat: identical to the
  /// PR 1 path (one d2h per device to the coordinating host). Hierarchical:
  /// node-local d2h over the peer link, then the asynchronous partner
  /// mirrors are (re)armed and their network traffic counted.
  void save(sim::DistMultiVec& xwork, bool x_is_zero);

  /// In-place rollback of xwork onto the *current* partition (NaN scrub /
  /// tainted-cycle path; no repartition happened). Flat: PR 1 restore_x.
  /// Hierarchical: node-local h2d — single-device loss and rollbacks never
  /// touch the network.
  void rollback(sim::DistMultiVec& xwork);

  /// Restore after repartition_problem() rebuilt the distributed state.
  /// `lost_nodes` names the fully-dead domains of the fault being recovered
  /// (from RecoveryDomains::lost_nodes()). Hierarchical restores pull each
  /// lost shard from its partner (waiting out an incomplete mirror) and
  /// scatter node-locally; if any lost node's partner is itself dead, the
  /// whole restore falls back to the flat host path.
  void restore_after_repartition(sim::DistMultiVec& xwork,
                                 const std::vector<int>& lost_nodes);

  /// The checkpointed iterate (prepared row order) and whether it is
  /// exactly zero — the degradation floor hands these to host_gmres.
  const std::vector<double>& x() const { return x_; }
  bool x_zero() const { return x_zero_; }

  /// Node shards restored from the partner copy (RecoveryStats).
  int partner_restores() const { return partner_restores_; }

 private:
  /// Re-arms the per-node partner mirrors after a save: one readiness event
  /// per populated node, timestamped at the node's latest device time plus
  /// one inter-node message of the shard's bytes (NIC-DMA model).
  void arm_mirrors();
  /// Writes x_ into xwork column 0 (host-side data motion; charges belong
  /// to the caller).
  void scatter(sim::DistMultiVec& xwork) const;

  sim::Machine& m_;
  bool hier_;
  std::vector<double> x_;
  bool x_zero_ = true;
  std::vector<sim::Event> mirror_;     ///< per-node mirror completion
  std::vector<char> mirror_ok_;        ///< mirror armed for this node
  std::vector<double> shard_bytes_;    ///< per-node checkpoint shard size
  int partner_restores_ = 0;
};

/// Node-aware fault classification + bounded recovery (see file comment).
/// One instance per solve; drives the catch handler both solvers share.
class RecoveryDomains {
 public:
  RecoveryDomains(sim::Machine& m, bool resilient);

  /// Handles an Error caught by the solver's restart loop. Must be called
  /// from inside the catch block (it rethrows the active exception for
  /// unrecoverable faults). Returns true when the solver must degrade to
  /// the host floor (reason in degrade_reason()): the victim domain's
  /// nested budget ran out or no device survived.
  /// Returns false when every dead device has been retired and the caller
  /// must rebuild. Charges the per-domain recovery backoff and accounts it
  /// in `rs`.
  bool handle(const Error& e, RecoveryStats& rs);

  /// Domains the handled fault finished off (every device dead), in the
  /// state *before* retirement — the checkpointer restores these from the
  /// partner copies.
  const std::vector<int>& lost_nodes() const { return lost_nodes_; }

  const std::string& degrade_reason() const { return degrade_reason_; }

  /// A completed restart proves the machine is healthy again: refills every
  /// domain's round budget and resets the backoffs.
  void on_restart_completed();

 private:
  sim::Machine& m_;
  bool resilient_;
  std::vector<int> rounds_;      ///< consecutive recovery rounds, per node
  std::vector<double> backoff_;  ///< next charged backoff, per node
  std::vector<int> lost_nodes_;
  std::string degrade_reason_;
};

namespace detail {

/// Charged checkpoint of the current solution (column 0 of xwork) to the
/// host, in prepared row order (device blocks are contiguous). Recovery-path
/// only: callers gate it on Machine::faults_armed().
std::vector<double> checkpoint_x(sim::Machine& machine,
                                 const sim::DistMultiVec& xwork);

/// Charged restore of a checkpoint into column 0 of xwork, split at xwork's
/// (possibly repartitioned) device blocks.
void restore_x(sim::Machine& machine, sim::DistMultiVec& xwork,
               const std::vector<double>& x);

}  // namespace detail

}  // namespace cagmres::core
