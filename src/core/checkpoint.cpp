#include "core/checkpoint.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cagmres::core {

namespace {

bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// Nested-recovery budget, per fault domain: how many consecutive recovery
/// rounds (a device retirement, checkpoint restore or block replay
/// re-entered by a fresh fault before a clean restart completed) a solve
/// may take before it degrades to the host floor. Each round charges
/// `kRecoveryBackoffS * kRecoveryBackoffMult^round` of host time, so a
/// fault storm drains the budget in bounded simulated time instead of
/// livelocking inside recovery.
constexpr int kMaxRecoveryRounds = 16;
constexpr double kRecoveryBackoffS = 100e-6;  ///< first inter-round backoff
constexpr double kRecoveryBackoffMult = 2.0;  ///< growth per round

}  // namespace

namespace detail {

std::vector<double> checkpoint_x(sim::Machine& m,
                                 const sim::DistMultiVec& xwork) {
  m.sync();  // wall-clock only: the host reads xwork below
  std::vector<double> x;
  x.reserve(static_cast<std::size_t>(xwork.total_rows()));
  for (int d = 0; d < m.n_devices(); ++d) {
    const int rows = xwork.local_rows(d);
    m.d2h(d, 8.0 * rows);
    const double* p = xwork.col(d, 0);
    x.insert(x.end(), p, p + rows);
  }
  m.host_wait_all();
  return x;
}

void restore_x(sim::Machine& m, sim::DistMultiVec& xwork,
               const std::vector<double>& x) {
  CAGMRES_REQUIRE(static_cast<int>(x.size()) == xwork.total_rows(),
                  "checkpoint size mismatch");
  m.sync();  // wall-clock only: the host writes xwork below
  std::size_t at = 0;
  for (int d = 0; d < m.n_devices(); ++d) {
    const int rows = xwork.local_rows(d);
    m.h2d(d, 8.0 * rows);
    double* p = xwork.col(d, 0);
    for (int i = 0; i < rows; ++i) p[static_cast<std::size_t>(i)] = x[at++];
  }
  m.host_wait_all();
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Checkpointer

Checkpointer::Checkpointer(sim::Machine& m, bool resilient)
    : m_(m), hier_(resilient && m.topology().n_nodes > 1) {
  const auto nn = static_cast<std::size_t>(m.topology().n_nodes);
  mirror_.resize(nn);
  mirror_ok_.assign(nn, 0);
  shard_bytes_.assign(nn, 0.0);
}

void Checkpointer::init_zero(int n) {
  x_.assign(static_cast<std::size_t>(n), 0.0);
  x_zero_ = true;
}

void Checkpointer::save(sim::DistMultiVec& xwork, bool x_is_zero) {
  if (!hier_) {
    x_ = detail::checkpoint_x(m_, xwork);
    x_zero_ = x_is_zero;
    return;
  }
  // Rung 1: every device parks its shard in its own node's host memory over
  // the intra-node link. Same data motion as the flat path, cheaper rate.
  // Stage into locals and commit only after every transfer lands: d2h_node
  // can throw mid-loop under injected transfer faults, and a half-built
  // checkpoint must never clobber the last good one.
  m_.sync();  // wall-clock only: the host reads xwork below
  std::vector<double> staged;
  staged.reserve(static_cast<std::size_t>(xwork.total_rows()));
  std::vector<double> staged_bytes(shard_bytes_.size(), 0.0);
  for (int d = 0; d < m_.n_devices(); ++d) {
    const int rows = xwork.local_rows(d);
    m_.d2h_node(d, 8.0 * rows);
    staged_bytes[static_cast<std::size_t>(m_.node_of(d))] += 8.0 * rows;
    const double* p = xwork.col(d, 0);
    staged.insert(staged.end(), p, p + rows);
  }
  m_.host_wait_all();
  x_ = std::move(staged);
  shard_bytes_ = std::move(staged_bytes);
  x_zero_ = x_is_zero;
  arm_mirrors();
}

void Checkpointer::arm_mirrors() {
  // Rung 2: each populated node's shard goes out to its partner node over
  // the inter-node link as NIC DMA from node-host memory — no device stream
  // is occupied, so the cost is a readiness Event a restore may have to
  // wait on, plus the network byte/message counters.
  const int nn = m_.topology().n_nodes;
  std::fill(mirror_ok_.begin(), mirror_ok_.end(), 0);
  for (int k = 0; k < nn; ++k) {
    sim::Event latest;
    bool populated = false;
    for (int d = 0; d < m_.n_devices(); ++d) {
      if (m_.node_of(d) != k) continue;
      const sim::Event e = m_.record_event(d);  // pure: no charge, no fault
      if (!populated || e.t > latest.t) latest = e;
      populated = true;
    }
    if (!populated) continue;
    const double bytes = shard_bytes_[static_cast<std::size_t>(k)];
    // One coalesced message per node, queued on the shared NIC behind any
    // in-flight cross-node traffic (Machine::nic_dma owns the counters).
    latest.t = m_.nic_dma(bytes, latest.t);
    mirror_[static_cast<std::size_t>(k)] = latest;
    mirror_ok_[static_cast<std::size_t>(k)] = 1;
  }
}

void Checkpointer::scatter(sim::DistMultiVec& xwork) const {
  std::size_t at = 0;
  for (int d = 0; d < m_.n_devices(); ++d) {
    const int rows = xwork.local_rows(d);
    double* p = xwork.col(d, 0);
    for (int i = 0; i < rows; ++i) {
      p[static_cast<std::size_t>(i)] = x_[at++];
    }
  }
}

void Checkpointer::rollback(sim::DistMultiVec& xwork) {
  if (!hier_) {
    detail::restore_x(m_, xwork, x_);
    return;
  }
  // NaN scrub / tainted cycle: the partition is unchanged, so every shard
  // is already in its own node's host memory — node-local refill only.
  sim::UnwindDrainGuard unwind_guard(m_);  // caller may have work in flight
  CAGMRES_REQUIRE(static_cast<int>(x_.size()) == xwork.total_rows(),
                  "checkpoint size mismatch");
  m_.sync();  // wall-clock only: the host writes xwork below
  for (int d = 0; d < m_.n_devices(); ++d) {
    m_.h2d_node(d, 8.0 * xwork.local_rows(d));
  }
  scatter(xwork);
  m_.host_wait_all();
}

void Checkpointer::restore_after_repartition(
    sim::DistMultiVec& xwork, const std::vector<int>& lost_nodes) {
  if (!hier_) {
    detail::restore_x(m_, xwork, x_);
    return;
  }
  sim::UnwindDrainGuard unwind_guard(m_);  // caller may have work in flight
  CAGMRES_REQUIRE(static_cast<int>(x_.size()) == xwork.total_rows(),
                  "checkpoint size mismatch");
  const int nn = m_.topology().n_nodes;
  // Rung 4 check: every lost node needs a live partner holding a valid
  // mirror. A correlated double-node loss that took a partner out falls all
  // the way back to the flat host-checkpoint restore.
  for (int k : lost_nodes) {
    const int partner = (k + 1) % nn;
    bool partner_alive = false;
    for (int d = 0; d < m_.n_devices() && !partner_alive; ++d) {
      partner_alive = m_.node_of(d) == partner;
    }
    if (!partner_alive || !mirror_ok_[static_cast<std::size_t>(k)]) {
      detail::restore_x(m_, xwork, x_);
      return;
    }
  }
  // Rung 3: fetch each lost shard from its partner's mirror copy. The host
  // first waits out the asynchronous mirror (free when the NIC DMA already
  // completed), then the partner ships the shard up — one inter-node
  // message instead of re-sending the whole iterate from the host.
  for (int k : lost_nodes) {
    const int partner = (k + 1) % nn;
    m_.host_wait_event(mirror_[static_cast<std::size_t>(k)]);
    int lead = -1;
    for (int d = 0; d < m_.n_devices(); ++d) {
      if (m_.node_of(d) == partner) {
        lead = d;
        break;
      }
    }
    m_.d2h(lead, shard_bytes_[static_cast<std::size_t>(k)]);
    m_.host_wait(lead);
    ++partner_restores_;
  }
  // Survivors refill node-locally (their shards never left the node).
  m_.sync();  // wall-clock only: the host writes xwork below
  for (int d = 0; d < m_.n_devices(); ++d) {
    m_.h2d_node(d, 8.0 * xwork.local_rows(d));
  }
  scatter(xwork);
  m_.host_wait_all();
}

// ---------------------------------------------------------------------------
// RecoveryDomains

RecoveryDomains::RecoveryDomains(sim::Machine& m, bool resilient)
    : m_(m), resilient_(resilient) {
  const auto nn =
      static_cast<std::size_t>(std::max(1, m.topology().n_nodes));
  rounds_.assign(nn, 0);
  backoff_.assign(nn, kRecoveryBackoffS);
}

void RecoveryDomains::on_restart_completed() {
  std::fill(rounds_.begin(), rounds_.end(), 0);
  std::fill(backoff_.begin(), backoff_.end(), kRecoveryBackoffS);
}

bool RecoveryDomains::handle(const Error& e, RecoveryStats& rs) {
  // Only injected hardware faults are recoverable; anything else
  // propagates. (Called inside the solver's catch block, so a bare throw
  // rethrows the active exception.)
  if (!resilient_ || (e.code() != ErrorCode::kDeviceFault &&
                      e.code() != ErrorCode::kRetriesExhausted) ||
      e.device() < 0) {
    throw;
  }
  // Survey the damage: a correlated node kill marks the whole domain dead
  // in the injector but throws from one victim's poll. kRetriesExhausted
  // does not mark the injector, so the thrower is unioned in explicitly.
  // On a flat machine this set is always exactly {e.device()}.
  std::vector<int> dead = m_.dead_logical_devices();
  if (!contains(dead, e.device())) {
    dead.push_back(e.device());
    std::sort(dead.begin(), dead.end());
  }
  // Fully-dead domains, surveyed in LOGICAL space so nodes already emptied
  // by earlier retirements don't reappear as fresh losses.
  lost_nodes_.clear();
  const int nn = m_.topology().n_nodes;
  if (nn > 1) {
    std::vector<int> alive(static_cast<std::size_t>(nn), 0);
    std::vector<int> total(static_cast<std::size_t>(nn), 0);
    for (int d = 0; d < m_.n_devices(); ++d) {
      const auto k = static_cast<std::size_t>(m_.node_of(d));
      ++total[k];
      if (!contains(dead, d)) ++alive[k];
    }
    for (int k = 0; k < nn; ++k) {
      if (total[static_cast<std::size_t>(k)] > 0 &&
          alive[static_cast<std::size_t>(k)] == 0) {
        lost_nodes_.push_back(k);
      }
    }
  }
  const auto domain = static_cast<std::size_t>(
      nn > 1 ? m_.node_of(e.device()) : 0);
  const int survivors = m_.n_devices() - static_cast<int>(dead.size());
  if (rounds_[domain] >= kMaxRecoveryRounds) {
    degrade_reason_ = "nested recovery budget exhausted (" +
                      std::to_string(kMaxRecoveryRounds) + " rounds)";
    return true;
  }
  if (survivors == 0) {
    degrade_reason_ = "device floor reached (no device survives)";
    return true;
  }
  ++rounds_[domain];
  m_.clock().host_advance(backoff_[domain]);
  rs.time_lost += backoff_[domain];
  backoff_[domain] *= kRecoveryBackoffMult;
  // Retire descending so logical relabelling never shifts a not-yet-retired
  // dead device out from under the loop.
  for (auto it = dead.rbegin(); it != dead.rend(); ++it) {
    m_.retire_device(*it);
  }
  return false;
}

}  // namespace cagmres::core
