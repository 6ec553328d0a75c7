#include "mpk/exec.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "sim/device_blas.hpp"

namespace cagmres::mpk {

namespace {

/// Injected transient kernel fault on one of the executor's inline charged
/// kernels (a fused MPK step, the halo expand): NaN-poison the region that
/// kernel produced, mirroring sim/device_blas.cpp.
void poison(double* p, int n) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < n; ++i) p[i] = nan;
}

/// Consumer side of the multi-node halo split: bytes of device d's external slice
/// owned by devices on d's own node — those arrive over the intra-node
/// link; the rest keeps the host (+network) route.
double node_local_ext_bytes(const sim::Machine& m, int d,
                            const std::vector<int>& ext_owner) {
  const int myn = m.node_of(d);
  double bytes = 0.0;
  for (const int o : ext_owner) {
    if (m.node_of(o) == myn) bytes += 8.0;
  }
  return bytes;
}

/// Step k's (1-based) shift: v_k = (A - theta I) v_{k-1} (+ beta2 v_{k-2}
/// on the second member of a complex conjugate pair).
struct StepShift {
  double theta = 0.0;
  bool pair_second = false;
  double beta2 = 0.0;

  bool shifted() const { return theta != 0.0 || pair_second; }
  /// Basis vectors the shift epilogue reads (sim::charge_mpk_step).
  int terms() const { return pair_second ? 2 : (theta != 0.0 ? 1 : 0); }
};

StepShift step_shift(const ShiftSeq& shifts, int k) {
  StepShift sh;
  if (shifts.re != nullptr) sh.theta = shifts.re[k - 1];
  sh.pair_second = shifts.im != nullptr && shifts.im[k - 1] < 0.0;
  if (sh.pair_second && k >= 2) {
    sh.beta2 = shifts.im[k - 2] * shifts.im[k - 2];
  }
  return sh;
}

}  // namespace

MpkExecutor::MpkExecutor(const MpkPlan& plan) : plan_(&plan) {
  const int ng = plan.n_devices();
  z_.resize(static_cast<std::size_t>(ng));
  pack_buf_.resize(static_cast<std::size_t>(ng));
  ext_owners_.resize(static_cast<std::size_t>(ng));
  for (int d = 0; d < ng; ++d) {
    const MpkDevicePlan& dp = plan.dev[static_cast<std::size_t>(d)];
    z_[static_cast<std::size_t>(d)].assign(
        3, std::vector<double>(static_cast<std::size_t>(dp.z_size()), 0.0));
    pack_buf_[static_cast<std::size_t>(d)].assign(dp.send_local_rows.size(),
                                                  0.0);
    // ext_owner lists one owner per external index in hop order; reduce it
    // to the set of distinct senders this device depends on.
    std::vector<char> seen(static_cast<std::size_t>(ng), 0);
    for (const int o : dp.ext_owner) seen[static_cast<std::size_t>(o)] = 1;
    auto& owners = ext_owners_[static_cast<std::size_t>(d)];
    for (int o = 0; o < ng; ++o) {
      if (seen[static_cast<std::size_t>(o)] != 0) owners.push_back(o);
    }
  }
}

void MpkExecutor::build_node_split(const sim::Machine& m) {
  const sim::Topology& topo = m.topology();
  if (split_nodes_ == topo.n_nodes && split_gpn_ == topo.gpus_per_node) {
    return;
  }
  split_nodes_ = topo.n_nodes;
  split_gpn_ = topo.gpus_per_node;
  const MpkPlan& plan = *plan_;
  const int ng = plan.n_devices();
  send_local_bytes_.assign(static_cast<std::size_t>(ng), 0.0);
  send_cross_bytes_.assign(static_cast<std::size_t>(ng), 0.0);
  // Distinct owned rows each sender ships to same-node vs off-node readers
  // (2-bit marks per owned row; a row read from both sides goes in both
  // messages). Walking every consumer's ext list once is O(plan size).
  std::vector<std::vector<char>> mark(static_cast<std::size_t>(ng));
  for (int o = 0; o < ng; ++o) {
    mark[static_cast<std::size_t>(o)].assign(
        static_cast<std::size_t>(plan.dev[static_cast<std::size_t>(o)].owned),
        0);
  }
  for (int d = 0; d < ng; ++d) {
    const MpkDevicePlan& dp = plan.dev[static_cast<std::size_t>(d)];
    const int myn = m.node_of(d);
    for (std::size_t e = 0; e < dp.ext_owner.size(); ++e) {
      const int o = dp.ext_owner[e];
      const auto r = static_cast<std::size_t>(dp.ext_owner_row[e]);
      const char side = (m.node_of(o) == myn) ? 1 : 2;
      char& mk = mark[static_cast<std::size_t>(o)][r];
      if ((mk & side) == 0) {
        mk = static_cast<char>(mk | side);
        if (side == 1) {
          send_local_bytes_[static_cast<std::size_t>(o)] += 8.0;
        } else {
          send_cross_bytes_[static_cast<std::size_t>(o)] += 8.0;
        }
      }
    }
  }
}

void MpkExecutor::exchange(sim::Machine& m, const sim::DistMultiVec& v,
                           int c0, int slot) {
  // Gather / scatter through the host (Fig. 4 "Setup"), with per-buffer
  // dependencies: consumer d waits only on the pack messages of the senders
  // it actually reads (ext_owners_[d]), never on the rest of the machine.
  // With >= 3 devices in a 1D partition that turns the exchange from a
  // global barrier into a neighbor-wise pipeline (DESIGN.md §10).
  const MpkPlan& plan = *plan_;
  const int ng = plan.n_devices();
  const bool hier = m.topology().n_nodes > 1;
  if (hier) build_node_split(m);

  // Gather, recording one event per sender message. On a multi-node
  // topology each sender ships a split pair — same-node rows to node-host
  // memory over the peer link, off-node rows through the coordinating host
  // (paying the network hop) — with an event after each, so a same-node
  // consumer chains off the cheap intra-node message and never waits behind
  // the sender's network hop. The intra-node message goes first: the stream
  // is in-order, so the opposite order would price the hop into the peer
  // event anyway.
  const sim::Codec cd = m.halo_codec();
  std::vector<sim::Event> pk_local(static_cast<std::size_t>(ng));
  std::vector<sim::Event> pk_cross(static_cast<std::size_t>(ng));
  for (int d = 0; d < ng; ++d) {
    const MpkDevicePlan& dp = plan.dev[static_cast<std::size_t>(d)];
    if (dp.send_local_rows.empty()) continue;
    sim::dev_pack(m, d, dp.send_local_rows, v.col(d, c0),
                  pack_buf_[static_cast<std::size_t>(d)].data());
    if (hier) {
      const double lb = send_local_bytes_[static_cast<std::size_t>(d)];
      const double cb = send_cross_bytes_[static_cast<std::size_t>(d)];
      m.charge_codec(d, (lb + cb) / 8.0);
      if (lb > 0.0) m.d2h_node(d, sim::wire_bytes(cd, lb / 8.0), lb);
      pk_local[static_cast<std::size_t>(d)] = m.record_event(d);
      if (cb > 0.0) m.d2h(d, sim::wire_bytes(cd, cb / 8.0), cb);
      pk_cross[static_cast<std::size_t>(d)] = m.record_event(d);
    } else {
      const double rows = static_cast<double>(dp.send_local_rows.size());
      m.charge_codec(d, rows);
      m.d2h(d, sim::wire_bytes(cd, rows), 8.0 * rows);
      pk_local[static_cast<std::size_t>(d)] = m.record_event(d);
      pk_cross[static_cast<std::size_t>(d)] =
          pk_local[static_cast<std::size_t>(d)];
    }
  }
  // Event a consumer on device d waits on for sender o's packed rows.
  const auto pack_event = [&](int d, int o) -> const sim::Event& {
    const bool same = !hier || m.node_of(o) == m.node_of(d);
    return same ? pk_local[static_cast<std::size_t>(o)]
                : pk_cross[static_cast<std::size_t>(o)];
  };

  // Owned rows never leave their device: assemble them before the host
  // blocks on anyone, so the copy overlaps every in-flight message.
  for (int d = 0; d < ng; ++d) {
    const MpkDevicePlan& dp = plan.dev[static_cast<std::size_t>(d)];
    std::vector<double>& zd =
        z_[static_cast<std::size_t>(d)][static_cast<std::size_t>(slot)];
    sim::dev_copy(m, d, dp.owned, v.col(d, c0), zd.data());
  }

  // Scatter: per consumer, wait for its senders, expand its slice of the
  // received data on the host, and forward it. The host-side expand is
  // charged per consumer (shared senders count once per reader).
  //
  // Consumers are served in device order. Measured against the
  // alternatives (earliest-ready, latest-ready, reversed), device order
  // ties for best on the bench partitions: the host has slack between
  // exchanges, so serving device 0 — the most heavily charged timeline in
  // a 1D partition, hence the machine's critical chain — first is what
  // matters, and device order does exactly that.
  for (int d = 0; d < ng; ++d) {
    const MpkDevicePlan& dp = plan.dev[static_cast<std::size_t>(d)];
    if (dp.ext_global.empty()) continue;
    std::vector<double>& zd =
        z_[static_cast<std::size_t>(d)][static_cast<std::size_t>(slot)];
    const int next = static_cast<int>(dp.ext_global.size());
    const auto& owners = ext_owners_[static_cast<std::size_t>(d)];
    for (const int o : owners) {
      m.host_wait_event(pack_event(d, o));
    }
    m.charge_host(sim::Kernel::kCopy, 0.0, 16.0 * next);
    if (hier) {
      const double local = node_local_ext_bytes(m, d, dp.ext_owner);
      if (local > 0.0) m.h2d_node(d, sim::wire_bytes(cd, local / 8.0), local);
      if (8.0 * next > local) {
        m.h2d(d, sim::wire_bytes(cd, next - local / 8.0), 8.0 * next - local);
      }
    } else {
      m.h2d(d, sim::wire_bytes(cd, next), 8.0 * next);
    }
    m.charge_codec(d, next);
    // Wall-clock guard for the closure below: it reads the owners' basis
    // blocks, which their pack closures read too, but a late kernel on an
    // owner stream could already be overwriting by then in a future layout;
    // the stream waits pin the closure behind the recorded prefix. Charged,
    // they are free: the h2d above already starts at >= every event time.
    for (const int o : owners) {
      m.stream_wait_event(d, pack_event(d, o));
    }
    m.charge_device(d, sim::Kernel::kPack, 0.0, 20.0 * next);
    const bool hit = m.consume_kernel_fault(d);
    const MpkDevicePlan* dpp = &dp;
    double* zp = zd.data();
    const sim::DistMultiVec* vp = &v;
    m.run_on_device(d, [=] {
      for (int e = 0; e < next; ++e) {
        zp[static_cast<std::size_t>(dpp->owned + e)] =
            vp->col(dpp->ext_owner[static_cast<std::size_t>(e)],
                    c0)[dpp->ext_owner_row[static_cast<std::size_t>(e)]];
      }
      // The coded wire image is modeled on the consumer's assembled
      // external slice, on either side of the hier/flat split.
      sim::roundtrip(cd, zp + dpp->owned, next);
      if (hit) poison(zp + dpp->owned, next);
    });
  }
}

void MpkExecutor::run(sim::Machine& m, sim::DistMultiVec& v, int c0,
                      int steps, ShiftSeq shifts, bool shared) {
  const MpkPlan& plan = *plan_;
  CAGMRES_REQUIRE(1 <= steps && steps <= plan.s,
                  "steps must be in [1, plan.s]");
  CAGMRES_REQUIRE(c0 >= 0 && c0 + steps < v.cols(), "column range overflow");
  CAGMRES_REQUIRE(v.n_parts() == plan.n_devices(), "layout mismatch");
  for (int k = 1; k <= steps; ++k) {
    CAGMRES_REQUIRE(!step_shift(shifts, k).pair_second ||
                        (k >= 2 && shifts.im[k - 2] > 0.0),
                    "complex pair straddles the MPK call boundary");
  }
  for (int d = 0; d < plan.n_devices(); ++d) {
    CAGMRES_REQUIRE(v.local_rows(d) == plan.dev[static_cast<std::size_t>(d)].owned,
                    "multivector rows do not match the plan");
  }
  sim::PhaseScope phase(m, "mpk");
  // A device fault can throw from the charge loop with the exchange's
  // closures still parked on the streams (reading z_ and v); drain on
  // unwind so the caller's fault handler never races them during rollback.
  sim::UnwindDrainGuard unwind_guard(m);

  const std::int64_t faults_before = m.kernel_faults_consumed();
  // Slot 0 holds the starting vector (z^(d,1) of Fig. 4).
  exchange(m, v, c0, /*slot=*/0);
  const std::vector<unsigned char> hits = charge_steps(m, steps, shifts);
  m.sync();  // the exchange's closures filled slot 0; run the steps on it

  // Each device's copy of a ghost row equals its owner's value bit for bit
  // when no codec rewrote the halo, no poison landed anywhere in this apply
  // (a latch pending on entry is consumed by the exchange and counts), and
  // every value stays finite (DESIGN.md §16). Otherwise replay the steps
  // per device exactly as the charges describe them.
  if (shared && m.halo_codec() == sim::Codec::kNone &&
      m.kernel_faults_consumed() == faults_before) {
    if (shared_steps(m, v, c0, steps, shifts)) return;
    assemble_start(v, c0);
  }
  ghost_zone_steps(m, v, c0, steps, shifts, hits);
}

std::vector<unsigned char> MpkExecutor::charge_steps(sim::Machine& m,
                                                     int steps,
                                                     ShiftSeq shifts) {
  const MpkPlan& plan = *plan_;
  const int ng = plan.n_devices();
  std::vector<unsigned char> hits(
      static_cast<std::size_t>(steps) * static_cast<std::size_t>(ng), 0);
  for (int k = 1; k <= steps; ++k) {
    const int terms = step_shift(shifts, k).terms();
    for (int d = 0; d < ng; ++d) {
      const MpkDevicePlan& dp = plan.dev[static_cast<std::size_t>(d)];
      // One fused kernel per step: the owned-row SpMV (the reused A^(d)),
      // the boundary rows this step still has to produce (hop <= s-k
      // prefix, the redundant ghost-zone work every device pays for), the
      // Newton shift and the store of v(:, c0+k) (Fig. 4 last line).
      const int brows =
          dp.boundary_rows_at_step[static_cast<std::size_t>(k) - 1];
      const bool hit = sim::charge_mpk_step(m, d, dp.local_ell, dp.boundary,
                                            brows, terms);
      hits[static_cast<std::size_t>(k - 1) * static_cast<std::size_t>(ng) +
           static_cast<std::size_t>(d)] = hit ? 1 : 0;
    }
  }
  return hits;
}

bool MpkExecutor::shared_steps(sim::Machine& m, sim::DistMultiVec& v, int c0,
                               int steps, ShiftSeq shifts) {
  const MpkPlan& plan = *plan_;
  const int ng = plan.n_devices();
  std::vector<char> finite(static_cast<std::size_t>(ng), 1);
  char* fin = finite.data();
  sim::DistMultiVec* vp = &v;
  for (int k = 1; k <= steps; ++k) {
    const StepShift sh = step_shift(shifts, k);
    for (int d = 0; d < ng; ++d) {
      m.run_on_device(d, [this, vp, fin, c0, k, d, sh] {
        const MpkPlan& pl = *plan_;
        const MpkDevicePlan& dp = pl.dev[static_cast<std::size_t>(d)];
        auto& bufs = z_[static_cast<std::size_t>(d)];
        double* zi = bufs[static_cast<std::size_t>((k - 1) % 3)].data();
        double* zo = bufs[static_cast<std::size_t>(k % 3)].data();
        const double* zp2 = bufs[static_cast<std::size_t>((k + 1) % 3)].data();
        if (k > 1) {
          // Owned rows read only hop-1 ghosts; take them from the owners'
          // column of the previous step (finished before the last sync).
          const int h1 = pl.s >= 2 ? dp.boundary_rows_at_step[
                                         static_cast<std::size_t>(pl.s) - 2]
                                   : 0;
          for (int e = 0; e < h1; ++e) {
            zi[dp.owned + e] =
                vp->col(dp.ext_owner[static_cast<std::size_t>(e)],
                        c0 + k - 1)[dp.ext_owner_row[static_cast<std::size_t>(e)]];
          }
        }
        sparse::spmv(dp.local_ell, zi, zo);
        if (sh.shifted()) {
          for (int i = 0; i < dp.owned; ++i) {
            zo[i] -= sh.theta * zi[i];
            if (sh.pair_second) zo[i] += sh.beta2 * zp2[i];
          }
        }
        double* out = vp->col(d, c0 + k);
        bool ok = true;
        for (int i = 0; i < dp.owned; ++i) {
          out[i] = zo[i];
          ok &= std::isfinite(zo[i]);
        }
        fin[d] = ok ? 1 : 0;
      });
    }
    m.sync();  // step k's columns are complete before anyone refreshes
    for (const char ok : finite) {
      if (ok == 0) return false;
    }
  }
  return true;
}

void MpkExecutor::assemble_start(const sim::DistMultiVec& v, int c0) {
  const MpkPlan& plan = *plan_;
  for (int d = 0; d < plan.n_devices(); ++d) {
    const MpkDevicePlan& dp = plan.dev[static_cast<std::size_t>(d)];
    std::vector<double>& zd = z_[static_cast<std::size_t>(d)][0];
    const double* own = v.col(d, c0);
    std::copy(own, own + dp.owned, zd.begin());
    for (std::size_t e = 0; e < dp.ext_global.size(); ++e) {
      zd[static_cast<std::size_t>(dp.owned) + e] =
          v.col(dp.ext_owner[e], c0)[dp.ext_owner_row[e]];
    }
  }
}

void MpkExecutor::ghost_zone_steps(sim::Machine& m, sim::DistMultiVec& v,
                                   int c0, int steps, ShiftSeq shifts,
                                   const std::vector<unsigned char>& hits) {
  const MpkPlan& plan = *plan_;
  const int ng = plan.n_devices();
  sim::DistMultiVec* vp = &v;
  // The closures outlive this call (the caller may rewrite the shift
  // arrays first), so each takes its own copy of the per-step shifts and
  // of its device's hits.
  std::vector<StepShift> sh(static_cast<std::size_t>(steps));
  for (int k = 1; k <= steps; ++k) {
    sh[static_cast<std::size_t>(k) - 1] = step_shift(shifts, k);
  }
  for (int d = 0; d < ng; ++d) {
    std::vector<unsigned char> dev_hits(static_cast<std::size_t>(steps));
    for (int k = 1; k <= steps; ++k) {
      dev_hits[static_cast<std::size_t>(k) - 1] =
          hits[static_cast<std::size_t>(k - 1) * static_cast<std::size_t>(ng) +
               static_cast<std::size_t>(d)];
    }
    // Devices are independent here: each reads and writes only its own
    // z-buffers and its own block of v.
    m.run_on_device(d, [this, vp, c0, steps, sh, hits = std::move(dev_hits),
                        d] {
      const MpkPlan& pl = *plan_;
      const MpkDevicePlan& dp = pl.dev[static_cast<std::size_t>(d)];
      auto& bufs = z_[static_cast<std::size_t>(d)];
      const int owned = dp.owned;
      for (int k = 1; k <= steps; ++k) {
        const StepShift& shk = sh[static_cast<std::size_t>(k) - 1];
        const bool hit = hits[static_cast<std::size_t>(k) - 1] != 0;
        const double* zi = bufs[static_cast<std::size_t>((k - 1) % 3)].data();
        double* zo = bufs[static_cast<std::size_t>(k % 3)].data();
        const double* zp2 = bufs[static_cast<std::size_t>((k + 1) % 3)].data();

        sparse::spmv(dp.local_ell, zi, zo);

        const int brows =
            dp.boundary_rows_at_step[static_cast<std::size_t>(k) - 1];
        const auto& b = dp.boundary;
        const int* out_pos = dp.boundary_out_pos.data();
#pragma omp parallel for schedule(static) if (brows > 1 << 10)
        for (int i = 0; i < brows; ++i) {
          double acc = 0.0;
          const auto lo = b.row_ptr[static_cast<std::size_t>(i)];
          const auto hi = b.row_ptr[static_cast<std::size_t>(i) + 1];
          for (auto p = lo; p < hi; ++p) {
            acc += b.vals[static_cast<std::size_t>(p)] *
                   zi[b.col_idx[static_cast<std::size_t>(p)]];
          }
          zo[out_pos[i]] = acc;
        }

        if (shk.shifted()) {
          for (int i = 0; i < owned; ++i) {
            zo[i] -= shk.theta * zi[i];
            if (shk.pair_second) zo[i] += shk.beta2 * zp2[i];
          }
          for (int i = 0; i < brows; ++i) {
            const int pos = out_pos[i];
            zo[pos] -= shk.theta * zi[pos];
            if (shk.pair_second) zo[pos] += shk.beta2 * zp2[pos];
          }
        }
        // A fault on the fused kernel poisons everything the step wrote.
        if (hit) {
          poison(zo, owned);
          for (int i = 0; i < brows; ++i) {
            zo[out_pos[i]] = std::numeric_limits<double>::quiet_NaN();
          }
        }

        double* out = vp->col(d, c0 + k);
        std::copy(zo, zo + owned, out);
      }
    });
  }
}

namespace detail {

void apply_per_device(MpkExecutor& exec, sim::Machine& m,
                      sim::DistMultiVec& v, int c0, int steps,
                      const ShiftSeq& shifts) {
  exec.run(m, v, c0, steps, shifts, /*shared=*/false);
}

}  // namespace detail

void MpkExecutor::spmv(sim::Machine& m, sim::DistMultiVec& v, int xcol,
                       int ycol) {
  spmv(m, v, xcol, v, ycol);
}

void MpkExecutor::spmv(sim::Machine& m, const sim::DistMultiVec& x, int xcol,
                       sim::DistMultiVec& y, int ycol) {
  const MpkPlan& plan = *plan_;
  CAGMRES_REQUIRE(plan.s == 1, "spmv requires an s=1 plan");
  CAGMRES_REQUIRE(&x != &y || xcol != ycol, "in-place SpMV not supported");
  sim::PhaseScope phase(m, "spmv");
  const int ng = plan.n_devices();

  exchange(m, x, xcol, /*slot=*/0);
  for (int d = 0; d < ng; ++d) {
    const MpkDevicePlan& dp = plan.dev[static_cast<std::size_t>(d)];
    const double* zin = z_[static_cast<std::size_t>(d)][0].data();
    sim::dev_spmv_ell(m, d, dp.local_ell, zin, y.col(d, ycol));
  }
}

sim::DistMultiVec& MpkExecutor::stage(int cols) {
  if (stage_.cols() < cols || stage_.n_parts() != plan_->n_devices()) {
    stage_ = sim::DistMultiVec(plan_->rows_per_device(), cols);
  }
  return stage_;
}

}  // namespace cagmres::mpk
