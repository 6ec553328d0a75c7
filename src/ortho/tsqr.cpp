#include "ortho/tsqr.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "ortho/methods.hpp"
#include "ortho/reduce.hpp"

namespace cagmres::ortho {

Method parse_method(const std::string& name) {
  if (name == "mgs") return Method::kMgs;
  if (name == "cgs") return Method::kCgs;
  if (name == "cholqr") return Method::kCholQr;
  if (name == "cholqr_mp") return Method::kCholQrMp;
  if (name == "svqr") return Method::kSvqr;
  if (name == "caqr") return Method::kCaqr;
  throw Error("unknown TSQR method: " + name +
              " (expected mgs|cgs|cholqr|svqr|caqr|cholqr_mp)");
}

std::string to_string(Method m) {
  switch (m) {
    case Method::kMgs:
      return "mgs";
    case Method::kCgs:
      return "cgs";
    case Method::kCholQr:
      return "cholqr";
    case Method::kSvqr:
      return "svqr";
    case Method::kCaqr:
      return "caqr";
    case Method::kCholQrMp:
      return "cholqr_mp";
  }
  return "?";
}

Method more_robust_method(Method m) {
  switch (m) {
    case Method::kCholQrMp:
      return Method::kCholQr;
    case Method::kCholQr:
      return Method::kSvqr;
    case Method::kSvqr:
      return Method::kCaqr;
    case Method::kMgs:
    case Method::kCgs:
    case Method::kCaqr:
      return Method::kCaqr;
  }
  return Method::kCaqr;
}

TsqrResult tsqr(sim::Machine& machine, Method method, sim::DistMultiVec& v,
                int c0, int c1, const TsqrOptions& opts) {
  CAGMRES_REQUIRE(0 <= c0 && c0 < c1 && c1 <= v.cols(),
                  "tsqr: bad column range");
  switch (method) {
    case Method::kMgs:
      return detail::tsqr_mgs(machine, v, c0, c1);
    case Method::kCgs:
      return detail::tsqr_cgs(machine, v, c0, c1);
    case Method::kCholQr:
      return detail::tsqr_cholqr(machine, v, c0, c1, opts);
    case Method::kCholQrMp:
      return detail::tsqr_cholqr(machine, v, c0, c1, opts,
                                 /*float_gram=*/true);
    case Method::kSvqr:
      return detail::tsqr_svqr(machine, v, c0, c1, opts);
    case Method::kCaqr:
      return detail::tsqr_caqr(machine, v, c0, c1);
  }
  throw Error("unreachable");
}

namespace detail {

namespace {

/// Accumulates partials perm[i0, i1) into out. Every schedule folds the
/// same permutation front to back — the bitwise contract: batching the
/// sequential adds differently never changes a value, only the order does.
/// With a reduce codec armed, each partial is folded as the consumer of its
/// coded message would see it (roundtrip on a scratch copy) — quantized
/// exactly once per reduction, identically on every schedule.
void add_partials(const std::vector<std::vector<double>>& partials,
                  const std::vector<int>& perm, int i0, int i1, int len,
                  double* out, const sim::CodecSpec& cd) {
  std::vector<double> q;
  for (int i = i0; i < i1; ++i) {
    const auto& p = partials[static_cast<std::size_t>(perm[
        static_cast<std::size_t>(i)])];
    CAGMRES_ASSERT(static_cast<int>(p.size()) >= len, "partial too short");
    if (cd.active()) {
      q.assign(p.begin(), p.begin() + len);
      cd.roundtrip(q.data(), len);
      for (int j = 0; j < len; ++j) out[j] += q[static_cast<std::size_t>(j)];
    } else {
      for (int j = 0; j < len; ++j) out[j] += p[static_cast<std::size_t>(j)];
    }
  }
}

/// Fold order for a reduction: devices by ascending cumulative charged
/// seconds (ties by id). The heaviest-loaded device is the likely straggler
/// of the gemm + d2h chains feeding the reduce; putting it last lets the
/// event schedule sum everyone else while its transfer is still in flight.
/// device_busy is a pure function of the charge sequence — identical across
/// worker counts — so the summation order (and with it every bit of the
/// result) never depends on charged timestamps.
std::vector<int> fold_order(const sim::Machine& m) {
  std::vector<int> perm(static_cast<std::size_t>(m.n_devices()));
  for (std::size_t d = 0; d < perm.size(); ++d) perm[d] = static_cast<int>(d);
  std::stable_sort(perm.begin(), perm.end(), [&m](int a, int b) {
    return m.device_busy(a) < m.device_busy(b);
  });
  return perm;
}

// ---- multi-node grouped fold (DESIGN.md §13) ----------------------------
//
// At nodes > 1 BOTH sides of the Machine::hier_reduce() knob fold through
// the same two-level summation tree: within each node, partials are summed
// in global fold order into a zero-initialized node subtotal; the subtotals
// are then folded into `out` (also zero-initialized) with nodes ordered by
// their last member's position in the fold order (straggler-last across
// nodes). The knob only moves WHERE a subtotal is computed — on the host
// behind ng flat messages, or on a node-leader device behind one inter-node
// message per node — so the bits agree whichever side ran.

/// Node buckets of the fold order: members of the k-th node to finish, each
/// bucket in fold order (so .back() is that node's straggler, the leader).
std::vector<std::vector<int>> node_buckets(const sim::Machine& m,
                                           const std::vector<int>& perm) {
  const auto nn = static_cast<std::size_t>(m.topology().n_nodes);
  std::vector<std::vector<int>> buckets(nn);
  std::vector<int> last(nn, -1);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    const auto k = static_cast<std::size_t>(m.node_of(perm[i]));
    buckets[k].push_back(perm[i]);
    last[k] = static_cast<int>(i);
  }
  std::vector<std::size_t> ids;
  for (std::size_t k = 0; k < nn; ++k) {
    if (!buckets[k].empty()) ids.push_back(k);
  }
  std::stable_sort(ids.begin(), ids.end(),
                   [&last](std::size_t a, std::size_t b) {
                     return last[a] < last[b];
                   });
  std::vector<std::vector<int>> out;
  out.reserve(ids.size());
  for (const std::size_t k : ids) out.push_back(std::move(buckets[k]));
  return out;
}

/// One node's subtotal: zero-init + sequential member adds. The host (flat
/// knob) and the leader-device closure (hier knob) both run exactly this —
/// including the per-member codec round trip, so the subtotal's bits agree
/// whichever side computed it. The shipped subtotal itself is modeled as a
/// lossless re-encode (wire-priced, not re-quantized): re-quantizing it
/// would make hier fold different values than flat (DESIGN.md §14).
void node_subtotal(const std::vector<std::vector<double>>& partials,
                   const std::vector<int>& members, int len, double* s,
                   const sim::CodecSpec& cd) {
  for (int j = 0; j < len; ++j) s[j] = 0.0;
  std::vector<double> q;
  for (const int d : members) {
    const auto& p = partials[static_cast<std::size_t>(d)];
    CAGMRES_ASSERT(static_cast<int>(p.size()) >= len, "partial too short");
    if (cd.active()) {
      q.assign(p.begin(), p.begin() + len);
      cd.roundtrip(q.data(), len);
      for (int j = 0; j < len; ++j) s[j] += q[static_cast<std::size_t>(j)];
    } else {
      for (int j = 0; j < len; ++j) s[j] += p[static_cast<std::size_t>(j)];
    }
  }
}

/// Flat-equivalent charge of shipping `bytes` between device d and the
/// coordinating host — the busy-normalization target for peer-routed
/// hierarchical stages (see Machine::adjust_device_busy).
double flat_ship_seconds(const sim::Machine& m, int d, double bytes) {
  double t = m.perf().transfer_seconds(bytes);
  if (m.is_remote(d)) t += m.perf().net_seconds(bytes);
  return t;
}

/// The nodes > 1 reduction, both knob settings. Hier stage 1 (per
/// multi-member node): members peer their partials to the node's host
/// memory, the leader stream-waits them, sums them with a charged device
/// add, and ships the one subtotal inter-node. Stage 2: the host folds
/// node contributions in node order, with the bulk-vs-incremental charged
/// schedule chosen exactly like the flat path, per node group.
std::vector<sim::Event> reduce_grouped(
    sim::Machine& m, const std::vector<std::vector<double>>& partials,
    int len, double* out) {
  const bool hier = m.hier_reduce();
  const sim::PerfModel& pm = m.perf();
  std::vector<sim::Event> ev(static_cast<std::size_t>(m.n_devices()));
  // The fold order is sampled at entry, before this reduction's own
  // transfer charges land; the hierarchical stages are busy-normalized to
  // the flat ones, so the permutation — and with it the summation tree —
  // is identical whichever side of the knob runs.
  const std::vector<int> perm = fold_order(m);
  const std::vector<std::vector<int>> nodes = node_buckets(m, perm);
  const std::size_t nn = nodes.size();
  const sim::CodecSpec& cd = m.codec(sim::TrafficClass::kReduce);
  const double bytes = 8.0 * len;          // logical payload
  const double wire = cd.wire_bytes(len);  // what actually ships

  std::vector<std::vector<double>> sums(nn);
  std::vector<std::vector<sim::Event>> waits(nn);
  std::vector<double> ready(nn, 0.0);  // charged time node k is foldable
  std::vector<double> work(nn, 0.0);   // host fold flops for node k

  for (std::size_t k = 0; k < nn; ++k) {
    const std::vector<int>& mem = nodes[k];
    sums[k].assign(static_cast<std::size_t>(len), 0.0);
    if (hier && mem.size() > 1) {
      const int lead = mem.back();  // the within-node straggler
      for (std::size_t i = 0; i + 1 < mem.size(); ++i) {
        const int d = mem[i];
        m.charge_codec(d, cd, len);
        m.d2h_node(d, wire, bytes);
        ev[static_cast<std::size_t>(d)] = m.record_event(d);
        m.adjust_device_busy(
            d, flat_ship_seconds(m, d, wire) - pm.peer_seconds(wire));
      }
      for (std::size_t i = 0; i + 1 < mem.size(); ++i) {
        m.stream_wait_event(lead, ev[static_cast<std::size_t>(mem[i])]);
      }
      const double flops = static_cast<double>(len) * mem.size();
      m.charge_device(lead, sim::Kernel::kAxpy, flops, 16.0 * flops);
      m.adjust_device_busy(lead, -pm.device_seconds(sim::Kernel::kAxpy, flops,
                                                    16.0 * flops));
      const bool poison = m.consume_kernel_fault(lead);
      double* s = sums[k].data();
      const std::vector<int>* mp = &nodes[k];
      m.run_on_device(lead, [&partials, mp, len, s, poison, cd]() {
        node_subtotal(partials, *mp, len, s, cd);
        if (poison) {
          for (int j = 0; j < len; ++j) {
            s[j] = std::numeric_limits<double>::quiet_NaN();
          }
        }
      });
      // One encode per device per reduction on either side of the knob:
      // members encoded their partials above, the leader encodes the one
      // subtotal it ships — same kCodec busy as the flat branch, so the
      // fold-order permutation stays knob-invariant without an adjustment.
      m.charge_codec(lead, cd, len);
      m.d2h(lead, wire, bytes);
      ev[static_cast<std::size_t>(lead)] = m.record_event(lead);
      waits[k].push_back(ev[static_cast<std::size_t>(lead)]);
      ready[k] = ev[static_cast<std::size_t>(lead)].t;
      work[k] = static_cast<double>(len);  // out += subtotal
    } else {
      // Flat knob, or a single-member node: every member ships its own
      // partial and the host computes the subtotal at fold time.
      for (const int d : mem) {
        m.charge_codec(d, cd, len);
        m.d2h(d, wire, bytes);
        ev[static_cast<std::size_t>(d)] = m.record_event(d);
        waits[k].push_back(ev[static_cast<std::size_t>(d)]);
        ready[k] = std::max(ready[k], ev[static_cast<std::size_t>(d)].t);
      }
      work[k] = static_cast<double>(len) * (mem.size() + 1);
    }
  }

  for (int j = 0; j < len; ++j) out[j] = 0.0;
  const auto fold_node = [&](std::size_t k) {
    const std::vector<int>& mem = nodes[k];
    if (!(hier && mem.size() > 1)) {
      node_subtotal(partials, mem, len, sums[k].data(), cd);
    }
    const double* s = sums[k].data();
    for (int j = 0; j < len; ++j) out[j] += s[j];
  };

  // Same bulk-vs-incremental charged-schedule choice as the flat path,
  // over node groups instead of devices (see below).
  double h_bulk = m.clock().host_time();
  double tot = 0.0;
  for (std::size_t k = 0; k < nn; ++k) {
    h_bulk = std::max(h_bulk, ready[k]);
    tot += work[k];
  }
  h_bulk += pm.host_seconds(sim::Kernel::kAxpy, tot, 16.0 * tot);
  double h_inc = m.clock().host_time();
  for (std::size_t i = 0; i < nn;) {
    h_inc = std::max(h_inc, ready[i]);
    std::size_t j = i + 1;
    double w = work[i];
    while (j < nn && ready[j] <= h_inc) {
      w += work[j];
      ++j;
    }
    h_inc += pm.host_seconds(sim::Kernel::kAxpy, w, 16.0 * w);
    i = j;
  }

  if (h_inc < h_bulk) {
    for (std::size_t i = 0; i < nn;) {
      for (const sim::Event& e : waits[i]) m.host_wait_event(e);
      std::size_t j = i + 1;
      double w = work[i];
      while (j < nn && ready[j] <= m.clock().host_time()) {
        for (const sim::Event& e : waits[j]) m.host_wait_event(e);
        w += work[j];
        ++j;
      }
      for (std::size_t k = i; k < j; ++k) fold_node(k);
      m.charge_host(sim::Kernel::kAxpy, w, 16.0 * w);
      i = j;
    }
  } else {
    for (std::size_t k = 0; k < nn; ++k) {
      for (const sim::Event& e : waits[k]) m.host_wait_event(e);
    }
    for (std::size_t k = 0; k < nn; ++k) fold_node(k);
    m.charge_host(sim::Kernel::kAxpy, tot, 16.0 * tot);
  }
  return ev;
}

}  // namespace

std::vector<sim::Event> reduce_to_host_events(
    sim::Machine& m, const std::vector<std::vector<double>>& partials,
    int len, double* out) {
  const int ng = m.n_devices();
  CAGMRES_ASSERT(static_cast<int>(partials.size()) == ng,
                 "partials per device");
  if (m.topology().n_nodes > 1) return reduce_grouped(m, partials, len, out);
  const sim::CodecSpec& cd = m.codec(sim::TrafficClass::kReduce);
  const double wire = cd.wire_bytes(len);
  std::vector<sim::Event> ev(static_cast<std::size_t>(ng));
  for (int d = 0; d < ng; ++d) {
    m.charge_codec(d, cd, len);
    m.d2h(d, wire, 8.0 * len);
    // The producing chain's event: the gemm/dot that filled the partial and
    // the d2h that shipped it, nothing else on the machine.
    ev[static_cast<std::size_t>(d)] = m.record_event(d);
  }
  for (int i = 0; i < len; ++i) out[i] = 0.0;
  const std::vector<int> perm = fold_order(m);
  const auto ev_at = [&](int i) -> const sim::Event& {
    return ev[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])];
  };

  // Every event timestamp is already known, so the charged
  // completion of both candidate schedules is computed exactly up front and
  // the cheaper one is executed — a deterministic choice (it depends only
  // on charged times, which are worker-invariant):
  //   bulk:        wait all events, one add of ng*len terms;
  //   incremental: walk the fold order, batching every partial that has
  //                already landed into one add, so summing the early
  //                arrivals overlaps (in charged time) with the straggling
  //                transfers. With the straggler last in the fold order the
  //                final post-straggler add covers one partial, not ng.
  // The incremental schedule wins when the device timelines are skewed by
  // more than the per-charge fixed cost; with near-lockstep devices the
  // bulk add's single fixed cost wins. Both walk the same fold order.
  const sim::PerfModel& pm = m.perf();
  const double h0 = m.clock().host_time();
  double h_bulk = h0;
  for (int d = 0; d < ng; ++d) {
    h_bulk = std::max(h_bulk, ev[static_cast<std::size_t>(d)].t);
  }
  h_bulk += pm.host_seconds(sim::Kernel::kAxpy, static_cast<double>(len) * ng,
                            16.0 * len * ng);
  double h_inc = h0;
  for (int i = 0; i < ng;) {
    h_inc = std::max(h_inc, ev_at(i).t);
    int j = i + 1;
    while (j < ng && ev_at(j).t <= h_inc) ++j;
    h_inc += pm.host_seconds(sim::Kernel::kAxpy,
                             static_cast<double>(len) * (j - i),
                             16.0 * len * (j - i));
    i = j;
  }

  if (h_inc < h_bulk) {
    for (int i = 0; i < ng;) {
      m.host_wait_event(ev_at(i));
      int j = i + 1;
      // Fold in every partial that already landed (their waits are free).
      while (j < ng && ev_at(j).t <= m.clock().host_time()) {
        m.host_wait_event(ev_at(j));
        ++j;
      }
      add_partials(partials, perm, i, j, len, out, cd);
      m.charge_host(sim::Kernel::kAxpy, static_cast<double>(len) * (j - i),
                    16.0 * len * (j - i));
      i = j;
    }
  } else {
    for (int d = 0; d < ng; ++d) {
      m.host_wait_event(ev[static_cast<std::size_t>(d)]);
    }
    add_partials(partials, perm, 0, ng, len, out, cd);
    m.charge_host(sim::Kernel::kAxpy, static_cast<double>(len) * ng,
                  16.0 * len * ng);
  }
  return ev;
}

void reduce_to_host(sim::Machine& m,
                    const std::vector<std::vector<double>>& partials, int len,
                    double* out) {
  (void)reduce_to_host_events(m, partials, len, out);
}

void broadcast_charge(sim::Machine& m, int len, double* payload) {
  // With a reduce codec armed AND the caller handing over the host-side
  // payload, the broadcast ships the coded image: the payload is quantized
  // in place (every device decodes the same values the host keeps working
  // with) and each h2d is wire-priced plus a per-device decode charge.
  // A null payload broadcasts at full logical size — bytes are only charged
  // compressed when the values actually went through the round trip.
  const sim::CodecSpec& cd = m.codec(sim::TrafficClass::kReduce);
  const bool coded = cd.active() && payload != nullptr;
  if (coded) cd.roundtrip(payload, len);
  const double bytes = 8.0 * len;
  const double wire = coded ? cd.wire_bytes(len) : bytes;
  if (!m.hier_reduce()) {
    for (int d = 0; d < m.n_devices(); ++d) {
      m.h2d(d, wire, bytes);
      if (coded) m.charge_codec(d, cd, len);
    }
    return;
  }
  // Hierarchical fan-out (charge-only, like the flat path — the data is in
  // host memory either way): one inter-node h2d to a node leader, then the
  // other members pull over the intra-node link behind the leader's event.
  // The leader is the node's least-busy device, so the relayed copies start
  // as early as possible. Peer-routed members are busy-normalized to the
  // flat h2d they replace, keeping the reduce fold order knob-invariant.
  const sim::PerfModel& pm = m.perf();
  const std::vector<int> perm = fold_order(m);
  for (const std::vector<int>& mem : node_buckets(m, perm)) {
    const int lead = mem.front();
    m.h2d(lead, wire, bytes);
    if (coded) m.charge_codec(lead, cd, len);
    const sim::Event e = m.record_event(lead);
    for (std::size_t i = 1; i < mem.size(); ++i) {
      const int d = mem[i];
      m.stream_wait_event(d, e);
      m.h2d_node(d, wire, bytes);
      if (coded) m.charge_codec(d, cd, len);
      m.adjust_device_busy(
          d, flat_ship_seconds(m, d, wire) - pm.peer_seconds(wire));
    }
  }
}

}  // namespace detail

}  // namespace cagmres::ortho
