// Internal helpers shared by the orthogonalization kernels: the
// reduce-to-CPU / broadcast-to-GPUs communication pattern of Fig. 9.
#pragma once

#include <vector>

#include "sim/machine.hpp"

namespace cagmres::ortho::detail {

/// Sums the per-device partial buffers (each `len` doubles) into `out`,
/// charging one asynchronous D2H message per device, the wait for those
/// messages, and the host-side additions. This is the "on CPU (comm)" step
/// of Fig. 9. Returns the per-device event chain: ev[d] marks device d's
/// partial landing on the host (recorded right after its d2h), so callers
/// that ship derived data back — CAQR's R panels, BOrth's block updates —
/// can gate consumer streams on exactly these events.
///
/// The host waits per event, and the *charged* schedule is chosen
/// deterministically from the (already known) event timestamps: either one
/// bulk add after the last arrival, or arrival-batched partial adds that
/// overlap summation with the stragglers' transfers. Both schedules fold the
/// partials in the same order — ascending cumulative charged device time,
/// so the heaviest-loaded device (the likely straggler) is folded last and
/// the post-straggler add covers one partial instead of ng. That order is a
/// pure function of the charge sequence, never of event timestamps, so
/// results are bitwise identical across schedules and worker counts; the
/// cheaper charged completion is picked per reduction, so the reduction
/// never loses to a single bulk add even when the per-charge fixed cost
/// outweighs the overlap win.
///
/// On a multi-node topology the fold runs through a two-level tree grouped
/// by node (node subtotals in fold order, then subtotals straggler-last —
/// DESIGN.md §13). With Machine::hier_reduce() on, each multi-member node's
/// subtotal is computed on a node-leader device behind intra-node peer
/// transfers, and exactly one D2H per node crosses the inter-node link;
/// with it off every device ships its own partial and the host folds the
/// same tree. Both sides produce bitwise-identical results (the leader
/// stages are busy-normalized so even the fold permutation matches); the
/// single-node path is untouched. ev[d] then marks device d's partial
/// leaving the device (the node leader's event covers its shipped
/// subtotal).
///
/// With a reduce codec armed (Machine::codec(kReduce)), each partial is
/// folded as the consumer of its coded message would see it — quantized
/// exactly once, identically on every schedule and on both sides of the
/// hier knob — messages are wire-priced, and every producer is charged one
/// encode pass per reduction (DESIGN.md §14).
std::vector<sim::Event> reduce_to_host_events(
    sim::Machine& m, const std::vector<std::vector<double>>& partials,
    int len, double* out);

/// reduce_to_host_events for callers that do not gate anything downstream.
void reduce_to_host(sim::Machine& m,
                    const std::vector<std::vector<double>>& partials, int len,
                    double* out);

/// Charges the broadcast of `len` doubles from the host to every device
/// and makes subsequent device kernels wait for it. Flat: one H2D message
/// per device. With Machine::hier_reduce() on, one inter-node H2D per node
/// leader and intra-node relays behind its event (charge-only either way).
///
/// `payload` (optional) is the host buffer being broadcast. When a reduce
/// codec is armed and the payload is supplied, the broadcast ships the
/// coded image: the payload is quantized IN PLACE (host and devices then
/// agree on the decoded values), each message is wire-priced, and every
/// device is charged a decode pass. Without a payload the broadcast stays
/// at full logical size — bytes are only charged compressed when the
/// values really went through the codec round trip (DESIGN.md §14).
void broadcast_charge(sim::Machine& m, int len, double* payload = nullptr);

}  // namespace cagmres::ortho::detail
