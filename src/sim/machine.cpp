#include "sim/machine.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <numeric>
#include <string_view>

#include "common/error.hpp"

namespace cagmres::sim {

namespace {

/// Bounded retry with exponential backoff for checksum-failed transfers.
/// The retransmission and every backoff interval are charged to the
/// simulated clock; past the last retry the machine throws
/// Error(kRetriesExhausted) and the resilient solvers retire the device.
constexpr int kMaxTransferRetries = 4;
constexpr double kRetryBackoffS = 50e-6;   ///< first backoff interval
constexpr double kRetryBackoffMult = 2.0;  ///< growth per attempt

/// Whole-string decimal integer >= `min` (no sign, no blanks); false on
/// anything else, including overflow.
bool parse_int(std::string_view s, int min, int& out) {
  if (s.empty() || s.front() < '0' || s.front() > '9') return false;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && end == s.data() + s.size() && out >= min;
}

[[noreturn]] void bad_env(const char* name, const std::string& value,
                          const std::string& want) {
  throw Error(std::string(name) + "=\"" + value + "\": " + want);
}

}  // namespace

Topology EnvConfig::topology_for(int n_devices) const {
  const int gpus = topology_gpus > 0 ? topology_gpus
                   : topology_nodes > 0 && n_devices % topology_nodes == 0
                       ? n_devices / topology_nodes
                       : 0;
  if (topology_nodes > 0 &&
      static_cast<long long>(topology_nodes) * gpus == n_devices) {
    return Topology{topology_nodes, gpus};
  }
  return Topology{1, n_devices};
}

EnvConfig parse_env_config(
    const std::function<const char*(const char*)>& lookup) {
  EnvConfig cfg;
  const auto read = [&](const char* name) {
    const char* v = lookup(name);
    return std::string(v == nullptr ? "" : v);
  };

  if (const std::string v = read("CAGMRES_HOST_WORKERS"); !v.empty()) {
    if (!parse_int(v, 0, cfg.host_workers)) {
      bad_env("CAGMRES_HOST_WORKERS", v, "want a non-negative integer");
    }
  }

  if (const std::string v = read("CAGMRES_TOPOLOGY"); !v.empty()) {
    const std::size_t x = v.find('x');
    const bool ok =
        x == std::string::npos
            ? parse_int(v, 1, cfg.topology_nodes)
            : parse_int(std::string_view(v).substr(0, x), 1,
                        cfg.topology_nodes) &&
                  parse_int(std::string_view(v).substr(x + 1), 1,
                            cfg.topology_gpus);
    if (!ok) {
      bad_env("CAGMRES_TOPOLOGY", v,
              "want N or NxG (N nodes of G devices, positive integers)");
    }
  }

  if (const std::string v = read("CAGMRES_COMPRESS"); !v.empty()) {
    try {
      cfg.halo_codec = parse_codec_config(v);
    } catch (const Error& e) {
      bad_env("CAGMRES_COMPRESS", v, e.what());
    }
  }
  return cfg;
}

const EnvConfig& env_config() {
  static const EnvConfig cfg = parse_env_config(
      [](const char* name) -> const char* { return std::getenv(name); });
  return cfg;
}

Counters Counters::operator-(const Counters& rhs) const {
  Counters out(static_cast<int>(dev_flops.size()));
  for (std::size_t d = 0; d < dev_flops.size(); ++d) {
    out.dev_flops[d] = dev_flops[d] - rhs.dev_flops[d];
    out.dev_bytes[d] = dev_bytes[d] - rhs.dev_bytes[d];
    out.dev_kernels[d] = dev_kernels[d] - rhs.dev_kernels[d];
  }
  out.host_flops = host_flops - rhs.host_flops;
  out.d2h_bytes = d2h_bytes - rhs.d2h_bytes;
  out.h2d_bytes = h2d_bytes - rhs.h2d_bytes;
  out.d2h_msgs = d2h_msgs - rhs.d2h_msgs;
  out.h2d_msgs = h2d_msgs - rhs.h2d_msgs;
  out.net_bytes = net_bytes - rhs.net_bytes;
  out.net_msgs = net_msgs - rhs.net_msgs;
  out.peer_bytes = peer_bytes - rhs.peer_bytes;
  out.peer_msgs = peer_msgs - rhs.peer_msgs;
  out.d2h_logical_bytes = d2h_logical_bytes - rhs.d2h_logical_bytes;
  out.h2d_logical_bytes = h2d_logical_bytes - rhs.h2d_logical_bytes;
  out.net_logical_bytes = net_logical_bytes - rhs.net_logical_bytes;
  out.peer_logical_bytes = peer_logical_bytes - rhs.peer_logical_bytes;
  for (int k = 0; k < kKernelClasses; ++k) {
    out.kernel_flops[static_cast<std::size_t>(k)] =
        kernel_flops[static_cast<std::size_t>(k)] -
        rhs.kernel_flops[static_cast<std::size_t>(k)];
    out.kernel_seconds[static_cast<std::size_t>(k)] =
        kernel_seconds[static_cast<std::size_t>(k)] -
        rhs.kernel_seconds[static_cast<std::size_t>(k)];
    out.kernel_count[static_cast<std::size_t>(k)] =
        kernel_count[static_cast<std::size_t>(k)] -
        rhs.kernel_count[static_cast<std::size_t>(k)];
  }
  return out;
}

double Counters::total_dev_flops() const {
  return std::accumulate(dev_flops.begin(), dev_flops.end(), 0.0);
}

Machine::Machine(int n_devices, PerfModel model)
    : Machine(env_config().topology_for(n_devices), model) {}

Machine::Machine(Topology topology, PerfModel model)
    : model_(model),
      topo_(topology),
      clock_(topology.n_devices()),
      counters_(topology.n_devices()),
      dev_ops_(static_cast<std::size_t>(topology.n_devices()), 0),
      dev_busy_(static_cast<std::size_t>(topology.n_devices()), 0.0),
      dev_poison_(static_cast<std::size_t>(topology.n_devices()), 0),
      halo_codec_(env_config().halo_codec),
      pool_(topology.n_devices(), env_config().host_workers) {
  CAGMRES_REQUIRE(topology.n_nodes >= 1 && topology.gpus_per_node >= 1,
                  "empty topology");
  dev_map_.resize(static_cast<std::size_t>(topology.n_devices()));
  std::iota(dev_map_.begin(), dev_map_.end(), 0);
  faults_.set_gpus_per_node(topo_.gpus_per_node);
}

void Machine::set_hier_reduce(bool on) {
  if (!on) {
    throw Error("set_hier_reduce(false): the flat multi-node fold was "
                "removed; the node-leader fold is the only schedule");
  }
}

void Machine::set_topology(int nodes, int devices_per_node) {
  CAGMRES_REQUIRE(nodes >= 1 && devices_per_node >= 1 &&
                      nodes * devices_per_node == n_physical_devices(),
                  "set_topology: nodes * devices_per_node must equal the "
                  "constructed device count");
  CAGMRES_REQUIRE(n_devices() == n_physical_devices(),
                  "set_topology: cannot reshape after a retirement");
  topo_ = Topology{nodes, devices_per_node};
  faults_.set_gpus_per_node(devices_per_node);
}

std::vector<int> Machine::dead_logical_devices() const {
  std::vector<int> out;
  for (int d = 0; d < n_devices(); ++d) {
    if (faults_.device_dead(physical_device(d))) out.push_back(d);
  }
  return out;
}

void Machine::retire_device(int d) {
  CAGMRES_REQUIRE(0 <= d && d < n_devices(), "retire: bad logical device");
  CAGMRES_REQUIRE(n_devices() > 1, "retire: cannot retire the last device");
  // Retirement happens inside a solver's fault handler; finish (or discard)
  // whatever the pool still holds without letting a latched exception
  // preempt the recovery already in progress.
  sync_nothrow();
  dev_map_.erase(dev_map_.begin() + d);
}

std::int64_t Machine::poll_faults_kernel(int logical, int physical) {
  const auto p = static_cast<std::size_t>(physical);
  const std::int64_t op = ++dev_ops_[p];
  const double now = clock_.device_time(physical);
  if (faults_.poll_device_fail(physical, now, op)) {
    if (tracing_) trace_.record_instant(physical, now, "fault:kill", phase_);
    // Drain before unwinding: the stack between here and the solver's
    // fault handler owns buffers that closures still queued on the
    // surviving devices' streams may reference.
    sync_nothrow();
    throw Error("simulated device " + std::to_string(physical) + " failed",
                ErrorCode::kDeviceFault, logical);
  }
  if (faults_.poll_kernel_nan(physical, now, op)) {
    if (tracing_) trace_.record_instant(physical, now, "fault:nan", phase_);
    dev_poison_[p] = 1;
  }
  return op;
}

std::int64_t Machine::poll_faults_transfer_pre(int logical, int physical,
                                               bool cross_net,
                                               double* extra_stall) {
  const auto p = static_cast<std::size_t>(physical);
  const std::int64_t op = ++dev_ops_[p];
  const double now = clock_.device_time(physical);
  if (faults_.poll_device_fail(physical, now, op)) {
    if (tracing_) trace_.record_instant(physical, now, "fault:kill", phase_);
    sync_nothrow();  // see poll_faults_kernel: drain before unwinding
    throw Error("simulated device " + std::to_string(physical) +
                    " failed (transfer)",
                ErrorCode::kDeviceFault, logical);
  }
  if (faults_.poll_transfer_stall(physical, now, op)) {
    if (tracing_) trace_.record_instant(physical, now, "fault:stall", phase_);
    *extra_stall = faults_.stall_seconds();
    faults_.stats().stall_seconds += *extra_stall;
  }
  // Inter-node link degradation only touches messages that actually cross
  // the network; node-local and coordinating-node traffic never polls it.
  if (cross_net && faults_.poll_link_stall(physical, now, op)) {
    if (tracing_) {
      trace_.record_instant(physical, now, "fault:linkstall", phase_);
    }
    *extra_stall += faults_.stall_seconds();
    faults_.stats().stall_seconds += faults_.stall_seconds();
  }
  return op;
}

void Machine::retry_corrupt_transfer(int logical, int physical,
                                     double resend_s, std::int64_t op,
                                     bool cross_net, const char* name) {
  // Checksum verification: an injected corruption fails it and forces a
  // charged backoff + retransmission; the payload in host memory is the
  // authoritative copy, so a verified transfer always delivers clean data.
  // Cross-network messages are additionally exposed to the inter-node
  // link's own corruption rate, and each retry re-rolls both.
  double backoff = kRetryBackoffS;
  int attempts = 0;
  while (faults_.poll_transfer_corrupt(physical, clock_.device_time(physical),
                                       op) ||
         (cross_net && faults_.poll_link_corrupt(
                           physical, clock_.device_time(physical), op))) {
    if (tracing_) {
      trace_.record_instant(physical, clock_.device_time(physical),
                            "fault:corrupt", phase_);
    }
    if (attempts++ >= kMaxTransferRetries) {
      // Drain before unwinding, like the kill/NaN throws: host workers may
      // still hold tasks referencing stack buffers of the caller that is
      // about to unwind (use-after-free otherwise — found by the chaos
      // campaign as heap corruption under a corrupt storm with workers).
      sync_nothrow();
      throw Error("transfer to/from device " + std::to_string(physical) +
                      " still corrupt after " +
                      std::to_string(kMaxTransferRetries) + " retries",
                  ErrorCode::kRetriesExhausted, logical);
    }
    const double t = backoff + resend_s;
    clock_.async_transfer(physical, t);
    if (tracing_) {
      trace_.record(physical, clock_.device_time(physical) - t,
                    clock_.device_time(physical), name, phase_);
    }
    ++faults_.stats().transfer_retries;
    faults_.stats().retry_seconds += t;
    backoff *= kRetryBackoffMult;
  }
}

void Machine::check_deadline() {
  if (deadline_ <= 0.0 || clock_.elapsed() <= deadline_) return;
  if (tracing_) {
    trace_.record_instant(-1, clock_.elapsed(), "watchdog:deadline", phase_);
  }
  // Drain before unwinding, like the fault throws: workers may still hold
  // closures referencing buffers the unwind is about to destroy.
  sync_nothrow();
  throw Error("simulated watchdog: elapsed " + std::to_string(clock_.elapsed()) +
                  "s exceeded deadline " + std::to_string(deadline_) + "s",
              ErrorCode::kDeadlineExceeded);
}

void Machine::mark_phase() {
  const double now = clock_.elapsed();
  phases_.add(phase_, now - phase_mark_);
  phase_mark_ = now;
}

void Machine::set_phase(const std::string& phase) {
  mark_phase();
  phase_ = phase;
  phases_.set_current(phase);
}

void Machine::trace_instant(const std::string& name,
                            const std::string& phase) {
  if (tracing_) trace_.record_instant(-1, clock_.elapsed(), name, phase);
}

void Machine::charge_device(int d, Kernel k, double flops, double bytes,
                            double wait_s) {
  const int p = physical_device(d);
  if (faults_.armed()) poll_faults_kernel(d, p);
  const double t = model_.device_seconds(k, flops, bytes) + wait_s;
  clock_.device_advance(p, t);
  dev_busy_[static_cast<std::size_t>(p)] += t;
  if (tracing_) {
    trace_.record(p, clock_.device_time(p) - t, clock_.device_time(p),
                  kernel_name(k), phase_);
  }
  counters_.dev_flops[static_cast<std::size_t>(p)] += flops;
  counters_.dev_bytes[static_cast<std::size_t>(p)] += bytes;
  ++counters_.dev_kernels[static_cast<std::size_t>(p)];
  const auto ki = static_cast<std::size_t>(kernel_index(k));
  counters_.kernel_flops[ki] += flops;
  counters_.kernel_seconds[ki] += t;
  ++counters_.kernel_count[ki];
  mark_phase();
  check_deadline();
}

void Machine::charge_host(Kernel k, double flops, double bytes) {
  const double before = clock_.host_time();
  clock_.host_advance(model_.host_seconds(k, flops, bytes));
  if (tracing_) {
    trace_.record(-1, before, clock_.host_time(), kernel_name(k), phase_);
  }
  counters_.host_flops += flops;
  mark_phase();
  check_deadline();
}

void Machine::charge_transfer(int d, double bytes, double logical_bytes,
                              bool to_device, bool node_local,
                              const char* name, const char* retry_name) {
  // A message from a remote node travels GPU -> local host -> network ->
  // coordinating host; the serial path is folded into the device timeline
  // (the device-side data is in flight either way). Node-local messages
  // stay on the intra-node peer link and never touch the network.
  const int p = physical_device(d);
  const bool cross_net = !node_local && is_remote(d);
  double stall = 0.0;
  std::int64_t op = 0;
  if (faults_.armed()) {
    op = poll_faults_transfer_pre(d, p, cross_net, &stall);
  }
  double resend = node_local ? model_.peer_seconds(bytes)
                             : model_.transfer_seconds(bytes);
  double queue = 0.0;
  if (cross_net) {
    // The network hop serializes on the coordinating host's NIC: the
    // message reaches the wire once its PCIe stage (plus any injected
    // stall) completes, then waits for the link direction to free up.
    // Charging runs on the main thread in program order, so the queue is
    // deterministic for any worker count.
    const double net = model_.net_seconds(bytes);
    const double ready = clock_.device_time(p) + resend + stall;
    double& link = net_free_[to_device ? 1 : 0];
    const double start = std::max(ready, link);
    queue = start - ready;
    link = start + net;
    resend += net;
    counters_.net_bytes += bytes;
    counters_.net_logical_bytes += logical_bytes;
    ++counters_.net_msgs;
  }
  const double t = resend + stall + queue;
  clock_.async_transfer(p, t);
  // Busy excludes the injected stall, the NIC queue wait, and the retries
  // below: latency-only faults and contention (both of which depend on
  // mode-sensitive timestamps) must not perturb the reduce fold order, or
  // "identical numerics, strictly more time" would stop holding.
  dev_busy_[static_cast<std::size_t>(p)] += resend;
  if (tracing_) {
    trace_.record(p, clock_.device_time(p) - t, clock_.device_time(p), name,
                  phase_);
  }
  if (node_local) {
    counters_.peer_bytes += bytes;
    counters_.peer_logical_bytes += logical_bytes;
    ++counters_.peer_msgs;
  } else if (to_device) {
    counters_.h2d_bytes += bytes;
    counters_.h2d_logical_bytes += logical_bytes;
    ++counters_.h2d_msgs;
  } else {
    counters_.d2h_bytes += bytes;
    counters_.d2h_logical_bytes += logical_bytes;
    ++counters_.d2h_msgs;
  }
  if (faults_.armed()) {
    retry_corrupt_transfer(d, p, resend, op, cross_net, retry_name);
  }
  mark_phase();
  check_deadline();
}

void Machine::d2h(int d, double bytes, double logical_bytes) {
  if (logical_bytes < 0.0) logical_bytes = bytes;
  charge_transfer(d, bytes, logical_bytes, false, false, "d2h", "retry:d2h");
}

void Machine::h2d(int d, double bytes, double logical_bytes) {
  if (logical_bytes < 0.0) logical_bytes = bytes;
  charge_transfer(d, bytes, logical_bytes, true, false, "h2d", "retry:h2d");
}

void Machine::d2h_node(int d, double bytes, double logical_bytes) {
  if (logical_bytes < 0.0) logical_bytes = bytes;
  charge_transfer(d, bytes, logical_bytes, false, true, "d2h_node",
                  "retry:d2h_node");
}

void Machine::h2d_node(int d, double bytes, double logical_bytes) {
  if (logical_bytes < 0.0) logical_bytes = bytes;
  charge_transfer(d, bytes, logical_bytes, true, true, "h2d_node",
                  "retry:h2d_node");
}

double Machine::nic_dma(double bytes, double ready_s) {
  // Node-host to node-host DMA: queues on the into-host NIC direction like
  // a d2h network hop, but no device stream carries it — the caller holds
  // the arrival time (typically inside an Event) and charges any wait
  // itself. No fault polls: link faults are scoped to device-addressed
  // messages, and the mirror client re-validates on restore.
  const double net = model_.net_seconds(bytes);
  const double start = std::max(ready_s, net_free_[0]);
  net_free_[0] = start + net;
  counters_.net_bytes += bytes;
  counters_.net_logical_bytes += bytes;
  ++counters_.net_msgs;
  return start + net;
}

Event Machine::record_event(int d) {
  Event e;
  e.physical = physical_device(d);
  e.t = clock_.device_time(e.physical);
  e.ticket = pool_.ticket(e.physical);
  if (tracing_) trace_.record_instant(e.physical, e.t, "event:record", phase_);
  return e;
}

void Machine::stream_wait_event(int d, const Event& e) {
  CAGMRES_REQUIRE(e.physical >= 0, "wait on default-constructed event");
  const int p = physical_device(d);
  mark_phase();
  clock_.device_wait_time(p, e.t);
  if (tracing_) {
    trace_.record_instant(p, clock_.device_time(p), "event:stream_wait",
                          phase_);
  }
  // Wall-clock half: closures later enqueued on p must not run before the
  // producer's recorded prefix. Same-stream waits are free (FIFO order).
  pool_.enqueue_wait(p, e.physical, e.ticket);
}

void Machine::host_wait_event(const Event& e) {
  CAGMRES_REQUIRE(e.physical >= 0, "wait on default-constructed event");
  // Wall-clock half first: the host is about to read data produced by the
  // recorded closures. Unlike host_wait(), only the event's prefix of that
  // one stream is drained — later closures and other streams keep running.
  pool_.wait_ticket(e.physical, e.ticket);
  mark_phase();
  clock_.host_wait_time(e.t);
  if (tracing_) {
    trace_.record_instant(-1, clock_.host_time(), "event:host_wait", phase_);
  }
}

void Machine::reset() {
  sync_nothrow();
  clock_.reset();
  counters_ = Counters(n_physical_devices());
  phases_.clear();
  trace_.clear();
  faults_.reset();
  dev_map_.resize(static_cast<std::size_t>(n_physical_devices()));
  std::iota(dev_map_.begin(), dev_map_.end(), 0);
  std::fill(dev_ops_.begin(), dev_ops_.end(), 0);
  std::fill(dev_busy_.begin(), dev_busy_.end(), 0.0);
  std::fill(dev_poison_.begin(), dev_poison_.end(), 0);
  net_free_[0] = net_free_[1] = 0.0;
  phase_mark_ = 0.0;
}

DistVec::DistVec(const std::vector<int>& rows_per_device) {
  part_.reserve(rows_per_device.size());
  for (const int r : rows_per_device) {
    CAGMRES_REQUIRE(r >= 0, "negative block size");
    part_.emplace_back(static_cast<std::size_t>(r), 0.0);
  }
}

int DistVec::total_rows() const {
  int n = 0;
  for (const auto& p : part_) n += static_cast<int>(p.size());
  return n;
}

void DistVec::assign_from_host(const std::vector<double>& x) {
  CAGMRES_REQUIRE(static_cast<int>(x.size()) == total_rows(),
                  "host vector size mismatch");
  std::size_t off = 0;
  for (auto& p : part_) {
    std::copy(x.begin() + static_cast<std::ptrdiff_t>(off),
              x.begin() + static_cast<std::ptrdiff_t>(off + p.size()),
              p.begin());
    off += p.size();
  }
}

std::vector<double> DistVec::to_host() const {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(total_rows()));
  for (const auto& p : part_) out.insert(out.end(), p.begin(), p.end());
  return out;
}

DistMultiVec::DistMultiVec(const std::vector<int>& rows_per_device, int cols)
    : cols_(cols) {
  CAGMRES_REQUIRE(cols >= 0, "negative column count");
  part_.reserve(rows_per_device.size());
  for (const int r : rows_per_device) {
    CAGMRES_REQUIRE(r >= 0, "negative block size");
    part_.emplace_back(r, cols);
  }
}

int DistMultiVec::total_rows() const {
  int n = 0;
  for (const auto& p : part_) n += p.rows();
  return n;
}

}  // namespace cagmres::sim
