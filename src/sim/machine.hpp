// The simulated multi-GPU machine: devices, clock, counters, and the
// distributed data containers the solvers operate on.
//
// All "device memory" is host memory, but the containers keep per-device
// blocks in separate allocations and all access is routed through the
// charged kernels in device_blas.hpp, so the communication structure of the
// real implementation is preserved and priced.
#pragma once

#include <array>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "blas/matrix.hpp"
#include "sim/clock.hpp"
#include "sim/codec.hpp"
#include "sim/fault.hpp"
#include "sim/host_pool.hpp"
#include "sim/perf_model.hpp"
#include "sim/phase_timers.hpp"
#include "sim/trace.hpp"

namespace cagmres::sim {

/// Number of device kernel classes (size of the Kernel enum).
inline constexpr int kKernelClasses = 13;
/// Index of a kernel class into the per-class counter arrays.
inline int kernel_index(Kernel k) { return static_cast<int>(k); }

/// Aggregate operation counters (flops, bytes, messages). Subtractable so
/// callers can measure a region by diffing snapshots.
struct Counters {
  std::vector<double> dev_flops;    ///< per device
  std::vector<double> dev_bytes;    ///< per device
  std::vector<std::int64_t> dev_kernels;
  double host_flops = 0.0;
  double d2h_bytes = 0.0;
  double h2d_bytes = 0.0;
  std::int64_t d2h_msgs = 0;
  std::int64_t h2d_msgs = 0;
  double net_bytes = 0.0;      ///< bytes that crossed the inter-node network
  std::int64_t net_msgs = 0;   ///< messages that crossed it
  double peer_bytes = 0.0;     ///< bytes over intra-node (NVLink-class) links
  std::int64_t peer_msgs = 0;  ///< messages over them

  /// Logical (pre-codec) byte counts for the same messages. Equal to the
  /// wire counts above when no transfer codec is armed; with a codec on,
  /// wire/logical is the achieved compression ratio (DESIGN.md §14).
  double d2h_logical_bytes = 0.0;
  double h2d_logical_bytes = 0.0;
  double net_logical_bytes = 0.0;
  double peer_logical_bytes = 0.0;

  /// Per-kernel-class aggregates across all devices (indexed by
  /// kernel_index): where the flops and the simulated kernel time went.
  std::array<double, kKernelClasses> kernel_flops{};
  std::array<double, kKernelClasses> kernel_seconds{};
  std::array<std::int64_t, kKernelClasses> kernel_count{};

  explicit Counters(int n_devices = 0)
      : dev_flops(static_cast<std::size_t>(n_devices), 0.0),
        dev_bytes(static_cast<std::size_t>(n_devices), 0.0),
        dev_kernels(static_cast<std::size_t>(n_devices), 0) {}

  Counters operator-(const Counters& rhs) const;
  double total_dev_flops() const;
  std::int64_t total_msgs() const { return d2h_msgs + h2d_msgs; }
};

/// Multi-node topology for the paper-§VII projection: `n_nodes` compute
/// nodes with `gpus_per_node` devices each. Devices on node 0 talk to the
/// coordinating host over PCIe only; devices on other nodes pay an
/// additional network hop per message, and all network hops serialize on
/// the coordinating host's NIC (one in-flight message per direction).
/// On more than one node, collectives fold intra-node first — one
/// inter-node message per node instead of one per device (DESIGN.md §13).
struct Topology {
  int n_nodes = 1;
  int gpus_per_node = 1;

  int n_devices() const { return n_nodes * gpus_per_node; }
  int node_of(int device) const { return device / gpus_per_node; }
};

/// A recorded point on one device's stream — the cudaEvent analogue.
///
/// Charged half: `t` is the producing stream's simulated timestamp at record
/// time; a waiter advances its own timeline to max(own, t). Wall-clock half:
/// `ticket` marks every closure enqueued to the stream so far, so a waiter
/// blocks on exactly the work that produced the buffer, not a full drain.
/// The event names the *physical* stream, so it stays meaningful across
/// retire_device relabelling (waiting on a retired producer is safe: its
/// frozen timeline and drained stream make the wait free).
struct Event {
  int physical = -1;        ///< physical stream the event was recorded on
  double t = 0.0;           ///< simulated timestamp of the producing op
  std::int64_t ticket = 0;  ///< host-pool enqueue ticket (wall-clock half)
};

/// Construction-time Machine defaults from the CAGMRES_* environment. Each
/// field's initializer is what an unset (or empty) variable gives; the
/// Machine setters still override any of them after construction.
struct EnvConfig {
  /// CAGMRES_HOST_WORKERS: a non-negative integer, clamped to the device
  /// count like set_host_workers (0 = serial inline mode).
  int host_workers = 0;
  /// CAGMRES_TOPOLOGY: "N" (N nodes, devices split evenly) or "NxG" (N
  /// nodes of G devices), positive integers. 0 = not requested.
  int topology_nodes = 0;
  int topology_gpus = 0;  ///< 0 with nodes set = the bare "N" form
  /// CAGMRES_COMPRESS: the parse_codec_config grammar.
  Codec halo_codec = Codec::kNone;

  /// Topology for a machine built by device count: the requested shape
  /// when it tiles `n_devices` exactly, else one flat node — the same
  /// binary drives machines of many sizes, and a 2x4 request must not
  /// blow up the 3-device paper testbed.
  Topology topology_for(int n_devices) const;
};

/// Parses the CAGMRES_* variables, reading each through `lookup` (nullptr
/// = unset). Unset or empty variables keep the defaults; a malformed value
/// throws Error(kBadInput) whose message names the variable.
EnvConfig parse_env_config(
    const std::function<const char*(const char*)>& lookup);

/// The process environment through parse_env_config, parsed once, on the
/// first call (the first Machine built). The only environment read in the
/// library.
const EnvConfig& env_config();

// ---- Compatibility shims ----------------------------------------------
// The solvers have one sync schedule (per-buffer record/wait pairs,
// DESIGN.md §10) and one multi-node reduction schedule (the node-leader
// fold and broadcast, DESIGN.md §13). perfbench/workloads.cpp predates
// both and still selects them explicitly; the benchmark sources stay
// byte-stable so every commit measures the same workloads, so SyncMode
// and the two Machine setters marked "shim" below exist only for it.
// Nothing else may use them.
enum class SyncMode { kEvent };

/// The simulated node: n devices + host, a perf model, a clock, counters,
/// and phase attribution of elapsed time.
///
/// Devices are addressed by *logical* index 0..n_devices()-1. Initially the
/// logical and physical (timeline/counter) ids coincide; when a device
/// suffers a permanent injected failure the solver calls retire_device and
/// the surviving physical devices are relabelled 0..n_devices()-2, so all
/// existing device loops keep working on the shrunken machine.
class Machine {
 public:
  /// Shim (see SyncMode): events are the only sync schedule.
  void set_sync_mode(SyncMode) {}
  /// Shim (see SyncMode): the hierarchical fold is the only multi-node
  /// schedule. true is a no-op; false throws Error(kBadInput) rather than
  /// silently running a schedule the caller did not ask for.
  void set_hier_reduce(bool on);

  /// Machine with `n_devices` GPUs: one node (the paper's testbed shape)
  /// unless CAGMRES_TOPOLOGY requests a shape that tiles the count. Both
  /// constructors apply env_config() and throw when it is malformed.
  Machine(int n_devices, PerfModel model = {});

  /// Multi-node machine (the §VII projection); CAGMRES_TOPOLOGY never
  /// overrides an explicit topology.
  Machine(Topology topology, PerfModel model = {});

  /// Active (non-retired) device count.
  int n_devices() const { return static_cast<int>(dev_map_.size()); }
  /// Devices the machine was constructed with (counters/timelines size).
  int n_physical_devices() const { return clock_.n_devices(); }
  /// Physical timeline id behind logical device d.
  int physical_device(int d) const {
    return dev_map_[static_cast<std::size_t>(d)];
  }
  const Topology& topology() const { return topo_; }
  /// Reshapes the machine into `nodes` fault domains of `devices_per_node`
  /// devices each (nodes * devices_per_node must equal the constructed
  /// device count, and no device may have been retired yet). Every transfer,
  /// retry, and event timestamp from here on is priced through the two-level
  /// rates; the fault injector's node geometry follows along. The flat
  /// default (1 node) is bitwise-identical to a machine without this call.
  void set_topology(int nodes, int devices_per_node);
  /// Node the device lives on (0 = the coordinating node).
  int node_of(int d) const { return topo_.node_of(physical_device(d)); }
  /// True when messages to/from this device cross the network.
  bool is_remote(int d) const { return node_of(d) != 0; }
  const PerfModel& perf() const { return model_; }
  PerfModel& perf() { return model_; }
  Clock& clock() { return clock_; }
  const Clock& clock() const { return clock_; }
  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }
  PhaseTimers& phases() { return phases_; }

  /// Charges a kernel of the given class to device d's timeline.
  /// `wait_s` is in-kernel dependency wait added to the modeled time (the
  /// sync-free trisolve's critical path, precond/trisolve.hpp).
  void charge_device(int d, Kernel k, double flops, double bytes,
                     double wait_s = 0.0);

  /// Charges host-side work.
  void charge_host(Kernel k, double flops, double bytes);

  /// Posts an async device-to-host message from device d.
  ///
  /// `bytes` is what actually crosses the wire; `logical_bytes` (default:
  /// same) is the uncompressed payload size, tracked separately so
  /// TierTraffic can report the achieved codec ratio. Call sites that ship
  /// a coded payload pass wire_bytes(n) / 8*n (DESIGN.md §14).
  void d2h(int d, double bytes, double logical_bytes = -1.0);

  /// Posts an async host-to-device message to device d.
  void h2d(int d, double bytes, double logical_bytes = -1.0);

  /// Node-local transfers: device d <-> its *own node's* host memory over
  /// the intra-node (NVLink-class) link. Never crosses the network, so
  /// inter-node link faults cannot touch them. These are the hierarchical
  /// checkpointing fast path; flat-mode solvers never call them.
  void d2h_node(int d, double bytes, double logical_bytes = -1.0);
  void h2d_node(int d, double bytes, double logical_bytes = -1.0);

  /// Charges an inter-node NIC DMA of `bytes` out of node-host memory that
  /// becomes ready no earlier than `ready_s`: the message queues on the
  /// coordinating host's NIC (device->host direction) like any cross-node
  /// transfer and bumps the net byte/msg counters, but occupies no device
  /// stream. Returns the simulated arrival time. The checkpoint partner
  /// mirror is the client (DESIGN.md §12-§13).
  double nic_dma(double bytes, double ready_s);

  // --- halo transfer codec (DESIGN.md §14) ----------------------------
  /// Codec armed on the MPK halo exchange (none by default;
  /// CAGMRES_COMPRESS=halo=fp32 sets the construction-time default).
  Codec halo_codec() const { return halo_codec_; }
  void set_halo_codec(Codec c) { halo_codec_ = c; }
  /// Charges the fused (de)compression pass for a coded halo message of
  /// `n_values` doubles to device d's stream (no-op with no codec armed).
  /// 16 bytes per value: the pass reads the doubles and writes (or reads)
  /// the wire image through device memory once.
  void charge_codec(int d, double n_values) {
    if (halo_codec_ != Codec::kNone) {
      charge_device(d, Kernel::kCodec, 0.0, 16.0 * n_values);
    }
  }

  /// Host blocks until device d (and its copy queue) is done. Advances the
  /// simulated host clock AND drains device d's real work stream, so any
  /// enqueued kernel bodies have finished before host code reads the data.
  void host_wait(int d) {
    drain_device(d);
    mark_phase();
    clock_.host_wait(physical_device(d));
  }
  void host_wait_all() {
    sync();
    mark_phase();
    clock_.host_wait_all();
  }
  void sync_all() {
    sync();
    mark_phase();
    clock_.sync_all();
  }

  // --- per-buffer events (the cudaEvent analogue, DESIGN.md §10) -------
  /// Records an event on logical device d's stream after everything posted
  /// to it so far (cudaEventRecord analogue). Pure observation: charges
  /// nothing and never faults.
  Event record_event(int d);

  /// Cumulative charged seconds posted to logical device d's timeline —
  /// kernels and transfers, excluding event waits. Unlike the device clock
  /// (whose stalls depend on the waits), this is a pure function of the
  /// charge sequence, so it is identical for any worker count. The
  /// reduce-to-host fold order is keyed on it: the heaviest-loaded device is
  /// the likely straggler, and folding it last lets the other partials'
  /// summation hide under its transfer without the order ever depending on
  /// wait-sensitive timestamps.
  double device_busy(int d) const {
    return dev_busy_[static_cast<std::size_t>(physical_device(d))];
  }

  /// Normalization hook for charge paths that route a message through a
  /// node leader (the two-stage reduce/broadcast): adds `delta` to device
  /// d's busy account — clock and counters are untouched — so the
  /// fold-order permutation stays keyed on the direct device<->host charge
  /// of each message, independent of how it was routed. Same rationale as
  /// the stall exclusion in charge_transfer: busy is an ordering key, not
  /// a timing.
  void adjust_device_busy(int d, double delta) {
    dev_busy_[static_cast<std::size_t>(physical_device(d))] += delta;
  }

  /// Device d's next op cannot start before the event (cudaStreamWaitEvent
  /// analogue). Charged: d's timeline advances to max(own, event.t) — free
  /// when the event is already complete. Wall-clock: a closure on d's
  /// stream blocks until the producing stream has run the recorded prefix.
  void stream_wait_event(int d, const Event& e);

  /// Host blocks until the event (cudaEventSynchronize analogue). Charged:
  /// host advances to max(host, event.t). Wall-clock: blocks on exactly the
  /// closures the ticket covers (and collects that stream's latched worker
  /// exception, like drain), NOT on later work or other streams.
  void host_wait_event(const Event& e);

  // --- host execution engine ------------------------------------------
  /// Number of real worker threads backing the simulated devices (0 =
  /// everything runs inline on the calling thread).
  int host_workers() const { return pool_.n_workers(); }
  /// Drains outstanding work and rebuilds the pool with `n` workers, clamped
  /// to the device count (a worker beyond one per stream would idle).
  void set_host_workers(int n) { pool_.resize(n); }

  /// Enqueues a functional kernel body on logical device d's in-order
  /// stream. The simulated clock must already have been charged by the
  /// caller (on this thread, in program order) — the closure is pure
  /// computation on device-owned memory. The closure type is forwarded
  /// straight into the pool's ring slot: no std::function wrapper, no
  /// heap allocation on the dispatch path.
  template <typename F>
  void run_on_device(int d, F&& fn) {
    pool_.enqueue(physical_device(d), std::forward<F>(fn));
  }

  /// Wall-clock-only barrier on one device's stream. Does NOT touch the
  /// simulated clock — use host_wait(d) when the host should also pay for
  /// the wait in simulated time.
  void drain_device(int d) { pool_.drain(physical_device(d)); }

  /// Wall-clock-only barrier on every stream (the explicit host sync
  /// point). Simulated timelines are untouched, so adding sync() calls can
  /// never change a solver's charged timings.
  void sync() { pool_.drain_all(); }

  /// sync() for unwind paths: swallows latched worker exceptions.
  void sync_nothrow() noexcept { pool_.drain_all_nothrow(); }

  // --- fault injection and recovery -----------------------------------
  /// The fault scheduler; configure it (events/rates/seed) before solving.
  FaultInjector& fault_injector() { return faults_; }
  const FaultInjector& fault_injector() const { return faults_; }
  /// Shorthand: true when any fault schedule is configured. The resilient
  /// solver paths (checkpoints, scrubs) only engage when armed, so a
  /// zero-fault machine behaves bit-identically to one without this layer.
  bool faults_armed() const { return faults_.armed(); }

  // --- simulated watchdog ----------------------------------------------
  /// Arms a deadline on the simulated clock: the first charged operation
  /// that pushes the global elapsed time past `seconds` throws
  /// Error(kDeadlineExceeded) after draining the host pool, converting any
  /// runaway or hung schedule into a clean typed failure. 0 disables (the
  /// default). The deadline is machine configuration: reset() keeps it.
  /// The check itself charges nothing, so an untripped watchdog leaves
  /// every result and timing bit-identical to an unarmed machine.
  void set_deadline(double seconds) { deadline_ = seconds; }
  double deadline() const { return deadline_; }

  /// Consumes the "this device's last kernel was poisoned" latch set by an
  /// injected kKernelNan fault; the charged kernel wrappers call this and
  /// overwrite their output with NaN when it returns true.
  bool consume_kernel_fault(int d) {
    const auto p = static_cast<std::size_t>(physical_device(d));
    const bool hit = dev_poison_[p] != 0;
    dev_poison_[p] = 0;
    if (hit) ++kernel_faults_consumed_;
    return hit;
  }

  /// Monotone machine-wide count of consume_kernel_fault hits (never reset).
  /// A region that diffs it sees every poison its own charges applied,
  /// including a latch left pending by a charge that does not consume
  /// (charge_codec, the ILU numeric builds) and picked up inside the region.
  std::int64_t kernel_faults_consumed() const {
    return kernel_faults_consumed_;
  }

  /// Removes logical device d from the machine after a permanent failure;
  /// the surviving devices are relabelled contiguously. Requires at least
  /// one survivor. The physical timeline keeps its (frozen) history.
  void retire_device(int d);

  /// Logical ids of every device the injector currently marks dead,
  /// ascending. A correlated node kill marks the whole domain dead but
  /// throws from a single victim's poll; the solver's fault handler surveys
  /// the machine through this before deciding how much to retire.
  std::vector<int> dead_logical_devices() const;

  /// Attributes subsequently elapsed simulated time to `phase`.
  void set_phase(const std::string& phase);

  /// Records a zero-duration marker on the host timeline at the current
  /// simulated time when tracing (no-op otherwise). The numerical health
  /// monitor uses this for trips and escalation-ladder actions
  /// ("health:stagnation", "health:escalate:force_reorth", ...), mirroring how
  /// fault injections are marked on the victim device's timeline.
  void trace_instant(const std::string& name, const std::string& phase);

  /// Starts/stops recording every charged operation into trace().
  void enable_trace(bool on = true) { tracing_ = on; }
  bool tracing() const { return tracing_; }
  Trace& trace() { return trace_; }
  const Trace& trace() const { return trace_; }

  /// Resets the clock, counters, trace, phase attribution, retired-device
  /// map, and the fault injector's fired/stats state (the schedule itself
  /// is kept, so the same faults replay identically).
  void reset();

 private:
  void mark_phase();
  /// Shared body of the four transfer flavours: fault polls (link-scoped
  /// ones only when the message crosses the network), the charged time at
  /// the right rate, counters, and the checksum retry loop.
  void charge_transfer(int d, double bytes, double logical_bytes,
                       bool to_device, bool node_local, const char* name,
                       const char* retry_name);
  /// Pre-op fault gate for one physical device: advances its op counter,
  /// throws Error(kDeviceFault) if it is (or just became) dead, and latches
  /// the NaN-poison flag on an injected kernel fault. Returns the op index.
  std::int64_t poll_faults_kernel(int logical, int physical);
  std::int64_t poll_faults_transfer_pre(int logical, int physical,
                                        bool cross_net, double* extra_stall);
  /// Post-charge corruption check: charges bounded retransmissions with
  /// backoff (`resend_s` per attempt); throws Error(kRetriesExhausted) when
  /// the budget runs out. Cross-network messages additionally re-roll the
  /// inter-node link corruption rate.
  void retry_corrupt_transfer(int logical, int physical, double resend_s,
                              std::int64_t op, bool cross_net,
                              const char* name);
  /// Watchdog gate: throws Error(kDeadlineExceeded) once the armed deadline
  /// is crossed on the simulated clock (see set_deadline).
  void check_deadline();

  PerfModel model_;
  Topology topo_;
  Clock clock_;
  Counters counters_;
  PhaseTimers phases_;
  Trace trace_;
  FaultInjector faults_;
  double deadline_ = 0.0;  ///< simulated-seconds watchdog (0 = disarmed)
  std::vector<int> dev_map_;              ///< logical -> physical
  std::vector<std::int64_t> dev_ops_;     ///< per-physical op counter
  std::vector<double> dev_busy_;          ///< per-physical charged seconds
  std::vector<char> dev_poison_;          ///< per-physical NaN latch
  std::int64_t kernel_faults_consumed_ = 0;  ///< see kernel_faults_consumed
  /// Coordinating-host NIC: time each link direction frees up
  /// ([0] = into the host / d2h + DMA, [1] = out of the host / h2d).
  /// Cross-network messages queue here; see charge_transfer.
  double net_free_[2] = {0.0, 0.0};
  Codec halo_codec_ = Codec::kNone;  ///< halo-exchange transfer codec (§14)
  bool tracing_ = false;
  std::string phase_ = "other";
  double phase_mark_ = 0.0;
  HostPool pool_;  ///< last member: destroyed (joined) first
};

/// RAII barrier for the host pool: drains (nothrow) on scope exit. Solvers
/// declare one right after the device-lifetime buffers they enqueue work
/// on, so that on exceptional unwind no worker still references a buffer
/// that is about to be destroyed.
class DrainGuard {
 public:
  explicit DrainGuard(Machine& m) : m_(m) {}
  ~DrainGuard() { m_.sync_nothrow(); }
  DrainGuard(const DrainGuard&) = delete;
  DrainGuard& operator=(const DrainGuard&) = delete;

 private:
  Machine& m_;
};

/// Drain guard that fires ONLY on exceptional unwind. Functions that throw
/// (CAGMRES_REQUIRE and friends) while the pool may still hold closures
/// referencing their stack frames declare one of these at entry: the happy
/// path costs two integer reads and no barrier, while any exception leaving
/// the scope drains the pool before the frame's buffers are destroyed
/// (the PR 6 use-after-free class, TSan-pinned in sim_test).
class UnwindDrainGuard {
 public:
  explicit UnwindDrainGuard(Machine& m)
      : m_(m), depth_(std::uncaught_exceptions()) {}
  ~UnwindDrainGuard() {
    if (std::uncaught_exceptions() > depth_) m_.sync_nothrow();
  }
  UnwindDrainGuard(const UnwindDrainGuard&) = delete;
  UnwindDrainGuard& operator=(const UnwindDrainGuard&) = delete;

 private:
  Machine& m_;
  int depth_;
};

/// RAII phase label: attributes the enclosed region's elapsed simulated time.
class PhaseScope {
 public:
  PhaseScope(Machine& m, const std::string& phase)
      : m_(m), prev_(m.phases().current()) {
    m_.set_phase(phase);
  }
  ~PhaseScope() { m_.set_phase(prev_); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Machine& m_;
  std::string prev_;
};

/// A vector of length sum(rows) distributed block-row-wise over devices.
class DistVec {
 public:
  DistVec() = default;
  explicit DistVec(const std::vector<int>& rows_per_device);

  int n_parts() const { return static_cast<int>(part_.size()); }
  int local_rows(int d) const {
    return static_cast<int>(part_[static_cast<std::size_t>(d)].size());
  }
  int total_rows() const;

  double* local(int d) { return part_[static_cast<std::size_t>(d)].data(); }
  const double* local(int d) const {
    return part_[static_cast<std::size_t>(d)].data();
  }

  /// Copies from a host vector laid out in block order (no charge: setup).
  void assign_from_host(const std::vector<double>& x);

  /// Concatenates the blocks back to one host vector (no charge: teardown).
  std::vector<double> to_host() const;

 private:
  std::vector<std::vector<double>> part_;
};

/// An n x cols multivector distributed block-row-wise: device d owns a
/// (rows_d x cols) column-major panel. This is the Krylov basis V.
class DistMultiVec {
 public:
  DistMultiVec() = default;
  DistMultiVec(const std::vector<int>& rows_per_device, int cols);

  int n_parts() const { return static_cast<int>(part_.size()); }
  int cols() const { return cols_; }
  int local_rows(int d) const {
    return part_[static_cast<std::size_t>(d)].rows();
  }
  int total_rows() const;

  blas::DMat& local(int d) { return part_[static_cast<std::size_t>(d)]; }
  const blas::DMat& local(int d) const {
    return part_[static_cast<std::size_t>(d)];
  }

  /// Pointer to column j of device d's panel.
  double* col(int d, int j) { return local(d).col(j); }
  const double* col(int d, int j) const { return local(d).col(j); }

 private:
  std::vector<blas::DMat> part_;
  int cols_ = 0;
};

}  // namespace cagmres::sim
