// Deterministic, seeded fault injection for the simulated machine.
//
// The FaultInjector is owned by Machine and consulted from every charged
// device kernel and every host<->device transfer. It supports two kinds of
// schedule:
//   - one-shot events, fired when a target device's simulated time or
//     per-device op counter reaches a trigger (kill a device, poison one
//     kernel's output, corrupt or stall one transfer);
//   - continuous rates, drawn per qualifying operation from the injector's
//     seeded RNG (e.g. "corrupt 1% of transfers").
// Every injection is appended to the injection log and counted in
// FaultStats, and — when the machine is tracing — recorded on the victim's
// simulated timeline, so the cost of faults and of recovering from them is
// measurable in the same currency as everything else.
//
// Determinism: all randomness flows through one splitmix64-seeded xoshiro
// stream that is consumed in program order, so a given schedule (seed +
// events + rates) produces bit-identical fault sequences, SolveStats, and
// simulated times on every run. An injector with no events and all-zero
// rates is "unarmed": the machine then skips every poll and charges exactly
// what it charged before this layer existed (zero-fault no-regression).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace cagmres::sim {

/// The injectable fault classes.
enum class FaultKind {
  kDeviceFail,       ///< permanent device failure: every later op throws
  kKernelNan,        ///< transient kernel fault: the op's output is NaN
  kTransferCorrupt,  ///< transfer fails its checksum and must be resent
  kTransferStall,    ///< transfer is charged extra latency
  kNodeFail,         ///< correlated: every device in one node fails at once
  kLinkCorrupt,      ///< inter-node link corruption (cross-node only; rate)
  kLinkStall,        ///< inter-node link stall (cross-node only; rate)
};

std::string to_string(FaultKind kind);

/// One scheduled (one-shot) fault. `device` is a physical device id, or -1
/// for "whichever device reaches the trigger first". Exactly one of
/// `at_time` (simulated seconds) and `at_op` (per-device op counter) must
/// be set; the event fires on the first qualifying op at/after the trigger.
/// For kNodeFail the `device` field holds a *node* id (or -1 for "whichever
/// node's device reaches the trigger first"); firing kills every device in
/// that node atomically.
struct FaultEvent {
  FaultKind kind = FaultKind::kKernelNan;
  int device = -1;
  double at_time = -1.0;        ///< simulated-seconds trigger (< 0: unused)
  std::int64_t at_op = -1;      ///< op-count trigger (< 0: unused)
  bool fired = false;
};

/// Continuous per-operation fault probabilities (seeded-RNG driven).
struct FaultRates {
  double kernel_nan = 0.0;        ///< per device kernel
  double transfer_corrupt = 0.0;  ///< per transfer (each retry re-rolls)
  double transfer_stall = 0.0;    ///< per transfer
  double link_corrupt = 0.0;      ///< per *cross-node* transfer only
  double link_stall = 0.0;        ///< per *cross-node* transfer only
  double node_corrupt = 0.0;      ///< corrupt storm scoped to `corrupt_node`
  int corrupt_node = -1;          ///< node the storm targets (-1: disabled)
};

/// Injection and recovery-cost counters. Injections are counted here by the
/// injector; the retry/stall costs are filled in by the Machine, which is
/// the party that charges them to the simulated clock.
struct FaultStats {
  std::int64_t injected_total = 0;
  int device_failures = 0;
  int node_failures = 0;              ///< correlated whole-node losses
  std::int64_t kernel_nans = 0;
  std::int64_t transfer_corruptions = 0;
  std::int64_t transfer_stalls = 0;
  std::int64_t link_corruptions = 0;  ///< cross-node scoped corruptions
  std::int64_t link_stalls = 0;       ///< cross-node scoped stalls
  std::int64_t transfer_retries = 0;  ///< retransmissions charged
  double retry_seconds = 0.0;         ///< sim seconds of backoff + resend
  double stall_seconds = 0.0;         ///< sim seconds of injected stalls

  FaultStats operator-(const FaultStats& rhs) const;
};

/// One line of the injection log.
struct InjectionRecord {
  FaultKind kind;
  int device;        ///< physical device id
  double time;       ///< simulated seconds at injection
  std::int64_t op;   ///< the victim device's op counter at injection
};

/// The seeded fault scheduler (see file comment). Polls take the *physical*
/// device id, that device's current simulated time, and its op counter.
class FaultInjector {
 public:
  void schedule(const FaultEvent& event);
  void set_rates(const FaultRates& rates);
  void set_seed(std::uint64_t seed);
  /// Node geometry for the correlated fault kinds (kNodeFail, node storms):
  /// physical device d lives on node d / gpus_per_node. Machine keeps this
  /// in sync with its Topology; under the flat default (1) each node is a
  /// single-device domain, so a node kill degenerates to a device kill.
  void set_gpus_per_node(int gpus) { gpus_per_node_ = gpus < 1 ? 1 : gpus; }
  int gpus_per_node() const { return gpus_per_node_; }
  int node_of(int device) const { return device / gpus_per_node_; }
  /// Extra latency one injected stall adds to a transfer.
  void set_stall_seconds(double s) { stall_seconds_ = s; }
  double stall_seconds() const { return stall_seconds_; }

  /// True when any event is scheduled or any rate is positive. Unarmed
  /// injectors must leave the machine's behavior bit-identical to a build
  /// without fault injection.
  bool armed() const { return armed_; }

  bool poll_device_fail(int device, double now, std::int64_t op);
  bool poll_kernel_nan(int device, double now, std::int64_t op);
  bool poll_transfer_corrupt(int device, double now, std::int64_t op);
  bool poll_transfer_stall(int device, double now, std::int64_t op);
  /// Cross-node-only polls: the machine consults these in addition to the
  /// transfer polls, but only for messages that actually cross the network,
  /// so intra-node traffic is immune to link degradation by construction.
  bool poll_link_corrupt(int device, double now, std::int64_t op);
  bool poll_link_stall(int device, double now, std::int64_t op);

  /// True once a kDeviceFail event fired for this device.
  bool device_dead(int device) const;

  FaultStats& stats() { return stats_; }
  const FaultStats& stats() const { return stats_; }
  const std::vector<InjectionRecord>& log() const { return log_; }

  /// The configured schedule, readable back (the chaos engine round-trips
  /// --faults specs through here).
  const std::vector<FaultEvent>& events() const { return events_; }
  const FaultRates& rates() const { return rates_; }
  std::uint64_t seed() const { return seed_; }

  /// Clears fired flags, stats, the log, and reseeds the RNG, so the same
  /// schedule replays identically (Machine::reset calls this).
  void reset();

 private:
  bool poll_scheduled(FaultKind kind, int device, double now,
                      std::int64_t op);
  bool roll(double prob);
  void record(FaultKind kind, int device, double now, std::int64_t op);

  std::vector<FaultEvent> events_;
  FaultRates rates_;
  std::uint64_t seed_ = 0x5eedULL;
  Rng rng_{0x5eedULL};
  double stall_seconds_ = 250e-6;  ///< default: 10x the PCIe latency
  int gpus_per_node_ = 1;          ///< node geometry for correlated kinds
  std::vector<int> dead_;          ///< physical ids of failed devices
  FaultStats stats_;
  std::vector<InjectionRecord> log_;
  bool armed_ = false;
};

/// Parses a fault-schedule spec into `out` (used by the --faults flag):
///   spec    := elem (';' elem)*
///   elem    := "seed=" uint | "stall_us=" float
///            | kind ':' (rate | target)
///            | "nodecorrupt:n" int "@p=" float (node-scoped corrupt storm)
///   kind    := "kill" | "nan" | "corrupt" | "stall"
///            | "nodekill" | "linkcorrupt" | "linkstall"
///   rate    := "p=" float        (not valid for kill/nodekill; the only
///                                 form for linkcorrupt/linkstall)
///   target  := ("d" int | "n" int | "*") '@' trigger   (n<k> = nodekill)
///   trigger := "t=" time | "op=" uint          (time suffix: s, ms, us)
/// Example: "seed=42;nodekill:n1@t=5ms;linkcorrupt:p=0.01;nan:p=0.001"
/// Throws Error(kBadInput) on malformed specs.
void parse_fault_spec(const std::string& spec, FaultInjector& out);

}  // namespace cagmres::sim
