// Simulated timelines for the host and each device.
//
// The execution model matches the paper's implementation style: the host
// posts asynchronous kernels/transfers to each device in a loop, devices run
// concurrently, and the host blocks only at explicit synchronization points.
// Each timeline is a scalar "busy until" timestamp:
//   - a device op appended to device d starts at dev[d] (its queue is FIFO);
//   - an async transfer posted by the host starts at max(dev[d], host) —
//     the host must have reached the post site, but does not block;
//   - a host wait advances host to the device's timestamp;
//   - elapsed() is the global maximum.
#pragma once

#include <algorithm>
#include <vector>

namespace cagmres::sim {

/// Per-entity simulated timelines (see file comment for the model).
class Clock {
 public:
  explicit Clock(int n_devices);

  int n_devices() const { return static_cast<int>(dev_.size()); }

  double host_time() const { return host_; }
  double device_time(int d) const { return dev_[static_cast<std::size_t>(d)]; }

  /// Host executes work for `s` seconds.
  void host_advance(double s) { host_ += s; }

  /// Device d executes a kernel for `s` seconds (enqueued after its current
  /// work; the host is assumed to have already posted it — callers post from
  /// host loops, so the start is also lower-bounded by the host time).
  void device_advance(int d, double s);

  /// Async transfer (either direction) of duration `s` involving device d:
  /// occupies the device's copy queue; the host only posts it.
  void async_transfer(int d, double s) { device_advance(d, s); }

  /// Host blocks until device d is idle.
  void host_wait(int d);

  /// Host blocks until the given simulated timestamp (used to wait for an
  /// event recorded mid-queue — e.g. a transfer posted BEFORE later kernels
  /// — so the host can overlap work with the kernels queued after it).
  void host_wait_time(double t) { host_ = std::max(host_, t); }

  /// Device d's next op cannot start before the given simulated timestamp
  /// (the cudaStreamWaitEvent analogue: the waiter's timeline advances to
  /// max(own, event), without involving the host).
  void device_wait_time(int d, double t);

  /// Host blocks until all devices are idle.
  void host_wait_all();

  /// Device d's next op cannot start before the host's current time
  /// (e.g. it consumes a value the host just produced).
  void device_wait_host(int d);

  /// Full barrier: all timelines jump to the global maximum.
  void sync_all();

  /// Global maximum over all timelines.
  double elapsed() const;

  /// Resets every timeline to zero.
  void reset();

 private:
  double host_ = 0.0;
  std::vector<double> dev_;
};

}  // namespace cagmres::sim
