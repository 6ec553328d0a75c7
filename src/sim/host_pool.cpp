#include "sim/host_pool.hpp"

#include <algorithm>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace cagmres::sim {

namespace {
// Memory-ordering note. The pool relies on two Dekker-style store-then-load
// pairs, both seq_cst so the "flag set after publication" race resolves the
// same way on every architecture:
//   producer: enqueued_[s].fetch_add  ; sleeping_.load
//   worker:   sleeping_.fetch_add     ; enqueued_/completed_ rescan
// and symmetrically for completions vs host_waiters_. Either the publisher
// sees the flag and takes the (locked) notify slow path, or the flagged
// thread's rescan sees the publication and never sleeps. The mutex is only
// ever taken at those edges, so a burst of N enqueues onto a busy worker
// costs N atomic RMWs and zero lock round-trips.
constexpr auto kSc = std::memory_order_seq_cst;
constexpr auto kRelaxed = std::memory_order_relaxed;
}  // namespace

HostPool::HostPool(int n_streams, int n_workers) : n_streams_(n_streams) {
  CAGMRES_REQUIRE(n_streams >= 0, "host pool: negative stream count");
  const auto ns = static_cast<std::size_t>(n_streams);
  rings_.resize(ns);
  for (auto& r : rings_) r = std::make_unique<Slot[]>(kRingSlots);
  enqueued_ = std::make_unique<std::atomic<std::int64_t>[]>(ns);
  completed_ = std::make_unique<std::atomic<std::int64_t>[]>(ns);
  broken_ = std::make_unique<std::atomic<bool>[]>(ns);
  for (std::size_t s = 0; s < ns; ++s) {
    enqueued_[s].store(0, kRelaxed);
    completed_[s].store(0, kRelaxed);
    broken_[s].store(false, kRelaxed);
  }
  latched_.resize(ns);
  spin_ = std::thread::hardware_concurrency() > 1 ? 64 : 0;
  spawn(n_workers);
}

HostPool::~HostPool() {
  drain_all_nothrow();
  stop_and_join();
}

void HostPool::spawn(int n_workers) {
  CAGMRES_REQUIRE(n_workers >= 0, "host pool: negative worker count");
  // A worker beyond one per stream would own no stream.
  n_workers_ = std::min(n_workers, n_streams_);  // before any thread reads it
  wstate_ = std::make_unique<std::atomic<int>[]>(
      static_cast<std::size_t>(n_workers_));
  for (int w = 0; w < n_workers_; ++w) wstate_[w].store(kAwake, kRelaxed);
  threads_.reserve(static_cast<std::size_t>(n_workers_));
  for (int w = 0; w < n_workers_; ++w) {
    threads_.emplace_back(
        [this, w] { worker_main(static_cast<std::size_t>(w)); });
  }
}

void HostPool::stop_and_join() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
  threads_.clear();
  n_workers_ = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = false;
  }
}

void HostPool::resize(int n_workers) {
  drain_all();
  if (n_workers == n_workers_) return;
  stop_and_join();
  spawn(n_workers);
}

void HostPool::bump_serial(std::size_t s) {
  enqueued_[s].store(enqueued_[s].load(kRelaxed) + 1, kRelaxed);
  completed_[s].store(completed_[s].load(kRelaxed) + 1, kRelaxed);
}

HostPool::Slot& HostPool::producer_slot(std::size_t s) {
  const std::int64_t h = enqueued_[s].load(kRelaxed);  // producer-owned
  // completed_ is the ring tail; a retired slot has already been destroyed
  // (destroy happens before complete_one), so once the wait returns the
  // slot is safe to reuse.
  if (h - completed_[s].load(kSc) >= static_cast<std::int64_t>(kRingSlots)) {
    wait_completed(s, h - static_cast<std::int64_t>(kRingSlots) + 1);
  }
  return rings_[s][static_cast<std::uint64_t>(h) & kRingMask];
}

void HostPool::publish(std::size_t s) {
  enqueued_[s].fetch_add(1, kSc);  // release: publishes the slot contents
  maybe_wake(s % static_cast<std::size_t>(n_workers_));
}

void HostPool::maybe_wake(std::size_t w) {
  int st = wstate_[w].load(kSc);
  if (st == kSleeping &&
      wstate_[w].compare_exchange_strong(st, kNotified, kSc)) {
    std::lock_guard<std::mutex> lk(mu_);
    cv_work_.notify_all();
  }
}

void HostPool::wake_sleeping_workers() {
  bool any = false;
  for (int w = 0; w < n_workers_; ++w) {
    int st = wstate_[w].load(kSc);
    if (st == kSleeping &&
        wstate_[w].compare_exchange_strong(st, kNotified, kSc)) {
      any = true;
    }
  }
  if (any) {
    std::lock_guard<std::mutex> lk(mu_);
    cv_work_.notify_all();
  }
}

void HostPool::complete_one(std::size_t s) {
  completed_[s].fetch_add(1, kSc);
  // Signal the host only on the completion that crosses its registered
  // target — a burst of completions costs one notify, not one each.
  if (host_wait_stream_.load(kSc) == static_cast<int>(s) &&
      completed_[s].load(kSc) >= host_wait_target_.load(kSc)) {
    std::lock_guard<std::mutex> lk(mu_);
    cv_done_.notify_all();
  }
  // A gate on another worker's stream may just have become passable.
  if (gates_pending_.load(kSc) > 0) wake_sleeping_workers();
}

bool HostPool::runnable_front(std::size_t s) const {
  const std::int64_t t = completed_[s].load(kSc);
  if (enqueued_[s].load(kSc) <= t) return false;
  const Slot& slot = rings_[s][static_cast<std::uint64_t>(t) & kRingMask];
  if (slot.invoke != nullptr) return true;
  GateData g;
  std::memcpy(&g, slot.buf, sizeof g);
  return completed_[static_cast<std::size_t>(g.on_stream)].load(kSc) >=
         g.ticket;
}

bool HostPool::any_runnable(std::size_t w) const {
  const auto ns = static_cast<std::size_t>(n_streams_);
  const auto nw = static_cast<std::size_t>(n_workers_);
  for (std::size_t s = w; s < ns; s += nw) {
    if (runnable_front(s)) return true;
  }
  return false;
}

bool HostPool::run_ready(std::size_t s) {
  bool did = false;
  for (;;) {
    const std::int64_t t = completed_[s].load(kRelaxed);  // consumer-owned
    if (enqueued_[s].load(kSc) <= t) break;
    Slot& slot = rings_[s][static_cast<std::uint64_t>(t) & kRingMask];
    if (slot.invoke == nullptr) {  // gate: pass or leave it at the front
      GateData g;
      std::memcpy(&g, slot.buf, sizeof g);
      if (completed_[static_cast<std::size_t>(g.on_stream)].load(kSc) <
          g.ticket) {
        break;
      }
      gates_pending_.fetch_sub(1, kSc);
      complete_one(s);
      did = true;
      continue;
    }
    std::exception_ptr err;
    if (!broken_[s].load(kRelaxed)) {
      try {
        slot.invoke(slot.buf);
      } catch (...) {
        err = std::current_exception();
      }
    }
    if (slot.destroy != nullptr) slot.destroy(slot.buf);
    if (err) latch_exception(s, err);
    complete_one(s);
    did = true;
  }
  return did;
}

void HostPool::worker_main(std::size_t w) {
#ifdef _OPENMP
  // The workers already run the devices' kernels concurrently; a full-width
  // OpenMP team inside each one would oversubscribe the host cores.
  omp_set_num_threads(1);
#endif
  const auto ns = static_cast<std::size_t>(n_streams_);
  const auto nw = static_cast<std::size_t>(n_workers_);
  for (;;) {
    bool did = false;
    for (std::size_t s = w; s < ns; s += nw) did |= run_ready(s);
    if (did) continue;
    for (int i = 0; i < spin_ && !did; ++i) did = any_runnable(w);
    if (did) continue;
    // Advertise kSleeping *before* the rescan (Dekker pairing with the
    // publisher's publish-then-check): either the rescan sees the new work
    // or the publisher sees kSleeping and pays the notify. The predicate
    // re-advertises on every evaluation because a notify_all meant for a
    // sibling worker leaves this one in kNotified.
    wstate_[w].store(kSleeping, kSc);
    if (!any_runnable(w)) {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] {
        wstate_[w].store(kSleeping, kSc);
        return stop_ || any_runnable(w);
      });
      if (stop_ && !any_runnable(w)) {
        wstate_[w].store(kAwake, kSc);
        return;  // stop requested and nothing left to run
      }
    }
    wstate_[w].store(kAwake, kSc);
  }
}

void HostPool::latch_exception(std::size_t s, std::exception_ptr err) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!latched_[s]) latched_[s] = err;
  broken_[s].store(true, kRelaxed);
}

void HostPool::rethrow_latch(std::size_t s) {
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lk(mu_);
    err = std::exchange(latched_[s], nullptr);
    broken_[s].store(false, kRelaxed);
  }
  if (err) std::rethrow_exception(err);
}

void HostPool::wait_completed(std::size_t s, std::int64_t target) {
  if (completed_[s].load(kSc) >= target) return;
  // Register what we are waiting for (target before stream, so a worker
  // that reads the stream id also sees the right target), then recheck:
  // either the recheck sees the final completion or the completing worker
  // sees the registration and notifies.
  host_wait_target_.store(target, kSc);
  host_wait_stream_.store(static_cast<int>(s), kSc);
  if (completed_[s].load(kSc) < target) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return completed_[s].load(kSc) >= target; });
  }
  host_wait_stream_.store(-1, kSc);
}

void HostPool::drain(int stream) {
  const auto s = check_stream(stream);
  if (n_workers_ == 0) return;
  wait_completed(s, enqueued_[s].load(kRelaxed));
  rethrow_latch(s);
}

void HostPool::drain_all() {
  if (n_workers_ == 0) return;
  const auto ns = static_cast<std::size_t>(n_streams_);
  for (std::size_t s = 0; s < ns; ++s) {
    wait_completed(s, enqueued_[s].load(kRelaxed));
  }
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t s = 0; s < ns; ++s) {
      if (latched_[s] && !err) err = latched_[s];
      latched_[s] = nullptr;
      broken_[s].store(false, kRelaxed);
    }
  }
  if (err) std::rethrow_exception(err);
}

void HostPool::drain_all_nothrow() noexcept {
  if (n_workers_ == 0) return;
  const auto ns = static_cast<std::size_t>(n_streams_);
  for (std::size_t s = 0; s < ns; ++s) {
    wait_completed(s, enqueued_[s].load(kRelaxed));
  }
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t s = 0; s < ns; ++s) {
    latched_[s] = nullptr;
    broken_[s].store(false, kRelaxed);
  }
}

std::int64_t HostPool::ticket(int stream) {
  const auto s = check_stream(stream);
  return enqueued_[s].load(kRelaxed);  // single posting thread
}

void HostPool::wait_ticket(int stream, std::int64_t ticket) {
  const auto s = check_stream(stream);
  if (n_workers_ == 0) return;  // serial mode: every ticket is complete
  wait_completed(s, ticket);
  rethrow_latch(s);
}

void HostPool::enqueue_wait(int stream, int on_stream, std::int64_t ticket) {
  const auto o = check_stream(on_stream);
  if (n_workers_ == 0 || stream == on_stream) return;  // FIFO covers it
  const auto s = check_stream(stream);
  Slot& slot = producer_slot(s);
  slot.invoke = nullptr;
  slot.destroy = nullptr;
  GateData g;
  g.ticket = ticket;
  g.on_stream = static_cast<std::int32_t>(o);
  std::memcpy(slot.buf, &g, sizeof g);
  gates_pending_.fetch_add(1, kSc);  // before the gate becomes visible
  publish(s);
}

}  // namespace cagmres::sim
