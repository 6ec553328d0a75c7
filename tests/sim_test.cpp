// Unit tests for the simulated multi-GPU runtime: clock semantics, the
// performance model, counters, phase attribution, and the charged kernels.
#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <cstddef>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas1.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cagmres.hpp"
#include "core/gmres.hpp"
#include "core/solver_common.hpp"
#include "graph/partition.hpp"
#include "sim/clock.hpp"
#include "sim/device_blas.hpp"
#include "sim/fault.hpp"
#include "sim/host_pool.hpp"
#include "sim/machine.hpp"
#include "sim/perf_model.hpp"
#include "sparse/generators.hpp"

#include "kill_probe.hpp"

namespace cagmres::sim {
namespace {

TEST(Clock, DevicesRunConcurrently) {
  Clock c(3);
  c.device_advance(0, 1.0);
  c.device_advance(1, 2.0);
  c.device_advance(2, 0.5);
  // Concurrent devices: elapsed is the max, not the sum.
  EXPECT_DOUBLE_EQ(c.elapsed(), 2.0);
  EXPECT_DOUBLE_EQ(c.host_time(), 0.0);
  c.host_wait_all();
  EXPECT_DOUBLE_EQ(c.host_time(), 2.0);
}

TEST(Clock, KernelCannotStartBeforeHostPostsIt) {
  Clock c(2);
  c.host_advance(5.0);
  c.device_advance(0, 1.0);  // posted at host time 5
  EXPECT_DOUBLE_EQ(c.device_time(0), 6.0);
  EXPECT_DOUBLE_EQ(c.device_time(1), 0.0);
}

TEST(Clock, SequentialKernelsOnOneDeviceQueue) {
  Clock c(1);
  c.device_advance(0, 1.0);
  c.device_advance(0, 2.0);
  EXPECT_DOUBLE_EQ(c.device_time(0), 3.0);
}

TEST(Clock, SyncAllAlignsEverything) {
  Clock c(2);
  c.device_advance(0, 3.0);
  c.host_advance(1.0);
  c.sync_all();
  EXPECT_DOUBLE_EQ(c.host_time(), 3.0);
  EXPECT_DOUBLE_EQ(c.device_time(0), 3.0);
  EXPECT_DOUBLE_EQ(c.device_time(1), 3.0);
  c.reset();
  EXPECT_DOUBLE_EQ(c.elapsed(), 0.0);
}

TEST(Clock, DeviceWaitHost) {
  Clock c(1);
  c.host_advance(4.0);
  c.device_wait_host(0);
  EXPECT_DOUBLE_EQ(c.device_time(0), 4.0);
}

TEST(PerfModel, TransferIsLatencyPlusBandwidth) {
  PerfModel pm;
  const double t1 = pm.transfer_seconds(8.0);
  const double t2 = pm.transfer_seconds(8e6);
  EXPECT_NEAR(t1, pm.pcie_latency_s + 8.0 / pm.pcie_bw, 1e-12);
  EXPECT_NEAR(t2 - t1, (8e6 - 8.0) / pm.pcie_bw, 1e-12);
}

TEST(PerfModel, OptimizedProfileSpeedsUpGemmAndGemv) {
  PerfModel opt;
  opt.profile = KernelProfile::kOptimized;
  PerfModel std_prof;
  std_prof.profile = KernelProfile::kStandard;
  const double flops = 2.0 * 1e5 * 30 * 30;
  const double bytes = 8.0 * 1e5 * 30;
  EXPECT_LT(opt.device_seconds(Kernel::kGemm, flops, bytes),
            std_prof.device_seconds(Kernel::kGemm, flops, bytes));
  EXPECT_LT(opt.device_seconds(Kernel::kGemv, flops / 30, bytes),
            std_prof.device_seconds(Kernel::kGemv, flops / 30, bytes));
  // BLAS-1 is profile independent.
  EXPECT_DOUBLE_EQ(opt.device_seconds(Kernel::kDot, 2e5, 16e5),
                   std_prof.device_seconds(Kernel::kDot, 2e5, 16e5));
}

TEST(PerfModel, EffectiveRateRisesWithSize) {
  // Fig. 11 shape: launch overhead dominates small inputs.
  PerfModel pm;
  auto rate = [&](double n) {
    const double flops = 2.0 * n * 30 * 30;
    return flops / pm.device_seconds(Kernel::kGemm, flops, 8.0 * n * 30);
  };
  EXPECT_LT(rate(1e3), rate(1e5));
  EXPECT_LT(rate(1e5), rate(1e7));
  EXPECT_LT(rate(1e7), pm.gemm_peak_opt);
}

TEST(Machine, ChargesAndCounters) {
  Machine m(2);
  m.charge_device(0, Kernel::kDot, 100.0, 800.0);
  m.charge_device(1, Kernel::kDot, 50.0, 400.0);
  m.d2h(0, 8.0);
  m.h2d(1, 8.0);
  m.charge_host(Kernel::kAxpy, 10.0, 80.0);
  const Counters& c = m.counters();
  EXPECT_DOUBLE_EQ(c.dev_flops[0], 100.0);
  EXPECT_DOUBLE_EQ(c.dev_flops[1], 50.0);
  EXPECT_EQ(c.dev_kernels[0], 1);
  EXPECT_EQ(c.d2h_msgs, 1);
  EXPECT_EQ(c.h2d_msgs, 1);
  EXPECT_DOUBLE_EQ(c.host_flops, 10.0);
  EXPECT_GT(m.clock().elapsed(), 0.0);

  const Counters snap = c;
  m.charge_device(0, Kernel::kAxpy, 30.0, 100.0);
  const Counters diff = m.counters() - snap;
  EXPECT_DOUBLE_EQ(diff.dev_flops[0], 30.0);
  EXPECT_EQ(diff.d2h_msgs, 0);
  EXPECT_DOUBLE_EQ(diff.total_dev_flops(), 30.0);
}

TEST(Machine, PhaseAttributionCoversElapsed) {
  Machine m(2);
  m.set_phase("alpha");
  m.charge_device(0, Kernel::kDot, 1e6, 8e6);
  m.host_wait_all();
  m.set_phase("beta");
  m.charge_host(Kernel::kAxpy, 1e6, 8e6);
  m.set_phase("other");
  const double total = m.phases().total();
  EXPECT_NEAR(total, m.clock().elapsed(), 1e-12);
  EXPECT_GT(m.phases().get("alpha"), 0.0);
  EXPECT_GT(m.phases().get("beta"), 0.0);
}

TEST(Machine, ResetClearsEverything) {
  Machine m(1);
  m.charge_device(0, Kernel::kDot, 1.0, 8.0);
  m.reset();
  EXPECT_DOUBLE_EQ(m.clock().elapsed(), 0.0);
  EXPECT_DOUBLE_EQ(m.counters().dev_flops[0], 0.0);
  EXPECT_DOUBLE_EQ(m.phases().total(), 0.0);
}

TEST(DistVec, ScatterGatherRoundTrip) {
  DistVec v(std::vector<int>{3, 2, 4});
  EXPECT_EQ(v.n_parts(), 3);
  EXPECT_EQ(v.total_rows(), 9);
  std::vector<double> x(9);
  for (int i = 0; i < 9; ++i) x[static_cast<std::size_t>(i)] = i * 1.5;
  v.assign_from_host(x);
  EXPECT_DOUBLE_EQ(v.local(1)[0], 4.5);
  EXPECT_EQ(v.to_host(), x);
}

TEST(DistMultiVec, LayoutAndColumnAccess) {
  DistMultiVec v(std::vector<int>{4, 4}, 3);
  EXPECT_EQ(v.cols(), 3);
  EXPECT_EQ(v.total_rows(), 8);
  v.col(1, 2)[3] = 42.0;
  EXPECT_DOUBLE_EQ(v.local(1)(3, 2), 42.0);
}

TEST(DeviceBlas, NumericsMatchHostBlas) {
  Machine m(1);
  const int n = 101;
  Rng rng(31);
  std::vector<double> x(static_cast<std::size_t>(n)), y(static_cast<std::size_t>(n)), y2(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] = rng.normal();
    y[static_cast<std::size_t>(i)] = rng.normal();
  }
  y2 = y;
  const double d = dev_dot(m, 0, n, x.data(), y.data());
  EXPECT_NEAR(d, blas::dot(n, x.data(), y.data()), 1e-12);
  dev_axpy(m, 0, n, 0.5, x.data(), y.data());
  m.sync();  // the host reads y below
  blas::axpy(n, 0.5, x.data(), y2.data());
  for (int i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(y[static_cast<std::size_t>(i)], y2[static_cast<std::size_t>(i)]);
  EXPECT_EQ(m.counters().dev_kernels[0], 2);
}

TEST(DeviceBlas, PackUnpackGatherScatter) {
  Machine m(1);
  std::vector<double> x = {10, 20, 30, 40, 50};
  std::vector<int> idx = {4, 0, 2};
  std::vector<double> out(3);
  dev_pack(m, 0, idx, x.data(), out.data());
  m.sync();  // the host reads out below
  EXPECT_DOUBLE_EQ(out[0], 50);
  EXPECT_DOUBLE_EQ(out[1], 10);
  EXPECT_DOUBLE_EQ(out[2], 30);
  std::vector<double> in = {-1, -2, -3};
  dev_unpack(m, 0, idx, in.data(), x.data());
  m.sync();  // the host reads x below
  EXPECT_DOUBLE_EQ(x[4], -1);
  EXPECT_DOUBLE_EQ(x[0], -2);
  EXPECT_DOUBLE_EQ(x[2], -3);
  EXPECT_DOUBLE_EQ(x[1], 20);
}

TEST(DeviceBlas, SpmvEllChargesAndComputes) {
  Machine m(1);
  const auto a = sparse::make_laplace2d(6, 6);
  const auto e = sparse::to_ell(a);
  const int n = a.n_rows;
  std::vector<double> x(static_cast<std::size_t>(n), 1.0), y1(static_cast<std::size_t>(n)), y2(static_cast<std::size_t>(n));
  dev_spmv_ell(m, 0, e, x.data(), y1.data());
  m.sync();  // the host reads y1 below
  sparse::spmv(a, x.data(), y2.data());
  for (int i = 0; i < n; ++i) EXPECT_NEAR(y1[static_cast<std::size_t>(i)], y2[static_cast<std::size_t>(i)], 1e-13);
  EXPECT_GT(m.clock().device_time(0), 0.0);
}

TEST(Machine, PerKernelCountersBreakDownTheWork) {
  Machine m(2);
  m.charge_device(0, Kernel::kGemm, 1e6, 8e4);
  m.charge_device(1, Kernel::kGemm, 2e6, 8e4);
  m.charge_device(0, Kernel::kDot, 2e3, 16e3);
  const auto& c = m.counters();
  const auto gi = static_cast<std::size_t>(kernel_index(Kernel::kGemm));
  const auto di = static_cast<std::size_t>(kernel_index(Kernel::kDot));
  EXPECT_DOUBLE_EQ(c.kernel_flops[gi], 3e6);
  EXPECT_EQ(c.kernel_count[gi], 2);
  EXPECT_GT(c.kernel_seconds[gi], 0.0);
  EXPECT_EQ(c.kernel_count[di], 1);
  // Per-kernel flops sum to the per-device totals.
  double per_kernel = 0.0;
  for (const double f : c.kernel_flops) per_kernel += f;
  EXPECT_DOUBLE_EQ(per_kernel, c.total_dev_flops());
  // Snapshot diff covers the arrays too.
  const Counters snap = c;
  m.charge_device(0, Kernel::kGemm, 5e5, 8e3);
  EXPECT_DOUBLE_EQ((m.counters() - snap).kernel_flops[gi], 5e5);
}

TEST(TraceTest, RecordsChargedOperationsWithPhases) {
  Machine m(2);
  m.enable_trace();
  m.set_phase("alpha");
  m.charge_device(0, Kernel::kDot, 2e5, 16e5);
  m.d2h(0, 8.0);
  m.set_phase("beta");
  m.charge_host(Kernel::kAxpy, 1e5, 8e5);
  const auto& ev = m.trace().events();
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[0].device, 0);
  EXPECT_EQ(ev[0].name, "dot");
  EXPECT_EQ(ev[0].phase, "alpha");
  EXPECT_LT(ev[0].t_start, ev[0].t_end);
  EXPECT_EQ(ev[1].name, "d2h");
  EXPECT_GE(ev[1].t_start, ev[0].t_end - 1e-15);  // queued after the kernel
  EXPECT_EQ(ev[2].device, -1);
  EXPECT_EQ(ev[2].phase, "beta");
  m.reset();
  EXPECT_TRUE(m.trace().events().empty());
}

TEST(TraceTest, DisabledByDefaultAndJsonWellFormed) {
  Machine m(1);
  m.charge_device(0, Kernel::kAxpy, 1.0, 8.0);
  EXPECT_TRUE(m.trace().events().empty());

  m.enable_trace();
  m.charge_device(0, Kernel::kGemm, 1e6, 8e5);
  m.d2h(0, 64.0);
  std::ostringstream os;
  m.trace().write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"gemm\""), std::string::npos);
  EXPECT_NE(json.find("\"d2h\""), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness proxy).
  long brace = 0, bracket = 0;
  for (const char c : json) {
    brace += (c == '{') - (c == '}');
    bracket += (c == '[') - (c == ']');
  }
  EXPECT_EQ(brace, 0);
  EXPECT_EQ(bracket, 0);
}

TEST(TraceTest, KernelNamesCoverAllClasses) {
  for (const Kernel k :
       {Kernel::kDot, Kernel::kAxpy, Kernel::kScal, Kernel::kCopy,
        Kernel::kGemv, Kernel::kGemm, Kernel::kTrsm, Kernel::kGeqrf,
        Kernel::kSpmvEll, Kernel::kSpmvCsr, Kernel::kPack, Kernel::kSmall}) {
    EXPECT_NE(kernel_name(k), "?");
  }
}

TEST(Topology, NodeMappingAndRemoteness) {
  Machine m(Topology{2, 3});
  EXPECT_EQ(m.n_devices(), 6);
  EXPECT_EQ(m.node_of(0), 0);
  EXPECT_EQ(m.node_of(2), 0);
  EXPECT_EQ(m.node_of(3), 1);
  EXPECT_FALSE(m.is_remote(1));
  EXPECT_TRUE(m.is_remote(5));
  // Single-node ctor: nothing is remote.
  Machine s(3);
  EXPECT_FALSE(s.is_remote(2));
  EXPECT_EQ(s.topology().n_nodes, 1);
}

TEST(Topology, RemoteTransfersPayTheNetworkHop) {
  const PerfModel pm;
  Machine m(Topology{2, 1});
  m.d2h(0, 800.0);  // local
  m.d2h(1, 800.0);  // remote
  EXPECT_NEAR(m.clock().device_time(0), pm.transfer_seconds(800.0), 1e-15);
  EXPECT_NEAR(m.clock().device_time(1),
              pm.transfer_seconds(800.0) + pm.net_seconds(800.0), 1e-15);
  EXPECT_EQ(m.counters().net_msgs, 1);
  EXPECT_DOUBLE_EQ(m.counters().net_bytes, 800.0);
  m.h2d(1, 8.0);
  EXPECT_EQ(m.counters().net_msgs, 2);
}

TEST(Topology, ReductionSlowerAcrossNodesThanWithin) {
  // Same device count, different placement: the all-to-root reduction is
  // strictly slower when half the devices are remote.
  auto reduction_time = [](Topology t) {
    Machine m(t);
    for (int d = 0; d < m.n_devices(); ++d) m.d2h(d, 8.0);
    m.host_wait_all();
    return m.clock().elapsed();
  };
  EXPECT_LT(reduction_time(Topology{1, 4}), reduction_time(Topology{2, 2}));
}

TEST(Topology, ZeroFaultSolveIsByteIdenticalAcrossWorkers) {
  // set_topology only changes where bytes are charged (peer vs PCIe vs
  // network hops), never the arithmetic: with no faults armed, x, the
  // residual history, and the charged clock must match bitwise across
  // {0, 2 workers} on a 2x2 multi-node machine.
  const auto a = sparse::make_laplace2d(24, 24, 0.1, 0.02);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const int ng = 4;
  const core::Problem p =
      core::make_problem(a, b, ng, graph::Ordering::kNatural, true, 1);
  core::SolverOptions opts;
  opts.m = 30;
  opts.s = 6;
  opts.tol = 1e-6;
  opts.max_restarts = 400;

  std::vector<core::SolveResult> results;
  std::vector<double> elapsed;
  for (const int workers : {0, 2}) {
    Machine m(ng);
    m.set_topology(2, 2);
    m.set_host_workers(workers);
    results.push_back(core::ca_gmres(m, p, opts));
    elapsed.push_back(m.clock().elapsed());
  }
  // Everything identical, including the charged clock.
  EXPECT_EQ(results[0].x, results[1].x);
  EXPECT_EQ(results[0].stats.time_total, results[1].stats.time_total);
  EXPECT_EQ(results[0].stats.residual_history,
            results[1].stats.residual_history);
  EXPECT_EQ(elapsed[0], elapsed[1]);
}

TEST(HierReduce, SolversByteIdenticalAcrossWorkersAndShapes) {
  // The hierarchical two-stage collectives (DESIGN §13) run their leader
  // folds as device closures, yet the grouped fold tree is a pure function
  // of the charge sequence: for GMRES and CA-GMRES, at 2x2 and 2x4, x and
  // the charged clock must match bitwise across {0, 2 workers}.
  const auto a = sparse::make_laplace3d(10, 10, 10, 0.05);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const std::pair<int, int> shapes[] = {{2, 2}, {2, 4}};
  for (const auto& [nodes, gpn] : shapes) {
    const int ng = nodes * gpn;
    const core::Problem p =
        core::make_problem(a, b, ng, graph::Ordering::kKway, true, 3, nodes);
    core::SolverOptions opts;
    opts.m = 20;
    opts.s = 4;
    opts.tol = 1e-8;
    opts.max_restarts = 6;
    for (const bool ca : {false, true}) {
      std::vector<double> x0;
      double t0 = 0.0;
      for (const int workers : {0, 2}) {
        Machine m(Topology{nodes, gpn});
        m.set_host_workers(workers);
        const core::SolveResult r = ca ? core::ca_gmres(m, p, opts)
                                       : core::gmres(m, p, opts);
        if (workers == 0) {
          x0 = r.x;
          t0 = m.clock().elapsed();
        } else {
          EXPECT_EQ(r.x, x0) << (ca ? "ca_gmres" : "gmres") << " " << nodes
                             << "x" << gpn << " workers=" << workers;
          EXPECT_EQ(m.clock().elapsed(), t0);
        }
      }
    }
  }
}

TEST(HierReduce, FlatFoldRequestThrows) {
  Machine m(Topology{2, 2});
  m.set_hier_reduce(true);  // the only schedule: accepted as a no-op
  EXPECT_THROW(m.set_hier_reduce(false), Error);
}

TEST(DeviceBlas, ReductionPatternTiming) {
  // A scalar all-reduce (dot) across 3 devices should cost roughly:
  // dot kernel + D2H latency (concurrent) + host add + (broadcast H2D).
  Machine m(3);
  const PerfModel& pm = m.perf();
  const int n = 1000;
  std::vector<double> x(static_cast<std::size_t>(n), 1.0);
  for (int d = 0; d < 3; ++d) dev_dot(m, d, n, x.data(), x.data());
  for (int d = 0; d < 3; ++d) m.d2h(d, 8.0);
  m.host_wait_all();
  const double t = m.clock().elapsed();
  const double kernel = pm.device_seconds(Kernel::kDot, 2.0 * n, 16.0 * n);
  const double xfer = pm.transfer_seconds(8.0);
  // Concurrent devices: one kernel + one transfer, NOT three of each.
  EXPECT_NEAR(t, kernel + xfer, 1e-9);
}

// --- host execution engine (DESIGN.md §9) -----------------------------

TEST(HostPool, SerialModeRunsInline) {
  HostPool pool(3, 0);
  EXPECT_EQ(pool.n_workers(), 0);
  int ran = 0;
  pool.enqueue(1, [&] { ++ran; });
  EXPECT_EQ(ran, 1);  // executed on the calling thread, immediately
  pool.drain_all();
}

TEST(HostPool, StreamsAreFifoAndDrainWaits) {
  HostPool pool(2, 2);
  std::vector<int> order;
  std::mutex mu;
  for (int i = 0; i < 64; ++i) {
    pool.enqueue(0, [&, i] {
      std::lock_guard<std::mutex> lk(mu);
      order.push_back(i);
    });
  }
  pool.drain(0);
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(HostPool, ExceptionsLatchPerStreamAndRethrowAtDrain) {
  HostPool pool(2, 1);
  pool.enqueue(0, [] { throw Error("boom"); });
  pool.enqueue(0, [] { ADD_FAILURE() << "ran after a latched exception"; });
  pool.enqueue(1, [] {});  // the other stream is unaffected
  EXPECT_THROW(pool.drain(0), Error);
  pool.drain(1);
  pool.drain(0);  // latched error was consumed by the first drain
}

TEST(UnwindDrainGuard, HappyPathSkipsBarrierAndUnwindDrains) {
  Machine m(2);
  m.set_host_workers(2);

  // Happy path: leaving the guard's scope with a task still parked on a
  // stream must NOT drain — a drain here would deadlock on the latch.
  std::promise<void> gate;
  std::shared_future<void> opened(gate.get_future());
  m.run_on_device(0, [opened] { opened.wait(); });
  { UnwindDrainGuard guard(m); }  // two integer reads, no barrier
  gate.set_value();
  m.sync();

  // Unwind path: the guard drains before the frame's buffer dies, so every
  // closure referencing it has finished by the catch site (the
  // use-after-free class DESIGN §9 calls out; run under TSan via this
  // test's tsan label).
  std::atomic<int> ran{0};
  try {
    std::vector<double> buf(256, 0.0);
    UnwindDrainGuard guard(m);
    for (int i = 0; i < 64; ++i) {
      m.run_on_device(i % 2, [&buf, &ran, i] {
        buf[static_cast<std::size_t>(i * 4 % 256)] += 1.0;
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    throw Error("induced unwind");
  } catch (const Error&) {
    EXPECT_EQ(ran.load(), 64);  // all in-flight work drained by the guard
  }
}

TEST(HostPool, ResizeDrainsThenChangesWorkerCount) {
  HostPool pool(2, 1);
  int ran = 0;
  std::mutex mu;
  for (int i = 0; i < 16; ++i) {
    pool.enqueue(i % 2, [&] {
      std::lock_guard<std::mutex> lk(mu);
      ++ran;
    });
  }
  pool.resize(2);
  EXPECT_EQ(ran, 16);
  EXPECT_EQ(pool.n_workers(), 2);
  pool.resize(0);
  pool.enqueue(0, [&] { ++ran; });
  EXPECT_EQ(ran, 17);  // back to inline serial mode
}

TEST(Machine, HostWorkerCountComesFromEnvOrApi) {
  Machine m(3);
  m.set_host_workers(2);
  EXPECT_EQ(m.host_workers(), 2);
  m.set_host_workers(0);
  EXPECT_EQ(m.host_workers(), 0);
  // Clamped to the device count, like the env path: a worker beyond one per
  // device stream would own no stream.
  m.set_host_workers(8);
  EXPECT_EQ(m.host_workers(), 3);
}

/// parse_env_config over a fixed name -> value map (unlisted = unset), so
/// the parser is tested without touching the process environment.
EnvConfig parse_env(const std::map<std::string, std::string>& vars) {
  return parse_env_config([&](const char* name) -> const char* {
    const auto it = vars.find(name);
    return it == vars.end() ? nullptr : it->second.c_str();
  });
}

void expect_default(const EnvConfig& c) {
  EXPECT_EQ(c.host_workers, 0);
  EXPECT_EQ(c.topology_nodes, 0);
  EXPECT_EQ(c.topology_gpus, 0);
  EXPECT_EQ(c.halo_codec, sim::Codec::kNone);
  EXPECT_EQ(c.topology_for(4).n_nodes, 1);
  EXPECT_EQ(c.topology_for(4).gpus_per_node, 4);
}

TEST(EnvConfig, UnsetOrEmptyVariablesGiveTheDefaults) {
  expect_default(parse_env({}));
  expect_default(parse_env({{"CAGMRES_HOST_WORKERS", ""},
                            {"CAGMRES_TOPOLOGY", ""},
                            {"CAGMRES_COMPRESS", ""}}));
}

TEST(EnvConfig, EveryDocumentedSpellingParses) {
  EXPECT_EQ(parse_env({{"CAGMRES_HOST_WORKERS", "0"}}).host_workers, 0);
  EXPECT_EQ(parse_env({{"CAGMRES_HOST_WORKERS", "2"}}).host_workers, 2);
  const EnvConfig bare = parse_env({{"CAGMRES_TOPOLOGY", "2"}});
  EXPECT_EQ(bare.topology_for(4).n_nodes, 2);
  EXPECT_EQ(bare.topology_for(4).gpus_per_node, 2);
  const EnvConfig shaped = parse_env({{"CAGMRES_TOPOLOGY", "2x3"}});
  EXPECT_EQ(shaped.topology_for(6).n_nodes, 2);
  EXPECT_EQ(shaped.topology_for(6).gpus_per_node, 3);
  const EnvConfig coded = parse_env({{"CAGMRES_COMPRESS", "halo=fp32"}});
  EXPECT_EQ(coded.halo_codec, sim::Codec::kFp32);
  EXPECT_EQ(sim::to_string(coded.halo_codec), "halo=fp32");
}

TEST(EnvConfig, MalformedValuesThrowNamingTheVariable) {
  const std::pair<const char*, const char*> bad[] = {
      {"CAGMRES_HOST_WORKERS", "two"},
      {"CAGMRES_HOST_WORKERS", "-1"},
      {"CAGMRES_COMPRESS", "halo=fp23"},
      {"CAGMRES_TOPOLOGY", "2by2"},
      {"CAGMRES_TOPOLOGY", "0"},
      {"CAGMRES_TOPOLOGY", "2x"},
  };
  for (const auto& [name, value] : bad) {
    try {
      parse_env({{name, value}});
      ADD_FAILURE() << name << "=" << value << " was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadInput);
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
}

TEST(EnvConfig, TopologyThatDoesNotTileStaysFlat) {
  // The same binary drives machines of many sizes: a parsed request that
  // does not tile the device count leaves that machine on one node.
  for (const char* req : {"2", "2x2"}) {
    const Topology t = parse_env({{"CAGMRES_TOPOLOGY", req}}).topology_for(3);
    EXPECT_EQ(t.n_nodes, 1) << req;
    EXPECT_EQ(t.gpus_per_node, 3) << req;
  }
}

/// The engine's core guarantee: identical RESULTS and identical SIMULATED
/// TIMES for any worker count, because charging happens on the calling
/// thread in program order and only pure numeric closures move to the pool.
/// Exact ==, modeled on the ZeroFault byte-identity tests.
TEST(Machine, SolveIsByteIdenticalForAnyWorkerCount) {
  const auto a = sparse::make_laplace2d(24, 24, 0.1, 0.02);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const int ng = 3;
  const core::Problem p =
      core::make_problem(a, b, ng, graph::Ordering::kNatural, true, 1);
  core::SolverOptions opts;
  opts.m = 30;
  opts.s = 6;
  opts.tol = 1e-6;
  opts.max_restarts = 400;

  std::vector<core::SolveResult> results;
  std::vector<double> elapsed;
  for (const int workers : {0, 1, 2, ng}) {
    Machine m(ng);
    m.set_host_workers(workers);
    results.push_back(core::ca_gmres(m, p, opts));
    elapsed.push_back(m.clock().elapsed());
  }
  const core::SolveStats& ref = results[0].stats;
  for (std::size_t i = 1; i < results.size(); ++i) {
    const core::SolveStats& st = results[i].stats;
    EXPECT_EQ(ref.time_total, st.time_total) << "workers case " << i;
    EXPECT_EQ(ref.iterations, st.iterations);
    EXPECT_EQ(ref.restarts, st.restarts);
    EXPECT_EQ(ref.residual_history, st.residual_history);
    EXPECT_EQ(results[0].x, results[i].x);
    EXPECT_EQ(elapsed[0], elapsed[i]);
  }
}

// --- per-buffer events (DESIGN.md §10) --------------------------------

TEST(HostPool, WaitTicketDoesNotWaitForLaterTasks) {
  HostPool pool(2, 1);
  std::atomic<int> ran{0};
  std::mutex gate;
  gate.lock();  // holds the SECOND task hostage
  pool.enqueue(0, [&] { ran.fetch_add(1); });
  const std::int64_t t = pool.ticket(0);
  pool.enqueue(0, [&] {
    std::lock_guard<std::mutex> lk(gate);
    ran.fetch_add(1);
  });
  // The ticket was taken before the gated task was enqueued, so this must
  // return once the first task completes — the blocked second task sits
  // behind the ticket and may not be waited for.
  pool.wait_ticket(0, t);
  EXPECT_EQ(ran.load(), 1);
  gate.unlock();
  pool.drain_all();
  EXPECT_EQ(ran.load(), 2);
}

TEST(HostPool, EnqueueWaitOrdersCrossStreamWork) {
  HostPool pool(2, 2);  // streams on distinct workers
  std::atomic<int> x{0};
  std::atomic<int> observed{-1};
  std::mutex gate;
  gate.lock();
  pool.enqueue(0, [&] {
    std::lock_guard<std::mutex> lk(gate);
    x.store(42);
  });
  const std::int64_t t = pool.ticket(0);
  // Stream 1 must not read x until stream 0's producer completed, even
  // though the producer is stuck behind the gate on another worker.
  pool.enqueue_wait(1, 0, t);
  pool.enqueue(1, [&] { observed.store(x.load()); });
  gate.unlock();
  pool.drain_all();
  EXPECT_EQ(observed.load(), 42);
}

TEST(HostPool, EnqueueWaitOnSameStreamIsANoOp) {
  HostPool pool(2, 1);
  int ran = 0;
  pool.enqueue(0, [&] { ++ran; });
  pool.enqueue_wait(0, 0, pool.ticket(0));  // FIFO already orders these
  pool.enqueue(0, [&] { ++ran; });
  pool.drain_all();
  EXPECT_EQ(ran, 2);
}

TEST(HostPool, GatesBetweenStreamsOnTheSameWorkerMakeProgress) {
  // One worker owns both streams, so a gate's consumer stream can reach the
  // front while its producer is still queued on the same thread. The gate
  // must park (the worker moves on to the producer stream), never block:
  // a long chain of cross-stream handoffs completes without deadlock and
  // every consumer observes its producer's write.
  HostPool pool(2, 1);
  const int rounds = 1000;
  std::vector<int> box(static_cast<std::size_t>(rounds), -1);
  std::vector<int> out(static_cast<std::size_t>(rounds), -2);
  for (int i = 0; i < rounds; ++i) {
    const int s = i & 1;
    const int o = 1 - s;
    pool.enqueue(s, [&box, i] { box[static_cast<std::size_t>(i)] = i; });
    pool.enqueue_wait(o, s, pool.ticket(s));
    pool.enqueue(o, [&box, &out, i] {
      out[static_cast<std::size_t>(i)] = box[static_cast<std::size_t>(i)];
    });
  }
  pool.drain_all();
  for (int i = 0; i < rounds; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
  }
}

TEST(HostPool, RingWrapsPastCapacityWithBackpressure) {
  // The per-stream ring holds 512 slots; enqueueing four times that many
  // wraps the producer cursor repeatedly and forces it to block for slot
  // reuse. FIFO order must survive the wraps.
  HostPool pool(1, 1);
  const int n = 2048;
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pool.enqueue(0, [&order, i] { order.push_back(i); });
  }
  pool.drain(0);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(HostPool, OversizedClosureFallsBackToHeapAndIsDestroyed) {
  // An inline slot holds kSlotBytes minus two dispatch pointers; a 256-byte
  // capture cannot fit, so construct_task takes the one-heap-allocation
  // branch. The payload must arrive intact and the closure must be
  // destroyed after running (the shared_ptr refcount drops back to one).
  HostPool pool(1, 1);
  std::array<unsigned char, 256> payload{};
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<unsigned char>(i);
  }
  auto alive = std::make_shared<int>(0);
  std::atomic<long> sum{-1};
  pool.enqueue(0, [payload, alive, &sum] {
    long s = 0;
    for (const unsigned char b : payload) s += b;
    sum.store(s);
  });
  pool.drain_all();
  long expect = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    expect += static_cast<long>(static_cast<unsigned char>(i));
  }
  EXPECT_EQ(sum.load(), expect);
  EXPECT_EQ(alive.use_count(), 1);
}

TEST(Machine, EventCarriesProducerTimestampToWaiterStream) {
  Machine m(2);
  m.charge_device(0, Kernel::kDot, 2e5, 16e5);
  const double t0 = m.clock().device_time(0);
  ASSERT_GT(t0, 0.0);
  const Event e = m.record_event(0);
  EXPECT_EQ(e.t, t0);
  // cudaStreamWaitEvent analogue: the waiter's timeline advances to the
  // event's charged timestamp without involving the host.
  m.stream_wait_event(1, e);
  EXPECT_EQ(m.clock().device_time(1), t0);
  EXPECT_EQ(m.clock().host_time(), 0.0);
}

TEST(Machine, WaitOnAlreadyCompleteEventIsFree) {
  Machine m(2);
  m.charge_device(1, Kernel::kDot, 1e4, 8e4);
  const Event early = m.record_event(1);
  m.charge_device(0, Kernel::kGemm, 2e8, 8e6);  // device 0 is now far ahead
  const double dev0 = m.clock().device_time(0);
  ASSERT_GT(dev0, early.t);
  m.stream_wait_event(0, early);
  EXPECT_EQ(m.clock().device_time(0), dev0);  // no charged cost
  // Host-side: waiting on the small event advances the host only to that
  // event's time, NOT to the global maximum a host_wait_all would charge.
  m.host_wait_event(early);
  EXPECT_EQ(m.clock().host_time(), early.t);
  const double host_before = m.clock().host_time();
  m.host_wait_event(early);  // second wait on a complete event
  EXPECT_EQ(m.clock().host_time(), host_before);
  EXPECT_LT(m.clock().host_time(), dev0);
}

/// Acceptance: a device kill with events in flight must recover without
/// deadlock — orphaned wait tickets are satisfied by the kill path's
/// drain, and physical stream ids survive the retirement remap. Two
/// workers so the threaded enqueue_wait path is exercised (this test runs
/// under the tsan preset via the suite's label).
TEST(Machine, EventSolveSurvivesDeviceKillWithTwoWorkers) {
  const auto a = sparse::make_laplace2d(24, 24, 0.1, 0.02);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const core::Problem p =
      core::make_problem(a, b, 3, graph::Ordering::kNatural, true, 1);
  core::SolverOptions opts;
  opts.m = 30;
  opts.s = 6;
  opts.tol = 1e-6;
  opts.max_restarts = 400;

  Machine clean(3);
  clean.set_host_workers(2);
  core::ca_gmres(clean, p, opts);

  // d1 runs ~396 ops in the fault-free solve: op 200 lands mid-solve.
  Machine machine(3);
  machine.set_host_workers(2);
  parse_fault_spec("kill:d1@op=200", machine.fault_injector());
  const core::SolveResult res = core::ca_gmres(machine, p, opts);
  EXPECT_TRUE(res.stats.converged);
  EXPECT_EQ(machine.n_devices(), 2);  // one device retired
  EXPECT_EQ(res.stats.recovery.device_failures, 1);
  EXPECT_TRUE(test::kill_landed_mid_solve(machine, clean));
}

}  // namespace
}  // namespace cagmres::sim
