// Fault-injection and self-healing tests: the deterministic injector
// itself, the spec parser, the error taxonomy, and the acceptance
// scenarios — device dropout, transfer corruption, and transient NaN
// kernel faults must all leave GMRES and CA-GMRES converged with the
// recovery recorded in SolveStats, while a zero-fault
// schedule stays byte-identical to a machine without the layer.
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "blas/blas1.hpp"
#include "common/error.hpp"
#include "core/cagmres.hpp"
#include "core/gmres.hpp"
#include "core/solver_common.hpp"
#include "ortho/tsqr.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"
#include "sparse/generators.hpp"

#include "codec_tol.hpp"

namespace cagmres {
namespace {

using sim::FaultEvent;
using sim::FaultInjector;
using sim::FaultKind;
using sim::Machine;

struct TestSystem {
  sparse::CsrMatrix a;
  std::vector<double> b;
  core::Problem p;
};

TestSystem make_system(int ng) {
  TestSystem s;
  s.a = sparse::make_laplace2d(24, 24, 0.1, 0.02);
  s.b.assign(static_cast<std::size_t>(s.a.n_rows), 1.0);
  s.p = core::make_problem(s.a, s.b, ng, graph::Ordering::kNatural, true, 1);
  return s;
}

core::SolverOptions base_opts() {
  core::SolverOptions o;
  o.m = 30;
  o.s = 6;
  o.tol = 1e-6;
  o.max_restarts = 400;
  return o;
}

double relative_residual(const TestSystem& s, const std::vector<double>& x) {
  return core::true_residual(s.a, s.b, x) /
         blas::nrm2(s.a.n_rows, s.b.data());
}

/// A solver entry point, for scenarios every restart loop must survive.
struct NamedSolver {
  const char* name;
  core::SolveResult (*solve)(Machine&, const core::Problem&,
                             const core::SolverOptions&);
};
constexpr NamedSolver kGmres{"gmres", core::gmres};
constexpr NamedSolver kCaGmres{"ca_gmres", core::ca_gmres};

// --- injector unit tests ---------------------------------------------

TEST(FaultInjector, UnarmedByDefaultAndArmedBySchedule) {
  FaultInjector inj;
  EXPECT_FALSE(inj.armed());
  FaultEvent e;
  e.kind = FaultKind::kKernelNan;
  e.device = 0;
  e.at_op = 10;
  inj.schedule(e);
  EXPECT_TRUE(inj.armed());
}

TEST(FaultInjector, OpTriggerFiresOnceOnTargetDevice) {
  FaultInjector inj;
  FaultEvent e;
  e.kind = FaultKind::kKernelNan;
  e.device = 1;
  e.at_op = 5;
  inj.schedule(e);
  EXPECT_FALSE(inj.poll_kernel_nan(1, 0.0, 4));  // before the trigger
  EXPECT_FALSE(inj.poll_kernel_nan(0, 0.0, 9));  // wrong device
  EXPECT_TRUE(inj.poll_kernel_nan(1, 0.0, 5));   // fires
  EXPECT_FALSE(inj.poll_kernel_nan(1, 0.0, 6));  // one-shot
  EXPECT_EQ(inj.stats().kernel_nans, 1);
  ASSERT_EQ(inj.log().size(), 1u);
  EXPECT_EQ(inj.log()[0].device, 1);
}

TEST(FaultInjector, DeviceFailureIsPermanent) {
  FaultInjector inj;
  FaultEvent e;
  e.kind = FaultKind::kDeviceFail;
  e.device = 0;
  e.at_time = 1.0;
  inj.schedule(e);
  EXPECT_FALSE(inj.poll_device_fail(0, 0.5, 0));
  EXPECT_FALSE(inj.device_dead(0));
  EXPECT_TRUE(inj.poll_device_fail(0, 1.5, 1));
  EXPECT_TRUE(inj.device_dead(0));
  // Every later poll on the dead device keeps reporting failure.
  EXPECT_TRUE(inj.poll_device_fail(0, 2.0, 2));
  EXPECT_EQ(inj.stats().device_failures, 1);
}

TEST(FaultInjector, ResetReplaysTheSameSchedule) {
  FaultInjector inj;
  inj.set_seed(42);
  sim::FaultRates rates;
  rates.kernel_nan = 0.25;
  inj.set_rates(rates);
  std::vector<bool> first;
  for (int i = 0; i < 64; ++i) {
    first.push_back(inj.poll_kernel_nan(0, 0.0, i));
  }
  inj.reset();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(inj.poll_kernel_nan(0, 0.0, i),
              first[static_cast<std::size_t>(i)]);
  }
}

TEST(FaultInjectorOrder, WildcardIdenticalTriggersFireInScheduleOrder) {
  // Several device=-1 events with identical triggers are the spec idiom for
  // cascading faults ("kill:*@t=1;kill:*@t=1" takes down the next two
  // devices to reach t=1). poll_scheduled must fire them strictly in
  // schedule order, one per qualifying op.
  FaultInjector inj;
  FaultEvent kill;
  kill.kind = FaultKind::kDeviceFail;
  kill.device = -1;
  kill.at_time = 1.0;
  inj.schedule(kill);
  inj.schedule(kill);
  // Device 2 polls first: it must consume the FIRST scheduled event.
  EXPECT_TRUE(inj.poll_device_fail(2, 1.5, 10));
  EXPECT_TRUE(inj.device_dead(2));
  // The dead device keeps reporting failure WITHOUT consuming event #2.
  EXPECT_TRUE(inj.poll_device_fail(2, 1.6, 11));
  EXPECT_FALSE(inj.device_dead(0));
  // The next device to poll takes the second event of the cascade.
  EXPECT_TRUE(inj.poll_device_fail(0, 1.7, 12));
  EXPECT_TRUE(inj.device_dead(0));
  // Both events consumed: a third device survives.
  EXPECT_FALSE(inj.poll_device_fail(1, 2.0, 13));
  ASSERT_EQ(inj.log().size(), 2u);
  EXPECT_EQ(inj.log()[0].device, 2);  // schedule order, not device order
  EXPECT_EQ(inj.log()[1].device, 0);
}

TEST(FaultInjectorOrder, OnePerPollEvenWhenSeveralAreDue) {
  FaultInjector inj;
  FaultEvent nan;
  nan.kind = FaultKind::kKernelNan;
  nan.device = -1;
  nan.at_op = 5;
  inj.schedule(nan);
  inj.schedule(nan);
  EXPECT_TRUE(inj.poll_kernel_nan(3, 0.0, 5));   // event #1
  EXPECT_TRUE(inj.poll_kernel_nan(3, 0.0, 6));   // event #2, next poll
  EXPECT_FALSE(inj.poll_kernel_nan(3, 0.0, 7));  // schedule exhausted
  EXPECT_EQ(inj.stats().kernel_nans, 2);
}

TEST(FaultInjectorOrder, NodeKillIsAtomicAndFiresInScheduleOrder) {
  // Two node kills on a 2-node x 2-GPU layout: the first polling device
  // consumes event #1 and takes its WHOLE node down in the same poll; the
  // surviving node's first poll consumes event #2. Order is fixed by the
  // schedule, not by which device ids poll.
  FaultInjector inj;
  inj.set_gpus_per_node(2);  // devices {0,1} = node 0, {2,3} = node 1
  FaultEvent kill;
  kill.kind = FaultKind::kNodeFail;
  kill.device = -1;  // whichever node's device reaches the trigger first
  kill.at_time = 1.0;
  inj.schedule(kill);
  kill.device = 0;  // then node 0 explicitly
  inj.schedule(kill);
  // Device 3 polls first: event #1 fires and node 1 dies atomically.
  EXPECT_TRUE(inj.poll_device_fail(3, 1.5, 10));
  EXPECT_TRUE(inj.device_dead(3));
  EXPECT_TRUE(inj.device_dead(2));  // sibling dead without ever polling
  EXPECT_FALSE(inj.device_dead(0));
  EXPECT_FALSE(inj.device_dead(1));
  // Dead siblings keep reporting failure WITHOUT consuming event #2.
  EXPECT_TRUE(inj.poll_device_fail(2, 1.6, 11));
  EXPECT_FALSE(inj.device_dead(0));
  // Node 0's first poll consumes event #2: both members die together.
  EXPECT_TRUE(inj.poll_device_fail(0, 1.7, 12));
  EXPECT_TRUE(inj.device_dead(0));
  EXPECT_TRUE(inj.device_dead(1));
  EXPECT_EQ(inj.stats().node_failures, 2);
  EXPECT_EQ(inj.stats().device_failures, 4);  // node kills count members
  ASSERT_EQ(inj.log().size(), 2u);
  EXPECT_EQ(inj.log()[0].kind, FaultKind::kNodeFail);
  EXPECT_EQ(inj.log()[0].device, 3);  // the polling victim, schedule order
  EXPECT_EQ(inj.log()[1].device, 0);

  // Replay determinism: reset() rewinds the fired flags and the same poll
  // sequence reproduces the same trigger order and log bytes.
  inj.reset();
  EXPECT_TRUE(inj.poll_device_fail(3, 1.5, 10));
  EXPECT_TRUE(inj.poll_device_fail(2, 1.6, 11));
  EXPECT_TRUE(inj.poll_device_fail(0, 1.7, 12));
  ASSERT_EQ(inj.log().size(), 2u);
  EXPECT_EQ(inj.log()[0].device, 3);
  EXPECT_EQ(inj.log()[1].device, 0);
}

TEST(FaultInjector, RejectsBadProbabilitiesAndTriggers) {
  FaultInjector inj;
  sim::FaultRates rates;
  rates.transfer_corrupt = 1.5;
  EXPECT_THROW(inj.set_rates(rates), Error);
  FaultEvent e;  // no trigger at all
  e.kind = FaultKind::kKernelNan;
  EXPECT_THROW(inj.schedule(e), Error);
}

// --- spec parser ------------------------------------------------------

TEST(FaultSpec, ParsesEventsRatesAndKnobs) {
  FaultInjector inj;
  sim::parse_fault_spec("seed=42;kill:d1@t=5ms;nan:p=0.001;corrupt:p=0.01",
                        inj);
  EXPECT_TRUE(inj.armed());
  // The kill fires for device 1 once its simulated time passes 5 ms.
  EXPECT_FALSE(inj.poll_device_fail(1, 4e-3, 0));
  EXPECT_TRUE(inj.poll_device_fail(1, 6e-3, 1));
}

TEST(FaultSpec, ParsesOpTriggerAndWildcardDevice) {
  FaultInjector inj;
  sim::parse_fault_spec("stall:*@op=7;stall_us=100", inj);
  EXPECT_DOUBLE_EQ(inj.stall_seconds(), 100e-6);
  EXPECT_FALSE(inj.poll_transfer_stall(2, 0.0, 6));
  EXPECT_TRUE(inj.poll_transfer_stall(2, 0.0, 7));  // any device qualifies
}

TEST(FaultSpec, MalformedSpecsThrowBadInput) {
  const char* bad[] = {
      "bogus:p=0.1",       // unknown kind
      "kill:p=0.5",        // kill has no rate form
      "nan:d0",            // missing trigger
      "nan:d0@x=3",        // unknown trigger key
      "corrupt:p=oops",    // not a number
      "seed=",             // empty value
  };
  for (const char* spec : bad) {
    FaultInjector inj;
    try {
      sim::parse_fault_spec(spec, inj);
      FAIL() << "accepted malformed spec: " << spec;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadInput) << spec;
    }
  }
}

// --- error taxonomy (satellites 1 and 2) ------------------------------

TEST(ErrorCodes, CarryCodeAndDevice) {
  const Error plain("x");
  EXPECT_EQ(plain.code(), ErrorCode::kBadInput);
  EXPECT_EQ(plain.device(), -1);
  const Error dev("y", ErrorCode::kDeviceFault, 2);
  EXPECT_EQ(dev.code(), ErrorCode::kDeviceFault);
  EXPECT_EQ(dev.device(), 2);
  EXPECT_EQ(to_string(ErrorCode::kRetriesExhausted), "retries_exhausted");
}

TEST(ErrorCodes, CholqrReportsBreakdownPivotColumn) {
  // An exactly zero third column makes the Gram matrix singular with its
  // first non-positive pivot at column 2. The block is declared before the
  // machine so it outlives the pool's drain: tsqr returns with device
  // closures that still read it.
  sim::DistMultiVec v({8}, 3);
  Machine machine(1);
  for (int i = 0; i < 8; ++i) {
    v.col(0, 0)[i] = static_cast<double>(i + 1);
    v.col(0, 1)[i] = (i % 2 == 0) ? 1.0 : -1.0;
    v.col(0, 2)[i] = 0.0;
  }
  ortho::TsqrOptions topts;
  topts.cholqr_shift_on_breakdown = false;
  try {
    ortho::tsqr(machine, ortho::Method::kCholQr, v, 0, 3, topts);
    FAIL() << "singular block did not break down";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBreakdown);
    EXPECT_NE(std::string(e.what()).find("pivot column 2"), std::string::npos)
        << e.what();
  }
  // With the shifted retry the breakdown column is reported in the result.
  topts.cholqr_shift_on_breakdown = true;
  const ortho::TsqrResult res =
      ortho::tsqr(machine, ortho::Method::kCholQr, v, 0, 3, topts);
  EXPECT_TRUE(res.breakdown);
  EXPECT_EQ(res.breakdown_col, 2);
}

TEST(ErrorCodes, CholqrFailsFastOnNonFiniteGram) {
  // A NaN anywhere in the block makes the Gram matrix non-finite; the
  // shifted retry can't fix that, so CholQR must throw kBreakdown
  // immediately (even with shifts enabled) rather than loop its shifts.
  sim::DistMultiVec v({8}, 2);  // outlives the machine's drain (see above)
  Machine machine(1);
  for (int i = 0; i < 8; ++i) {
    v.col(0, 0)[i] = static_cast<double>(i + 1);
    v.col(0, 1)[i] = 1.0;
  }
  v.col(0, 1)[3] = std::numeric_limits<double>::quiet_NaN();
  try {
    ortho::tsqr(machine, ortho::Method::kCholQr, v, 0, 2,
                ortho::TsqrOptions{});
    FAIL() << "NaN block did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBreakdown);
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
        << e.what();
  }
}

// --- zero-fault no-regression -----------------------------------------

TEST(ZeroFault, SeedOnlySpecIsByteIdenticalToPlainMachine) {
  const TestSystem s = make_system(3);
  const core::SolverOptions opts = base_opts();

  for (const NamedSolver& solver : {kCaGmres, kGmres}) {
    Machine plain(3);
    const core::SolveResult r_plain = solver.solve(plain, s.p, opts);

    Machine seeded(3);
    sim::parse_fault_spec("seed=123", seeded.fault_injector());
    ASSERT_FALSE(seeded.faults_armed());  // a seed alone schedules nothing
    const core::SolveResult r_seeded = solver.solve(seeded, s.p, opts);

    EXPECT_EQ(r_plain.stats.time_total, r_seeded.stats.time_total)
        << solver.name;
    EXPECT_EQ(r_plain.stats.iterations, r_seeded.stats.iterations)
        << solver.name;
    EXPECT_EQ(r_plain.stats.residual_history, r_seeded.stats.residual_history)
        << solver.name;
    EXPECT_EQ(r_plain.x, r_seeded.x) << solver.name;
    EXPECT_FALSE(r_seeded.stats.recovery.any()) << solver.name;
    EXPECT_EQ(plain.clock().elapsed(), seeded.clock().elapsed())
        << solver.name;
  }
}

// --- acceptance scenario (a): permanent device dropout ----------------

TEST(DeviceDropout, GmresSurvivesAndConverges) {
  const TestSystem s = make_system(3);
  Machine machine(3);
  sim::parse_fault_spec("kill:d1@op=400", machine.fault_injector());
  const core::SolveResult res = core::gmres(machine, s.p, base_opts());
  EXPECT_TRUE(res.stats.converged);
  EXPECT_EQ(machine.n_devices(), 2);  // one device retired
  EXPECT_EQ(res.stats.recovery.device_failures, 1);
  EXPECT_EQ(res.stats.recovery.repartitions, 1);
  EXPECT_GE(res.stats.recovery.rollbacks, 1);
  EXPECT_GT(res.stats.recovery.time_lost, 0.0);
  EXPECT_LT(relative_residual(s, res.x), 1e-5);
}

TEST(DeviceDropout, CaGmresSurvivesAndConverges) {
  const TestSystem s = make_system(3);
  Machine machine(3);
  sim::parse_fault_spec("kill:d2@op=600", machine.fault_injector());
  const core::SolveResult res = core::ca_gmres(machine, s.p, base_opts());
  EXPECT_TRUE(res.stats.converged);
  EXPECT_EQ(machine.n_devices(), 2);
  EXPECT_EQ(res.stats.recovery.device_failures, 1);
  EXPECT_EQ(res.stats.recovery.repartitions, 1);
  EXPECT_LT(relative_residual(s, res.x), 1e-5);
}

TEST(DeviceDropout, TimeTriggeredKillOnWildcardDevice) {
  const TestSystem s = make_system(3);
  Machine machine(3);
  sim::parse_fault_spec("kill:*@t=2ms", machine.fault_injector());
  const core::SolveResult res = core::ca_gmres(machine, s.p, base_opts());
  EXPECT_TRUE(res.stats.converged);
  EXPECT_EQ(machine.n_devices(), 2);
  EXPECT_LT(relative_residual(s, res.x), 1e-5);
}

// --- acceptance scenario (a'): correlated whole-node dropout ----------

TEST(NodeDropout, CaGmresRecoversViaPartnerCheckpoint) {
  const TestSystem s = make_system(4);
  Machine machine(4);
  machine.set_topology(2, 2);  // node 0 = {0,1}, node 1 = {2,3}
  sim::parse_fault_spec("nodekill:n1@op=600", machine.fault_injector());
  const core::SolveResult res = core::ca_gmres(machine, s.p, base_opts());
  EXPECT_TRUE(res.stats.converged);
  EXPECT_EQ(machine.n_devices(), 2);  // the whole node retired at once
  EXPECT_EQ(res.stats.recovery.node_failures, 1);
  EXPECT_EQ(res.stats.recovery.device_failures, 2);
  EXPECT_EQ(res.stats.recovery.repartitions, 1);
  // x came back from node 0's partner mirror, not a host checkpoint.
  EXPECT_GE(res.stats.recovery.partner_restores, 1);
  EXPECT_LT(relative_residual(s, res.x), 1e-5);
}

TEST(NodeDropout, PartnerAlsoLostFallsBackToHostCheckpoint) {
  // Rung 4 of the checkpoint ladder: three nodes of two devices, partners
  // k -> (k+1) mod 3. Node 2 dies first; node 1 dies inside node 2's
  // recovery, before its restore. The restore that completes then has to
  // recover node 1, whose partner (node 2) is already gone, so it reloads
  // from the host checkpoint. Node 0 survives, so nothing degrades.
  const TestSystem s = make_system(6);
  // Node 1's kill is pinned to an op count that falls inside node 2's
  // recovery. Codec passes add ops, so an env-armed codec is cleared.
  const auto shape = [](Machine& m) {
    m.set_topology(3, 2);
    for (const sim::TrafficClass c :
         {sim::TrafficClass::kHalo, sim::TrafficClass::kReduce,
          sim::TrafficClass::kCkpt}) {
      m.set_codec(c, sim::CodecSpec{});
    }
  };
  const char* both = "nodekill:n2@t=2ms;nodekill:n1@op=88";
  for (const NamedSolver& solver : {kGmres, kCaGmres}) {
    // Control: node 2 alone is restored from its partner, node 0, so the
    // hierarchy is engaged on this topology.
    Machine single(6);
    shape(single);
    sim::parse_fault_spec("nodekill:n2@t=2ms", single.fault_injector());
    const core::SolveResult r1 = solver.solve(single, s.p, base_opts());
    EXPECT_TRUE(r1.stats.converged) << solver.name;
    EXPECT_GE(r1.stats.recovery.partner_restores, 1) << solver.name;

    Machine machine(6);
    shape(machine);
    sim::parse_fault_spec(both, machine.fault_injector());
    const core::SolveResult res = solver.solve(machine, s.p, base_opts());
    // Node 2 (physical devices 4-5) went first, then node 1 (2-3), and one
    // repartition covered both losses.
    const auto& log = machine.fault_injector().log();
    ASSERT_EQ(log.size(), 2u) << solver.name;
    EXPECT_EQ(log[0].device / 2, 2) << solver.name;
    EXPECT_EQ(log[1].device / 2, 1) << solver.name;
    EXPECT_EQ(res.stats.recovery.repartitions, 1) << solver.name;
    EXPECT_EQ(res.stats.recovery.node_failures, 2) << solver.name;
    EXPECT_EQ(machine.n_devices(), 2) << solver.name;
    EXPECT_FALSE(res.stats.degraded.active) << solver.name;
    EXPECT_EQ(res.stats.recovery.partner_restores, 0) << solver.name;
    EXPECT_TRUE(res.stats.converged) << solver.name;
    EXPECT_LT(relative_residual(s, res.x), 1e-5) << solver.name;
  }
}

// --- acceptance scenario (b): transfer corruption ---------------------

TEST(TransferCorruption, GmresRetriesAndConverges) {
  const TestSystem s = make_system(3);
  Machine machine(3);
  sim::parse_fault_spec("seed=9;corrupt:p=0.01", machine.fault_injector());
  const core::SolveResult res = core::gmres(machine, s.p, base_opts());
  EXPECT_TRUE(res.stats.converged);
  EXPECT_GT(res.stats.recovery.transfer_corruptions, 0);
  EXPECT_GT(res.stats.recovery.transfer_retries, 0);
  EXPECT_GT(res.stats.recovery.time_lost, 0.0);
  EXPECT_LT(relative_residual(s, res.x), 1e-5);
}

TEST(TransferCorruption, RetryBudgetEndsInTypedError) {
  // Every attempt corrupt: four charged retries, then one typed error
  // naming the device (the solvers retire it, or degrade).
  Machine machine(2);
  sim::parse_fault_spec("corrupt:p=1", machine.fault_injector());
  try {
    machine.h2d(1, 4096.0);
    FAIL() << "an always-corrupt link must exhaust the retry budget";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kRetriesExhausted) << e.what();
    EXPECT_EQ(e.device(), 1);
  }
  EXPECT_EQ(machine.fault_injector().stats().transfer_retries, 4);
}

TEST(TransferCorruption, CaGmresRetriesAndConverges) {
  const TestSystem s = make_system(3);
  Machine machine(3);
  sim::parse_fault_spec("seed=10;corrupt:p=0.01", machine.fault_injector());
  const core::SolveResult res = core::ca_gmres(machine, s.p, base_opts());
  EXPECT_TRUE(res.stats.converged);
  EXPECT_GT(res.stats.recovery.transfer_retries, 0);
  EXPECT_LT(relative_residual(s, res.x), 1e-5);
}

TEST(TransferCorruption, ChecksumRetryRepricesTheCompressedWire) {
  // With a transfer codec armed the checksum retry retransmits the CODED
  // message (DESIGN.md §14): under the same corrupt storm the coded run
  // must keep the "identical numerics, strictly more time" contract against
  // a fault-free coded baseline, and each retransmission is priced on wire
  // bytes, so the coded run loses less time per retry than the plain one.
  const TestSystem s = make_system(3);
  sim::CodecSpec fp32;
  fp32.kind = sim::Codec::kFp32;
  const auto arm_codec = [&](Machine& m) {
    m.set_codec(sim::TrafficClass::kHalo, fp32);
    m.set_codec(sim::TrafficClass::kReduce, fp32);
  };

  Machine m_base(3);
  arm_codec(m_base);
  const core::SolveResult r_base = core::ca_gmres(m_base, s.p, base_opts());
  ASSERT_TRUE(r_base.stats.converged);

  Machine m_coded(3);
  arm_codec(m_coded);
  sim::parse_fault_spec("seed=10;corrupt:p=0.01", m_coded.fault_injector());
  const core::SolveResult res = core::ca_gmres(m_coded, s.p, base_opts());
  EXPECT_TRUE(res.stats.converged);
  EXPECT_GT(res.stats.recovery.transfer_retries, 0);
  // The retried payload decodes to exactly what a clean coded transfer
  // delivers: corruption costs time, never numerics.
  EXPECT_EQ(res.x, r_base.x);
  EXPECT_GT(res.stats.time_total, r_base.stats.time_total);

  // CAGMRES_COMPRESS arms every Machine in the process, so the plain
  // reference only exists when the environment is clean.
  if (test::codec_armed()) return;
  Machine m_plain(3);
  sim::parse_fault_spec("seed=10;corrupt:p=0.01", m_plain.fault_injector());
  const core::SolveResult r_plain = core::ca_gmres(m_plain, s.p, base_opts());
  ASSERT_GT(r_plain.stats.recovery.transfer_retries, 0);
  // Wire-byte pricing: simulated seconds lost per retransmission shrink
  // with the 2x smaller fp32 messages.
  const double per_retry_coded =
      res.stats.recovery.time_lost /
      static_cast<double>(res.stats.recovery.transfer_retries);
  const double per_retry_plain =
      r_plain.stats.recovery.time_lost /
      static_cast<double>(r_plain.stats.recovery.transfer_retries);
  EXPECT_LT(per_retry_coded, per_retry_plain);
}

TEST(TransferStall, ChargesExtraLatency) {
  const TestSystem s = make_system(3);
  Machine clean(3);
  const core::SolveResult r0 = core::ca_gmres(clean, s.p, base_opts());
  Machine machine(3);
  sim::parse_fault_spec("seed=3;stall:p=0.05", machine.fault_injector());
  const core::SolveResult res = core::ca_gmres(machine, s.p, base_opts());
  EXPECT_TRUE(res.stats.converged);
  EXPECT_GT(res.stats.recovery.transfer_stalls, 0);
  // Stalls only add latency: identical numerics, strictly more time.
  EXPECT_EQ(r0.x, res.x);
  EXPECT_GT(res.stats.time_total, r0.stats.time_total);
}

// --- acceptance scenario (c): transient NaN kernel faults -------------

TEST(KernelNan, GmresScrubsAndConverges) {
  const TestSystem s = make_system(3);
  Machine machine(3);
  sim::parse_fault_spec("seed=11;nan:p=0.002", machine.fault_injector());
  const core::SolveResult res = core::gmres(machine, s.p, base_opts());
  EXPECT_TRUE(res.stats.converged);
  EXPECT_GT(res.stats.recovery.kernel_faults, 0);
  EXPECT_GT(res.stats.recovery.blocks_replayed + res.stats.recovery.rollbacks,
            0);
  EXPECT_LT(relative_residual(s, res.x), 1e-5);
  EXPECT_TRUE(std::isfinite(res.stats.final_residual));
}

TEST(KernelNan, CaGmresScrubsAndConverges) {
  const TestSystem s = make_system(3);
  Machine machine(3);
  sim::parse_fault_spec("seed=12;nan:p=0.002", machine.fault_injector());
  const core::SolveResult res = core::ca_gmres(machine, s.p, base_opts());
  EXPECT_TRUE(res.stats.converged);
  EXPECT_GT(res.stats.recovery.kernel_faults, 0);
  EXPECT_GT(res.stats.recovery.blocks_replayed + res.stats.recovery.rollbacks,
            0);
  EXPECT_LT(relative_residual(s, res.x), 1e-5);
}

/// 1-based op-counter index (FaultEvent::at_op) of the first kernel named
/// `name` charged to physical device `dev` under `phase`, read off a traced
/// run: every charged kernel and transfer of a device is one interval on
/// its timeline, and markers ("event:record", "fault:nan", ...) carry a ':'
/// and are not ops. Returns -1 when there is no such kernel.
std::int64_t op_index_of(const sim::Trace& trace, int dev,
                         const std::string& name, const std::string& phase) {
  std::int64_t op = 0;
  for (const sim::TraceEvent& e : trace.events()) {
    if (e.device != dev || e.name.find(':') != std::string::npos) continue;
    ++op;
    if (e.name == name && e.phase == phase) return op;
  }
  return -1;
}

TEST(KernelNan, PoisonedGramBreakdownIsReplayedNotFatal) {
  // A NaN landing in the Gram kernel itself makes CholQR throw kBreakdown
  // (no shift can fix a NaN Gram) before the post-TSQR scrub runs; the
  // solver must treat that as a tainted block and replay, not die. The
  // fault is scheduled on exactly that kernel — device 0's first
  // tsqr-phase gemm — so the scenario does not depend on how many kernels
  // a block launches. The op is located on a traced run armed with an
  // event that never fires: an armed machine also charges the cycle
  // checkpoints, which an unarmed one skips.
  const TestSystem s = make_system(3);
  Machine clean(3);
  const core::SolveResult ref = core::ca_gmres(clean, s.p, base_opts());
  ASSERT_TRUE(ref.stats.converged);
  Machine probe(3);
  probe.enable_trace();
  sim::parse_fault_spec("nan:d0@op=1000000000", probe.fault_injector());
  const core::SolveResult probed = core::ca_gmres(probe, s.p, base_opts());
  ASSERT_EQ(probed.x, ref.x);
  const std::int64_t gram_op = op_index_of(probe.trace(), 0, "gemm", "tsqr");
  ASSERT_GT(gram_op, 0);

  Machine machine(3);
  machine.enable_trace();
  sim::parse_fault_spec("nan:d0@op=" + std::to_string(gram_op),
                        machine.fault_injector());
  const core::SolveResult res = core::ca_gmres(machine, s.p, base_opts());
  ASSERT_EQ(machine.fault_injector().log().size(), 1u);
  EXPECT_EQ(machine.fault_injector().log()[0].op, gram_op);
  // The poisoned op is the Gram: the first op after the marker is a gemm.
  const auto& ev = machine.trace().events();
  std::size_t i = 0;
  while (i < ev.size() && ev[i].name != "fault:nan") ++i;
  ASSERT_LT(i, ev.size());
  EXPECT_EQ(ev[i].phase, "tsqr");
  while (i < ev.size() &&
         (ev[i].device != 0 || ev[i].name.find(':') != std::string::npos)) {
    ++i;
  }
  ASSERT_LT(i, ev.size());
  EXPECT_EQ(ev[i].name, "gemm");

  EXPECT_TRUE(res.stats.converged);
  EXPECT_GE(res.stats.recovery.blocks_replayed, 1);
  EXPECT_EQ(res.stats.recovery.kernel_faults, 1);
  // The replay regenerates the block from the last accepted column, so
  // the solution is the unarmed one bit for bit.
  EXPECT_EQ(res.x, ref.x);
  EXPECT_EQ(res.stats.iterations, ref.stats.iterations);
}

TEST(KernelNan, ScheduledSingleFaultIsScrubbed) {
  const TestSystem s = make_system(3);
  Machine machine(3);
  sim::parse_fault_spec("nan:d0@op=200", machine.fault_injector());
  const core::SolveResult res = core::ca_gmres(machine, s.p, base_opts());
  EXPECT_TRUE(res.stats.converged);
  EXPECT_EQ(res.stats.recovery.kernel_faults, 1);
  EXPECT_LT(relative_residual(s, res.x), 1e-5);
  EXPECT_TRUE(std::isfinite(res.stats.final_residual));
}

// --- everything at once ------------------------------------------------

TEST(CombinedFaults, CaGmresSurvivesKillCorruptionAndNans) {
  const TestSystem s = make_system(4);
  const core::Problem p =
      core::make_problem(s.a, s.b, 4, graph::Ordering::kNatural, true, 1);
  Machine machine(4);
  sim::parse_fault_spec(
      "seed=7;kill:d3@op=500;nan:p=0.001;corrupt:p=0.005;stall:p=0.01",
      machine.fault_injector());
  const core::SolveResult res = core::ca_gmres(machine, p, base_opts());
  EXPECT_TRUE(res.stats.converged);
  EXPECT_EQ(machine.n_devices(), 3);
  EXPECT_GT(res.stats.recovery.faults_injected, 1);
  EXPECT_LT(relative_residual(s, res.x), 1e-5);
}

// --- seeded determinism (satellite 5) ---------------------------------

TEST(Determinism, SameFaultSeedGivesBitIdenticalSolves) {
  const TestSystem s = make_system(3);
  Machine machine(3);
  sim::parse_fault_spec("seed=5;nan:p=0.002;corrupt:p=0.005;stall:p=0.01",
                        machine.fault_injector());
  const core::SolveResult r1 = core::ca_gmres(machine, s.p, base_opts());
  machine.reset();  // replays the identical fault schedule
  const core::SolveResult r2 = core::ca_gmres(machine, s.p, base_opts());

  EXPECT_EQ(r1.x, r2.x);
  EXPECT_EQ(r1.stats.converged, r2.stats.converged);
  EXPECT_EQ(r1.stats.iterations, r2.stats.iterations);
  EXPECT_EQ(r1.stats.restarts, r2.stats.restarts);
  EXPECT_EQ(r1.stats.time_total, r2.stats.time_total);
  EXPECT_EQ(r1.stats.residual_history, r2.stats.residual_history);
  EXPECT_EQ(r1.stats.block_sizes, r2.stats.block_sizes);
  EXPECT_EQ(r1.stats.recovery.faults_injected,
            r2.stats.recovery.faults_injected);
  EXPECT_EQ(r1.stats.recovery.kernel_faults, r2.stats.recovery.kernel_faults);
  EXPECT_EQ(r1.stats.recovery.transfer_retries,
            r2.stats.recovery.transfer_retries);
  EXPECT_EQ(r1.stats.recovery.blocks_replayed,
            r2.stats.recovery.blocks_replayed);
  EXPECT_EQ(r1.stats.recovery.time_lost, r2.stats.recovery.time_lost);
}

TEST(Determinism, DeviceKillReplaysIdentically) {
  const TestSystem s = make_system(3);
  Machine machine(3);
  sim::parse_fault_spec("kill:d1@op=400", machine.fault_injector());
  const core::SolveResult r1 = core::gmres(machine, s.p, base_opts());
  machine.reset();
  ASSERT_EQ(machine.n_devices(), 3);  // reset un-retires the device
  const core::SolveResult r2 = core::gmres(machine, s.p, base_opts());
  EXPECT_EQ(r1.x, r2.x);
  EXPECT_EQ(r1.stats.time_total, r2.stats.time_total);
  EXPECT_EQ(r1.stats.recovery.repartitions, r2.stats.recovery.repartitions);
}

// --- stock scenarios on the event-schedule timelines ------------------
//
// The time- and op-triggered schedules key off charged timestamps and
// per-device op counts, both of which depend on the per-buffer event
// schedule (transfers start as soon as their producers finish, the
// exchange posts in a per-consumer order). These pin the stock scenarios
// to that schedule.

TEST(EventScheduleFaults, TimeTriggeredKillRetiresAndConverges) {
  const TestSystem s = make_system(3);
  Machine machine(3);
  sim::parse_fault_spec("kill:*@t=2ms", machine.fault_injector());
  const core::SolveResult res = core::ca_gmres(machine, s.p, base_opts());
  EXPECT_TRUE(res.stats.converged);
  EXPECT_EQ(machine.n_devices(), 2);  // the trigger fired on this timeline
  EXPECT_EQ(res.stats.recovery.device_failures, 1);
  EXPECT_LT(relative_residual(s, res.x), 1e-5);
}

TEST(EventScheduleFaults, OpTriggeredKillRetiresAndConverges) {
  const TestSystem s = make_system(3);
  Machine machine(3);
  sim::parse_fault_spec("kill:d2@op=600", machine.fault_injector());
  const core::SolveResult res = core::ca_gmres(machine, s.p, base_opts());
  EXPECT_TRUE(res.stats.converged);
  EXPECT_EQ(machine.n_devices(), 2);
  EXPECT_EQ(res.stats.recovery.repartitions, 1);
  EXPECT_LT(relative_residual(s, res.x), 1e-5);
}

TEST(EventScheduleFaults, StallAddsLatencyOnly) {
  // Stalls must stay latency-only: same bits, more time. This also pins
  // that the reduce fold order is keyed on fault-free charged time (an
  // injected stall must not reorder the summation, or the bits would move).
  const TestSystem s = make_system(3);
  Machine clean(3);
  const core::SolveResult r0 = core::ca_gmres(clean, s.p, base_opts());
  Machine machine(3);
  sim::parse_fault_spec("seed=3;stall:p=0.05", machine.fault_injector());
  const core::SolveResult res = core::ca_gmres(machine, s.p, base_opts());
  EXPECT_TRUE(res.stats.converged);
  EXPECT_GT(res.stats.recovery.transfer_stalls, 0);
  EXPECT_EQ(r0.x, res.x);
  EXPECT_GT(res.stats.time_total, r0.stats.time_total);
}

TEST(EventScheduleFaults, NanScrubConverges) {
  const TestSystem s = make_system(3);
  Machine machine(3);
  sim::parse_fault_spec("seed=12;nan:p=0.002", machine.fault_injector());
  const core::SolveResult res = core::ca_gmres(machine, s.p, base_opts());
  EXPECT_TRUE(res.stats.converged);
  EXPECT_GT(res.stats.recovery.kernel_faults, 0);
  EXPECT_LT(relative_residual(s, res.x), 1e-5);
}

TEST(EventScheduleFaults, CorruptRetriesAndConverges) {
  const TestSystem s = make_system(3);
  Machine machine(3);
  sim::parse_fault_spec("seed=10;corrupt:p=0.01", machine.fault_injector());
  const core::SolveResult res = core::ca_gmres(machine, s.p, base_opts());
  EXPECT_TRUE(res.stats.converged);
  EXPECT_GT(res.stats.recovery.transfer_retries, 0);
  EXPECT_LT(relative_residual(s, res.x), 1e-5);
}

TEST(EventScheduleFaults, KillDuringCheckpointRestartRepartition) {
  // Cascading kills with an identical trigger: the first fires on whichever
  // device reaches t=2ms, and the second lands on the very next qualifying
  // op from a survivor — i.e. inside the first kill's checkpoint-restart
  // while the repartitioning transfers are still in flight. Nested recovery
  // must compose: both retirements, both repartitions, still converged.
  const TestSystem s = make_system(4);
  Machine machine(4);
  sim::parse_fault_spec("kill:*@t=2ms;kill:*@t=2ms", machine.fault_injector());
  const core::SolveResult res = core::ca_gmres(machine, s.p, base_opts());
  EXPECT_TRUE(res.stats.converged);
  EXPECT_EQ(machine.n_devices(), 2);
  EXPECT_EQ(res.stats.recovery.device_failures, 2);
  // The second kill aborts the first repartition mid-flight; the redo
  // covers both retirements at once, so at least one completes.
  EXPECT_GE(res.stats.recovery.repartitions, 1);
  EXPECT_FALSE(res.stats.degraded.active);
  EXPECT_LT(relative_residual(s, res.x), 1e-5);
}

TEST(EventScheduleFaults, CorruptStormDegradesToCpuAndConverges) {
  // A transfer-corruption storm (70% per attempt, every retry re-rolls)
  // reliably drains the bounded retry loop: the solver hands off to the
  // host floor and still produces a correct solution, with the handoff
  // recorded in SolveStats::degraded — never a hang, a crash, or a silent
  // wrong answer.
  const TestSystem s = make_system(3);
  Machine machine(3);
  sim::parse_fault_spec("seed=9;corrupt:p=0.7", machine.fault_injector());
  const core::SolveResult res = core::ca_gmres(machine, s.p, base_opts());
  EXPECT_TRUE(res.stats.converged);
  EXPECT_TRUE(res.stats.degraded.active);
  EXPECT_FALSE(res.stats.degraded.reason.empty());
  EXPECT_LT(relative_residual(s, res.x), 1e-5);
}

}  // namespace
}  // namespace cagmres
