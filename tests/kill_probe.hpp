// Where a scheduled kill landed, for the fault tests that pin an
// op-triggered kill mid-solve. A solver change that shortens the solve can
// move convergence ahead of the trigger, after which the kill never fires
// and the test no longer exercises recovery; these tests assert the kill
// fired before a run of the same solve without it had converged.
#pragma once

#include <gtest/gtest.h>

#include "sim/fault.hpp"
#include "sim/machine.hpp"

namespace cagmres::test {

/// Success when `faulted`'s injection log holds a device or node kill at a
/// simulated time before `unkilled` (the same solve, without the kill)
/// finished.
inline ::testing::AssertionResult kill_landed_mid_solve(
    const sim::Machine& faulted, const sim::Machine& unkilled) {
  for (const sim::InjectionRecord& r : faulted.fault_injector().log()) {
    if (r.kind != sim::FaultKind::kDeviceFail &&
        r.kind != sim::FaultKind::kNodeFail) {
      continue;
    }
    const double end = unkilled.clock().elapsed();
    if (r.time < end) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "kill at t=" << r.time << " s, after the solve without it ended ("
           << end << " s)";
  }
  return ::testing::AssertionFailure()
         << "no kill fired: the solve converged before the trigger";
}

}  // namespace cagmres::test
