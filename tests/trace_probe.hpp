// Locates a charged kernel on a traced run, for the fault tests that pin
// an op-triggered injection on one specific kernel instead of relying on a
// hand-counted op index that any change to the kernel sequence moves.
#pragma once

#include <cstdint>
#include <string>

#include "sim/trace.hpp"

namespace cagmres::test {

/// 1-based op-counter index (FaultEvent::at_op) of the first kernel named
/// `name` charged to physical device `dev` under `phase`, read off a traced
/// run: every charged kernel and transfer of a device is one interval on
/// its timeline, and markers ("event:record", "fault:nan", ...) carry a ':'
/// and are not ops. Returns -1 when there is no such kernel.
inline std::int64_t op_index_of(const sim::Trace& trace, int dev,
                                const std::string& name,
                                const std::string& phase) {
  std::int64_t op = 0;
  for (const sim::TraceEvent& e : trace.events()) {
    if (e.device != dev || e.name.find(':') != std::string::npos) continue;
    ++op;
    if (e.name == name && e.phase == phase) return op;
  }
  return -1;
}

}  // namespace cagmres::test
