// Level-scheduled sparse triangular solves for the device-local ILU(0)
// factors: the simulated device is charged one kernel per level (rows
// inside a level are mutually independent, so a GPU runs each level as one
// parallel launch), while the host computes the whole apply in one serial
// pass per device (DESIGN.md §15). Device-local by construction, so the
// per-device solves overlap freely across devices with no cross-device
// waits.
#pragma once

#include "precond/ilu.hpp"
#include "sim/machine.hpp"

namespace cagmres::precond {

/// Applies M^{-1} = U^{-1} L^{-1} of device d's factor to `in` (length
/// f.n(), the device's local rows), writing `out` (may alias `in`).
/// Charges one kernel per L level (forward) then per U level (backward) on
/// the calling thread in program order, keeping simulated time bitwise
/// identical across worker counts, then enqueues one closure on device d's
/// in-order stream that walks the levels in the same order. A level an
/// injected kernel NaN hit has its rows poisoned right after it is
/// computed, so the poison reaches exactly the rows that depend on it.
void level_trisolve(sim::Machine& m, int d, const DeviceFactor& f,
                    const double* in, double* out);

}  // namespace cagmres::precond
