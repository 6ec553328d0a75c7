// Level-scheduled sparse triangular solves for the device-local ILU(k)
// factors: one charged kernel per level per device, rows inside a level
// running in parallel (the factor's LevelSchedule guarantees their
// dependencies live in earlier levels). Device-local by construction, so
// the per-device level chains overlap freely across devices with no
// cross-device waits.
#pragma once

#include "precond/ilu.hpp"
#include "sim/machine.hpp"

namespace cagmres::precond {

/// Applies M^{-1} = U^{-1} L^{-1} of device d's factor to `in` (length
/// f.n(), the device's local rows), writing `out` (may alias `in`).
/// Dispatches one charged kernel per L level (forward) then per U level
/// (backward); kernels run on device d's in-order stream. Charges land on
/// the calling thread in program order, keeping simulated time bitwise
/// identical across worker counts.
void level_trisolve(sim::Machine& m, int d, const DeviceFactor& f,
                    const double* in, double* out);

}  // namespace cagmres::precond
