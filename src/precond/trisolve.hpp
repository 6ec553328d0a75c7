// Sync-free sparse triangular solves for the device-local ILU(0) factors
// (Liu, Li, Hou & Vinter, Euro-Par 2016): the simulated device runs each
// factor as one kernel in which a row waits on per-row dependency counters
// instead of a grid-wide barrier per level, so it is charged one launch per
// factor plus a dependency wait per level of the factor's critical path
// (DESIGN.md §15). The host computes the apply as one natural-order pass
// per device. Device-local by construction, so the per-device solves
// overlap freely across devices with no cross-device waits.
#pragma once

#include "precond/ilu.hpp"
#include "sim/machine.hpp"

namespace cagmres::precond {

/// Applies M^{-1} = U^{-1} L^{-1} of device d's factor to `in` (length
/// f.n(), the device's local rows), writing `out` (may alias `in`).
/// Charges the L kernel then the U kernel on the calling thread in program
/// order, keeping simulated time bitwise identical across worker counts,
/// then enqueues one closure on device d's in-order stream that sweeps L
/// forward in row order and U backward. Each kernel consumes one injected
/// kernel-NaN latch; a hit poisons every row of `out`, since both kernels
/// write all of the device's rows.
void trisolve(sim::Machine& m, int d, const DeviceFactor& f, const double* in,
              double* out);

}  // namespace cagmres::precond
