#include "precond/trisolve.hpp"

#include <algorithm>
#include <limits>

namespace cagmres::precond {

namespace {

/// Charges one factor's sync-free kernel on device d: its kSpmvCsr-class
/// totals plus one sptrsv_level_s wait per level below the first. Returns
/// whether an injected kernel NaN hit it.
bool charge_solve(sim::Machine& m, int d, const TrisolveCharge& c) {
  m.charge_device(d, sim::Kernel::kSpmvCsr, c.flops, c.bytes,
                  (c.depth - 1) * m.perf().sptrsv_level_s);
  return m.consume_kernel_fault(d);
}

/// Forward sweep in row order: L y = in, unit diagonal. out[i] = in[i] -
/// sum l_ij y[j], every j < i already final.
void forward_sweep(const DeviceFactor& f, const double* in, double* out) {
  for (int i = 0; i < f.n(); ++i) {
    double acc = in[i];
    const auto plo = f.l_ptr[static_cast<std::size_t>(i)];
    const auto phi = f.l_ptr[static_cast<std::size_t>(i) + 1];
    for (auto p = plo; p < phi; ++p) {
      acc -= f.l_val[static_cast<std::size_t>(p)] *
             out[f.l_idx[static_cast<std::size_t>(p)]];
    }
    out[i] = acc;
  }
}

/// Backward sweep in reverse row order, in place: U x = y with the
/// diagonal held inverted. out[i] = (out[i] - sum u_ij out[j]) *
/// inv_diag[i], every j > i already final.
void backward_sweep(const DeviceFactor& f, double* out) {
  for (int i = f.n() - 1; i >= 0; --i) {
    double acc = out[i];
    const auto plo = f.u_ptr[static_cast<std::size_t>(i)];
    const auto phi = f.u_ptr[static_cast<std::size_t>(i) + 1];
    for (auto p = plo; p < phi; ++p) {
      acc -= f.u_val[static_cast<std::size_t>(p)] *
             out[f.u_idx[static_cast<std::size_t>(p)]];
    }
    out[i] = acc * f.inv_diag[static_cast<std::size_t>(i)];
  }
}

}  // namespace

void trisolve(sim::Machine& m, int d, const DeviceFactor& f, const double* in,
              double* out) {
  if (f.n() == 0) return;  // an empty block launches nothing (depth 0)
  const bool l_hit = charge_solve(m, d, f.l_solve);
  const bool u_hit = charge_solve(m, d, f.u_solve);
  const DeviceFactor* fp = &f;
  m.run_on_device(d, [fp, in, out, hit = l_hit || u_hit] {
    if (hit) {
      std::fill(out, out + fp->n(), std::numeric_limits<double>::quiet_NaN());
      return;
    }
    forward_sweep(*fp, in, out);
    backward_sweep(*fp, out);
  });
}

}  // namespace cagmres::precond
