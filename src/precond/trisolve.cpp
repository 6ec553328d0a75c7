#include "precond/trisolve.hpp"

#include <limits>
#include <utility>
#include <vector>

namespace cagmres::precond {

namespace {

/// Injected transient kernel fault on a trisolve level: NaN-poison the
/// rows that level produced, mirroring mpk/exec.cpp.
void poison_rows(double* out, const int* rows, int n) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < n; ++i) out[rows[i]] = nan;
}

/// Charges one kSpmvCsr-class kernel per level of `s` on device d (2 flops
/// and 20 bytes per factor nonzero, plus `row_flops`/`row_bytes` per row)
/// and returns the ascending indices of the levels an injected kernel NaN
/// hit.
std::vector<int> charge_levels(sim::Machine& m, int d, const LevelSchedule& s,
                               double row_flops, double row_bytes) {
  std::vector<int> hit;
  for (int l = 0; l < s.levels(); ++l) {
    const int rows = s.level_rows(l);
    const double nnz = s.level_nnz[static_cast<std::size_t>(l)];
    m.charge_device(d, sim::Kernel::kSpmvCsr, 2.0 * nnz + row_flops * rows,
                    nnz * 20.0 + row_bytes * rows);
    if (m.consume_kernel_fault(d)) hit.push_back(l);
  }
  return hit;
}

/// Forward sweep: L y = in, unit diagonal. out[i] = in[i] - sum l_ij y[j]
/// with every j in an earlier level, walked level by level in schedule
/// order. A hit level's rows are poisoned before any later level reads
/// them.
void forward_sweep(const DeviceFactor& f, const double* in, double* out,
                   const std::vector<int>& hit) {
  auto next_hit = hit.begin();
  for (int l = 0; l < f.l_sched.levels(); ++l) {
    const int* ord = f.l_sched.order.data() +
                     f.l_sched.level_ptr[static_cast<std::size_t>(l)];
    const int rows = f.l_sched.level_rows(l);
    for (int r = 0; r < rows; ++r) {
      const int i = ord[r];
      double acc = in[i];
      const auto plo = f.l_ptr[static_cast<std::size_t>(i)];
      const auto phi = f.l_ptr[static_cast<std::size_t>(i) + 1];
      for (auto p = plo; p < phi; ++p) {
        acc -= f.l_val[static_cast<std::size_t>(p)] *
               out[f.l_idx[static_cast<std::size_t>(p)]];
      }
      out[i] = acc;
    }
    if (next_hit != hit.end() && *next_hit == l) {
      poison_rows(out, ord, rows);
      ++next_hit;
    }
  }
}

/// Backward sweep, in place: U x = y with the diagonal held inverted.
/// out[i] = (out[i] - sum u_ij out[j]) * inv_diag[i], dependencies in
/// earlier (higher-row) levels. Poisons hit levels like forward_sweep.
void backward_sweep(const DeviceFactor& f, double* out,
                    const std::vector<int>& hit) {
  auto next_hit = hit.begin();
  for (int l = 0; l < f.u_sched.levels(); ++l) {
    const int* ord = f.u_sched.order.data() +
                     f.u_sched.level_ptr[static_cast<std::size_t>(l)];
    const int rows = f.u_sched.level_rows(l);
    for (int r = 0; r < rows; ++r) {
      const int i = ord[r];
      double acc = out[i];
      const auto plo = f.u_ptr[static_cast<std::size_t>(i)];
      const auto phi = f.u_ptr[static_cast<std::size_t>(i) + 1];
      for (auto p = plo; p < phi; ++p) {
        acc -= f.u_val[static_cast<std::size_t>(p)] *
               out[f.u_idx[static_cast<std::size_t>(p)]];
      }
      out[i] = acc * f.inv_diag[static_cast<std::size_t>(i)];
    }
    if (next_hit != hit.end() && *next_hit == l) {
      poison_rows(out, ord, rows);
      ++next_hit;
    }
  }
}

}  // namespace

void level_trisolve(sim::Machine& m, int d, const DeviceFactor& f,
                    const double* in, double* out) {
  // Every level is charged (and polled for an injected NaN) on the calling
  // thread in program order; the hit lists stay empty, and allocate
  // nothing, on a fault-free apply. U rows also multiply by the inverted
  // diagonal (1 flop, 8 bytes).
  std::vector<int> l_hit = charge_levels(m, d, f.l_sched, 0.0, 16.0);
  std::vector<int> u_hit = charge_levels(m, d, f.u_sched, 1.0, 24.0);
  // The numerics run as one serial host pass on device d's stream. The
  // closure owns its hit lists: two applies in flight on one stream must
  // not share them.
  const DeviceFactor* fp = &f;
  m.run_on_device(d, [fp, in, out, l_hit = std::move(l_hit),
                      u_hit = std::move(u_hit)] {
    forward_sweep(*fp, in, out, l_hit);
    backward_sweep(*fp, out, u_hit);
  });
}

}  // namespace cagmres::precond
