#include "precond/trisolve.hpp"

#include <limits>

namespace cagmres::precond {

namespace {

/// Injected transient kernel fault on a trisolve level: NaN-poison the
/// rows that level produced, mirroring mpk/exec.cpp.
void poison_rows(double* out, const int* rows, int n) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < n; ++i) out[rows[i]] = nan;
}

}  // namespace

void level_trisolve(sim::Machine& m, int d, const DeviceFactor& f,
                    const double* in, double* out) {
  const DeviceFactor* fp = &f;

  // Forward sweep: L y = in, unit diagonal. out[i] = in[i] - sum l_ij y[j]
  // with every j in an earlier level, so the whole level is one parallel
  // kernel, charged per level as a CSR-class SpMV.
  for (int l = 0; l < f.l_sched.levels(); ++l) {
    const int lo = f.l_sched.level_ptr[static_cast<std::size_t>(l)];
    const int rows = f.l_sched.level_rows(l);
    const double nnz = f.l_sched.level_nnz[static_cast<std::size_t>(l)];
    m.charge_device(d, sim::Kernel::kSpmvCsr, 2.0 * nnz,
                    nnz * 20.0 + 16.0 * rows);
    const bool hit = m.consume_kernel_fault(d);
    m.run_on_device(d, [=] {
      const int* ord = fp->l_sched.order.data() + lo;
#pragma omp parallel for schedule(static) if (rows > 1 << 10)
      for (int r = 0; r < rows; ++r) {
        const int i = ord[r];
        double acc = in[i];
        const auto plo = fp->l_ptr[static_cast<std::size_t>(i)];
        const auto phi = fp->l_ptr[static_cast<std::size_t>(i) + 1];
        for (auto p = plo; p < phi; ++p) {
          acc -= fp->l_val[static_cast<std::size_t>(p)] *
                 out[fp->l_idx[static_cast<std::size_t>(p)]];
        }
        out[i] = acc;
      }
      if (hit) poison_rows(out, ord, rows);
    });
  }
  // Backward sweep, in place: U x = y with the diagonal held inverted.
  // out[i] = (out[i] - sum u_ij out[j]) * inv_diag[i], dependencies in
  // earlier (higher-row) levels.
  for (int l = 0; l < f.u_sched.levels(); ++l) {
    const int lo = f.u_sched.level_ptr[static_cast<std::size_t>(l)];
    const int rows = f.u_sched.level_rows(l);
    const double nnz = f.u_sched.level_nnz[static_cast<std::size_t>(l)];
    m.charge_device(d, sim::Kernel::kSpmvCsr, 2.0 * nnz + rows,
                    nnz * 20.0 + 24.0 * rows);
    const bool hit = m.consume_kernel_fault(d);
    m.run_on_device(d, [=] {
      const int* ord = fp->u_sched.order.data() + lo;
#pragma omp parallel for schedule(static) if (rows > 1 << 10)
      for (int r = 0; r < rows; ++r) {
        const int i = ord[r];
        double acc = out[i];
        const auto plo = fp->u_ptr[static_cast<std::size_t>(i)];
        const auto phi = fp->u_ptr[static_cast<std::size_t>(i) + 1];
        for (auto p = plo; p < phi; ++p) {
          acc -= fp->u_val[static_cast<std::size_t>(p)] *
                 out[fp->u_idx[static_cast<std::size_t>(p)]];
        }
        out[i] = acc * fp->inv_diag[static_cast<std::size_t>(i)];
      }
      if (hit) poison_rows(out, ord, rows);
    });
  }
}

}  // namespace cagmres::precond
