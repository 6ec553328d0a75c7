#include "core/cpu_gmres.hpp"

#include <cmath>

#include "blas/blas1.hpp"
#include "blas/blas2.hpp"
#include "blas/least_squares.hpp"
#include "blas/matrix.hpp"
#include "common/error.hpp"

namespace cagmres::core {

namespace {

/// Host SpMV with the CPU streaming-rate charge.
void host_spmv(sim::Machine& m, const sparse::CsrMatrix& a, const double* x,
               double* y) {
  sim::PhaseScope phase(m, "spmv");
  const double nnz = static_cast<double>(a.nnz());
  m.charge_host(sim::Kernel::kSpmvCsr, 2.0 * nnz, nnz * 20.0 + 12.0 * a.n_rows);
  sparse::spmv(a, x, y);
}

}  // namespace

namespace detail {

SolveStats host_gmres(sim::Machine& machine, const Problem& problem,
                      const SolverOptions& opts, std::vector<double>& x,
                      bool x_nonzero, double abs_tol) {
  CAGMRES_REQUIRE(opts.m >= 1, "restart length must be positive");
  const int n = problem.n();
  const int mm = opts.m;
  const sparse::CsrMatrix& a = problem.a;
  CAGMRES_REQUIRE(static_cast<int>(x.size()) == n, "host_gmres: bad x size");

  blas::DMat v(n, mm + 1);
  std::vector<double> ax(static_cast<std::size_t>(n), 0.0);
  std::vector<double> coeff(static_cast<std::size_t>(mm) + 1, 0.0);

  SolveStats st;
  const double t0 = machine.clock().elapsed();
  const sim::PhaseTimers phases0 = machine.phases();

  double res = 0.0;
  for (int restart = 0; restart < opts.max_restarts; ++restart) {
    // r = b - A x into v(:,0).
    if (restart == 0 && !x_nonzero) {
      blas::copy(n, problem.b.data(), v.col(0));
    } else {
      host_spmv(machine, a, x.data(), ax.data());
      blas::copy(n, problem.b.data(), v.col(0));
      blas::axpy(n, -1.0, ax.data(), v.col(0));
      machine.charge_host(sim::Kernel::kAxpy, 2.0 * n, 24.0 * n);
    }
    res = blas::nrm2(n, v.col(0));
    machine.charge_host(sim::Kernel::kDot, 2.0 * n, 8.0 * n);
    if (restart == 0) {
      st.initial_residual = res;
      if (res == 0.0) {
        st.converged = true;
        break;
      }
    }
    const double target =
        abs_tol > 0.0 ? abs_tol : opts.tol * st.initial_residual;
    st.residual_history.push_back(res);
    if (res <= target) {
      st.converged = true;
      break;
    }
    blas::scal(n, 1.0 / res, v.col(0));
    machine.charge_host(sim::Kernel::kScal, 1.0 * n, 16.0 * n);

    blas::GivensLS ls(mm, res);
    int k = 0;
    for (int j = 0; j < mm; ++j) {
      host_spmv(machine, a, v.col(j), v.col(j + 1));
      sim::PhaseScope phase(machine, "orth");
      const int prev = j + 1;
      if (opts.gmres_orth == ortho::Method::kCgs) {
        blas::gemv_t(n, prev, 1.0, v.col(0), v.ld(), v.col(prev), 0.0,
                     coeff.data());
        blas::gemv_n(n, prev, -1.0, v.col(0), v.ld(), coeff.data(), 1.0,
                     v.col(prev));
        machine.charge_host(sim::Kernel::kGemv,
                            4.0 * static_cast<double>(n) * prev,
                            2.0 * 8.0 * static_cast<double>(n) * prev);
      } else {  // MGS
        for (int l = 0; l < prev; ++l) {
          const double r = blas::dot(n, v.col(l), v.col(prev));
          blas::axpy(n, -r, v.col(l), v.col(prev));
          coeff[static_cast<std::size_t>(l)] = r;
        }
        machine.charge_host(sim::Kernel::kDot,
                            4.0 * static_cast<double>(n) * prev,
                            4.0 * 8.0 * static_cast<double>(n) * prev);
      }
      const double nrm = blas::nrm2(n, v.col(prev));
      machine.charge_host(sim::Kernel::kDot, 2.0 * n, 8.0 * n);
      coeff[static_cast<std::size_t>(prev)] = nrm;
      k = j + 1;
      if (nrm <= 1e-300) {
        ls.append_column(coeff.data());
        break;
      }
      blas::scal(n, 1.0 / nrm, v.col(prev));
      machine.charge_host(sim::Kernel::kScal, 1.0 * n, 16.0 * n);
      const double ls_res = ls.append_column(coeff.data());
      if (ls_res <= target) break;
    }
    const std::vector<double> y = ls.solve();
    blas::gemv_n(n, k, 1.0, v.col(0), v.ld(), y.data(), 1.0, x.data());
    machine.charge_host(sim::Kernel::kGemv, 2.0 * static_cast<double>(n) * k,
                        8.0 * static_cast<double>(n) * k);
    st.iterations += k;
    ++st.restarts;
  }
  st.final_residual = res;

  st.time_total = machine.clock().elapsed() - t0;
  finalize_phase_times(st, phases0, machine.phases());
  return st;
}

}  // namespace detail

SolveResult cpu_gmres(sim::Machine& machine, const Problem& problem,
                      const SolverOptions& opts) {
  std::vector<double> x(static_cast<std::size_t>(problem.n()), 0.0);
  SolveResult result;
  result.stats = detail::host_gmres(machine, problem, opts, x);
  result.x = recover_solution(problem, x);
  return result;
}

}  // namespace cagmres::core
