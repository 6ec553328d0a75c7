#include "core/gmres.hpp"

#include <algorithm>
#include <cmath>

#include "blas/least_squares.hpp"
#include "common/error.hpp"
#include "ortho/reduce.hpp"
#include "precond/precond.hpp"
#include "sim/device_blas.hpp"

namespace cagmres::core {

namespace detail {

CycleOutcome arnoldi_cycle(sim::Machine& m, mpk::MpkExecutor& spmv,
                           sim::DistMultiVec& v, int mm, ortho::Method orth,
                           double beta, double abs_tol, int max_replays,
                           precond::PrecondHandle* pc) {
  CAGMRES_REQUIRE(orth == ortho::Method::kMgs || orth == ortho::Method::kCgs,
                  "GMRES Orth must be MGS or CGS");
  const int ng = m.n_devices();
  CycleOutcome out;
  out.h = blas::DMat(mm + 1, mm);
  blas::GivensLS ls(mm, beta);
  std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(ng),
      std::vector<double>(static_cast<std::size_t>(mm) + 1, 0.0));
  std::vector<double> coeff(static_cast<std::size_t>(mm) + 1, 0.0);

  for (int j = 0; j < mm; ++j) {
    const int k = j + 1;  // number of previous columns
    double nrm = 0.0;
    int attempts = 0;
    bool column_ok = false;
    // Replay loop: the SpMV fully rewrites column k from the (accepted)
    // column j, so re-running a poisoned iteration is side-effect free.
    // (Preconditioned, the apply fully rewrites the stage column too.)
    while (true) {
      if (pc != nullptr) {
        sim::DistMultiVec& stage = spmv.stage(2);
        pc->apply(m, v, j, stage, 0);
        spmv.spmv(m, stage, 0, v, j + 1);
      } else {
        spmv.spmv(m, v, j, j + 1);
      }

      sim::PhaseScope phase(m, "orth");
      if (orth == ortho::Method::kCgs) {
        for (int d = 0; d < ng; ++d) {
          sim::dev_gemv_t(m, d, v.local_rows(d), k, v.col(d, 0),
                          v.local(d).ld(), v.col(d, k),
                          partial[static_cast<std::size_t>(d)].data());
        }
        ortho::detail::reduce_to_host(m, partial, k, coeff.data());
        ortho::detail::broadcast_charge(m, k);
        for (int d = 0; d < ng; ++d) {
          sim::dev_gemv_n_sub(m, d, v.local_rows(d), k, v.col(d, 0),
                              v.local(d).ld(), coeff.data(), v.col(d, k));
        }
        for (int i = 0; i < k; ++i) {
          out.h(i, j) = coeff[static_cast<std::size_t>(i)];
        }
      } else {  // MGS: one reduction per previous column
        for (int l = 0; l < k; ++l) {
          for (int d = 0; d < ng; ++d) {
            partial[static_cast<std::size_t>(d)][0] = sim::dev_dot(
                m, d, v.local_rows(d), v.col(d, l), v.col(d, k));
          }
          double r = 0.0;
          ortho::detail::reduce_to_host(m, partial, 1, &r);
          ortho::detail::broadcast_charge(m, 1);
          out.h(l, j) = r;
          for (int d = 0; d < ng; ++d) {
            sim::dev_axpy(m, d, v.local_rows(d), -r, v.col(d, l), v.col(d, k));
          }
        }
      }
      // Norm of the new vector (doubles as the health checksum: a finite
      // sum of squares proves the whole column is NaN/Inf free).
      for (int d = 0; d < ng; ++d) {
        partial[static_cast<std::size_t>(d)][0] =
            sim::dev_dot(m, d, v.local_rows(d), v.col(d, k), v.col(d, k));
      }
      double nrm_sq = 0.0;
      ortho::detail::reduce_to_host(m, partial, 1, &nrm_sq);
      if (max_replays > 0) {
        bool ok = std::isfinite(nrm_sq);
        for (int i = 0; ok && i < k; ++i) ok = std::isfinite(out.h(i, j));
        if (!ok) {
          ++out.replays;
          if (++attempts > max_replays) break;  // give up on this iteration
          continue;
        }
      }
      nrm = std::sqrt(std::max(nrm_sq, 0.0));
      column_ok = true;
      break;
    }
    if (!column_ok) break;  // persistent poison: keep the clean prefix
    if (nrm <= 1e-300) {  // happy breakdown: subspace is invariant
      out.h(k, j) = nrm;
      out.k = j + 1;
      // Column j of H is complete with h(k, j) = 0; append and stop.
      std::vector<double> col(static_cast<std::size_t>(k) + 1);
      for (int i = 0; i <= k; ++i) col[static_cast<std::size_t>(i)] = out.h(i, j);
      out.ls_residual = ls.append_column(col.data());
      break;
    }
    ortho::detail::broadcast_charge(m, 1);
    out.h(k, j) = nrm;
    for (int d = 0; d < ng; ++d) {
      sim::dev_scal(m, d, v.local_rows(d), 1.0 / nrm, v.col(d, k));
    }

    std::vector<double> col(static_cast<std::size_t>(k) + 1);
    for (int i = 0; i <= k; ++i) col[static_cast<std::size_t>(i)] = out.h(i, j);
    out.ls_residual = ls.append_column(col.data());
    out.k = j + 1;
    if (out.ls_residual <= abs_tol) break;
  }
  m.charge_host(sim::Kernel::kSmall,
                3.0 * static_cast<double>(out.k) * out.k, 0.0);
  out.y = ls.solve();
  return out;
}

EscalationStep GmresStep::harden() {
  if (orth_ != ortho::Method::kCgs) return EscalationStep::kNone;
  orth_ = ortho::Method::kMgs;
  return EscalationStep::kSwitchOrth;
}

CycleOutcome GmresStep::cycle(Cycle& c, int steps) {
  CycleOutcome out = arnoldi_cycle(
      c.machine, c.spmv, c.v, steps, orth_, c.beta, c.abs_tol,
      c.resilient ? kMaxBlockReplays : 0, opts_.precond);
  c.st.iterations += out.k;
  c.st.recovery.blocks_replayed += out.replays;
  return out;
}

}  // namespace detail

SolveResult gmres(sim::Machine& machine, const Problem& problem,
                  const SolverOptions& opts) {
  CAGMRES_REQUIRE(opts.m >= 1, "restart length must be positive");
  detail::GmresStep step(opts);
  return detail::run_restarts(machine, problem, opts, step);
}

}  // namespace cagmres::core
