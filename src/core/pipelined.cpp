#include "core/pipelined.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "blas/least_squares.hpp"
#include "common/error.hpp"
#include "core/restart.hpp"
#include "ortho/reduce.hpp"
#include "precond/precond.hpp"
#include "sim/device_blas.hpp"

namespace cagmres::core {

namespace {

/// The pipelined cycle step. Its recurrence is fixed by construction
/// (CGS-style fused update, no orthogonalizer to swap), so its escalation
/// ladder is empty: watchdog trips are logged, and a progress-class trip —
/// with nothing left to try — stops the solve.
class PipelinedStep final : public detail::CycleStep {
 public:
  explicit PipelinedStep(const SolverOptions& opts) : opts_(opts) {}

  void rebuild(const Problem& prob) override {
    z_ = sim::DistMultiVec(prob.rows_per_device(), opts_.m + 1);
  }

  detail::CycleOutcome cycle(detail::Cycle& c) override;

 private:
  const SolverOptions& opts_;
  sim::DistMultiVec z_;  // Z = A * V, the pipelining basis
};

detail::CycleOutcome PipelinedStep::cycle(detail::Cycle& c) {
  sim::Machine& machine = c.machine;
  mpk::MpkExecutor& spmv = c.spmv;
  sim::DistMultiVec& v = c.v;
  sim::DistMultiVec& z = z_;
  precond::PrecondHandle* const pc = opts_.precond;
  const int ng = machine.n_devices();
  const int mm = opts_.m;
  // The fused reduction below is hand-rolled (raw d2h per device), so the
  // reduce-class codec is applied here directly: encode on the device,
  // wire-priced ship, decode at the host fold.
  const sim::CodecSpec& rcd = machine.codec(sim::TrafficClass::kReduce);
  std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(ng),
      std::vector<double>(static_cast<std::size_t>(mm) + 2, 0.0));
  std::vector<double> coeff(static_cast<std::size_t>(mm) + 2, 0.0);

  // Prime the pipeline: z_0 = A v_0 (A M^{-1} v_0 preconditioned; the
  // pipelining basis becomes Z = (A M^{-1}) V).
  if (pc != nullptr) {
    sim::DistMultiVec& stage = spmv.stage(2);
    pc->apply(machine, v, 0, stage, 0);
    spmv.spmv(machine, stage, 0, z, 0);
  } else {
    spmv.spmv(machine, v, 0, z, 0);
  }

  blas::GivensLS ls(mm, c.beta);
  detail::CycleOutcome out;
  for (int j = 0; j < mm; ++j) {
    sim::PhaseScope phase(machine, "orth");
    const int prev = j + 1;  // columns v_0..v_j are orthonormal

    // (1) Post the fused reduction for z_j: projections V^T z_j plus
    //     ||z_j||^2, one D2H message per device, and record one event per
    //     message — the reduction's arrival, before the lookahead SpMV is
    //     queued behind it.
    std::vector<sim::Event> red_ev(static_cast<std::size_t>(ng));
    for (int d = 0; d < ng; ++d) {
      auto& p = partial[static_cast<std::size_t>(d)];
      sim::dev_gemv_t(machine, d, v.local_rows(d), prev, v.col(d, 0),
                      v.local(d).ld(), z.col(d, j), p.data());
      p[static_cast<std::size_t>(prev)] = sim::dev_dot(
          machine, d, v.local_rows(d), z.col(d, j), z.col(d, j));
      machine.charge_codec(d, rcd, prev + 1);
      machine.d2h(d, rcd.wire_bytes(prev + 1), 8.0 * (prev + 1));
      red_ev[static_cast<std::size_t>(d)] = machine.record_event(d);
    }

    // (2) Lookahead product w = A z_j (A M^{-1} z_j preconditioned),
    //     overlapping the reduction wait. The trisolve is device-local,
    //     so it overlaps the in-flight reduction messages the same way.
    if (pc != nullptr) {
      sim::DistMultiVec& stage = spmv.stage(2);
      pc->apply(machine, z, j, stage, 0);
      spmv.spmv(machine, stage, 0, z, j + 1);
    } else {
      spmv.spmv(machine, z, j, z, j + 1);
    }

    // (3) The host waits only for the reduction messages, not the SpMV.
    //     The waits also cover, wall-clock, exactly the closures that
    //     filled partial[].
    {
      sim::PhaseScope phase2(machine, "orth");
      for (int d = 0; d < ng; ++d) {
        machine.host_wait_event(red_ev[static_cast<std::size_t>(d)]);
      }
      machine.charge_host(sim::Kernel::kAxpy,
                          static_cast<double>(prev + 1) * ng,
                          16.0 * (prev + 1) * ng);
    }
    // Fold the decoded wire images of the partials (partial[] is fully
    // rewritten next iteration, so quantizing in place is safe).
    if (rcd.active()) {
      for (int d = 0; d < ng; ++d) {
        rcd.roundtrip(partial[static_cast<std::size_t>(d)].data(), prev + 1);
      }
    }
    for (int i = 0; i <= prev; ++i) {
      coeff[static_cast<std::size_t>(i)] = 0.0;
      for (int d = 0; d < ng; ++d) {
        coeff[static_cast<std::size_t>(i)] +=
            partial[static_cast<std::size_t>(d)][static_cast<std::size_t>(i)];
      }
    }
    // Broadcast before reading the coefficients: it may quantize them in
    // place, and the recurrence below must use the values the devices
    // subtract (charge order unchanged — the fold is pure host work).
    ortho::detail::broadcast_charge(machine, prev + 1, coeff.data());
    const double n2 = coeff[static_cast<std::size_t>(prev)];
    double proj2 = 0.0;
    for (int i = 0; i < prev; ++i) {
      proj2 += coeff[static_cast<std::size_t>(i)] * coeff[static_cast<std::size_t>(i)];
    }
    double nu2 = n2 - proj2;

    // (4) Update BOTH bases by linearity (coefficients broadcast above):
    //     v_{j+1} = (z_j - V a)/nu,  z_{j+1} = (w - Z a)/nu.
    for (int d = 0; d < ng; ++d) {
      sim::dev_copy(machine, d, v.local_rows(d), z.col(d, j),
                    v.col(d, prev));
      sim::dev_gemv_n_sub(machine, d, v.local_rows(d), prev, v.col(d, 0),
                          v.local(d).ld(), coeff.data(), v.col(d, prev));
      sim::dev_gemv_n_sub(machine, d, v.local_rows(d), prev, z.col(d, 0),
                          z.local(d).ld(), coeff.data(), z.col(d, prev));
    }
    double nu;
    if (nu2 > 1e-8 * n2 && nu2 > 0.0) {
      nu = std::sqrt(nu2);
    } else {
      // Cancellation: recompute ||v_{j+1}|| explicitly (extra reduction;
      // the pipelined recurrence inherits CGS-grade stability).
      for (int d = 0; d < ng; ++d) {
        partial[static_cast<std::size_t>(d)][0] =
            sim::dev_dot(machine, d, v.local_rows(d), v.col(d, prev),
                         v.col(d, prev));
      }
      double explicit_n2 = 0.0;
      ortho::detail::reduce_to_host(machine, partial, 1, &explicit_n2);
      ortho::detail::broadcast_charge(machine, 1, &explicit_n2);
      nu = std::sqrt(std::max(explicit_n2, 0.0));
    }
    if (c.resilient) {
      // Health scrub: the fused reduction doubles as a free checksum —
      // finite projections and norm prove v_0..v_j and z_j NaN-free. The
      // poison it finds sits in this step's inputs, so replaying cannot
      // help: stop at the last clean column and let the next restart redo
      // the rest.
      bool clean = std::isfinite(nu);
      for (int i = 0; clean && i < prev; ++i) {
        clean = std::isfinite(coeff[static_cast<std::size_t>(i)]);
      }
      if (!clean) {
        ++c.st.recovery.blocks_replayed;
        break;
      }
    }
    // (5) Least squares bookkeeping (H column = [a; nu]). On a happy
    //     breakdown (nu == 0: the space is invariant) the column is still
    //     complete — append it and stop, as GMRES does.
    const bool breakdown = nu <= 1e-300;
    if (!breakdown) {
      for (int d = 0; d < ng; ++d) {
        sim::dev_scal(machine, d, v.local_rows(d), 1.0 / nu, v.col(d, prev));
        sim::dev_scal(machine, d, v.local_rows(d), 1.0 / nu, z.col(d, prev));
      }
    }
    coeff[static_cast<std::size_t>(prev)] = nu;
    out.ls_residual = ls.append_column(coeff.data());
    out.k = j + 1;
    if (breakdown || out.ls_residual <= c.abs_tol) break;
  }
  // The last lookahead exchange can still have closures parked on consumer
  // streams that read the owners' stage column in place; the host never
  // waited on them (step (3) waits only for the reductions), and the
  // preconditioned solution update rewrites that column next. Wall-only,
  // so charged time is unchanged.
  machine.sync();
  machine.charge_host(sim::Kernel::kSmall,
                      3.0 * static_cast<double>(out.k) * out.k, 0.0);
  out.y = ls.solve();
  c.st.iterations += out.k;
  return out;
}

}  // namespace

SolveResult pipelined_gmres(sim::Machine& machine, const Problem& problem,
                            const SolverOptions& opts) {
  CAGMRES_REQUIRE(opts.m >= 1, "restart length must be positive");
  PipelinedStep step(opts);
  return detail::run_restarts(machine, problem, opts, step);
}

}  // namespace cagmres::core
