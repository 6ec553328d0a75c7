#include "core/restart.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "core/checkpoint.hpp"
#include "core/cpu_gmres.hpp"
#include "mpk/plan.hpp"
#include "ortho/reduce.hpp"
#include "precond/precond.hpp"
#include "sim/device_blas.hpp"

namespace cagmres::core::detail {

namespace {

/// Global dot product of two distributed columns (Fig. 9's reduction).
double dist_dot(sim::Machine& m, const sim::DistMultiVec& v, int ca, int cb) {
  const int ng = m.n_devices();
  std::vector<std::vector<double>> partial(
      static_cast<std::size_t>(ng), std::vector<double>(1, 0.0));
  for (int d = 0; d < ng; ++d) {
    partial[static_cast<std::size_t>(d)][0] =
        sim::dev_dot(m, d, v.local_rows(d), v.col(d, ca), v.col(d, cb));
  }
  double out = 0.0;
  ortho::detail::reduce_to_host(m, partial, 1, &out);
  return out;
}

}  // namespace

double compute_residual(sim::Machine& m, mpk::MpkExecutor& spmv,
                        const sim::DistVec& b, sim::DistMultiVec& xwork,
                        sim::DistMultiVec& v, int rcol, bool first) {
  const int ng = m.n_devices();
  if (first) {
    for (int d = 0; d < ng; ++d) {
      sim::dev_copy(m, d, v.local_rows(d), b.local(d), v.col(d, rcol));
    }
  } else {
    spmv.spmv(m, xwork, /*xcol=*/0, /*ycol=*/1);
    for (int d = 0; d < ng; ++d) {
      sim::dev_copy(m, d, v.local_rows(d), b.local(d), v.col(d, rcol));
      sim::dev_axpy(m, d, v.local_rows(d), -1.0, xwork.col(d, 1),
                    v.col(d, rcol));
    }
  }
  const double nrm_sq = dist_dot(m, v, rcol, rcol);
  return std::sqrt(std::max(nrm_sq, 0.0));
}

void update_solution(sim::Machine& m, sim::DistMultiVec& v, int k,
                     const std::vector<double>& y, sim::DistMultiVec& xwork,
                     precond::PrecondHandle* pc, sim::DistMultiVec* stage) {
  CAGMRES_REQUIRE(static_cast<int>(y.size()) >= k, "short LS solution");
  if (k == 0) return;
  ortho::detail::broadcast_charge(m, k);
  if (pc == nullptr) {
    for (int d = 0; d < m.n_devices(); ++d) {
      sim::dev_gemv_n_acc(m, d, v.local_rows(d), k, v.col(d, 0),
                          v.local(d).ld(), y.data(), xwork.col(d, 0));
    }
    return;
  }
  // Right-preconditioned: the basis spans the u-space (A M^{-1} u = b), so
  // the true-space correction is M^{-1} (V y): stage V y in column 1,
  // solve M into column 0, accumulate into x. Column 1 is fully
  // overwritten (copy + scale of the first term, then accumulate), so
  // poison from an earlier faulted update cannot persist across rollbacks.
  CAGMRES_REQUIRE(stage != nullptr && stage->cols() >= 2,
                  "preconditioned update needs a 2-column stage");
  for (int d = 0; d < m.n_devices(); ++d) {
    sim::dev_copy(m, d, v.local_rows(d), v.col(d, 0), stage->col(d, 1));
    sim::dev_scal(m, d, stage->local_rows(d), y[0], stage->col(d, 1));
    if (k > 1) {
      sim::dev_gemv_n_acc(m, d, v.local_rows(d), k - 1, v.col(d, 1),
                          v.local(d).ld(), y.data() + 1, stage->col(d, 1));
    }
  }
  pc->apply(m, *stage, 1, *stage, 0);
  for (int d = 0; d < m.n_devices(); ++d) {
    sim::dev_axpy(m, d, xwork.local_rows(d), 1.0, stage->col(d, 0),
                  xwork.col(d, 0));
  }
}

void charge_redistribution(sim::Machine& m, const Problem& p) {
  for (int d = 0; d < p.n_devices(); ++d) {
    const int r0 = p.offsets[static_cast<std::size_t>(d)];
    const int r1 = p.offsets[static_cast<std::size_t>(d) + 1];
    const double nnz = static_cast<double>(
        p.a.row_ptr[static_cast<std::size_t>(r1)] -
        p.a.row_ptr[static_cast<std::size_t>(r0)]);
    // vals (8B) + col_idx (4B) per nonzero, row_ptr (8B) + rhs (8B) per row.
    m.h2d(d, 12.0 * nnz + 16.0 * (r1 - r0));
  }
  m.host_wait_all();
}

SolveResult run_restarts(sim::Machine& machine, const Problem& problem,
                         const SolverOptions& opts, CycleStep& step) {
  CAGMRES_REQUIRE(problem.n_devices() == machine.n_devices(),
                  "problem/machine device count mismatch");
  const bool resilient = machine.faults_armed();
  const sim::FaultStats faults0 = machine.fault_injector().stats();
  const sim::Counters ctr0 = machine.counters();
  // Per-restart tier-traffic trace instants diff against this snapshot.
  sim::Counters ctr_last = ctr0;
  if (machine.halo_codec() != sim::Codec::kNone) {
    machine.trace_instant("codec:" + sim::to_string(machine.halo_codec()),
                          "other");
  }
  std::vector<int> rows = problem.rows_per_device();

  // Owned repartitioned copy after a device loss; `prob` always points at
  // the problem currently mapped onto the machine.
  Problem repart;
  const Problem* prob = &problem;
  auto plan = std::make_unique<mpk::MpkPlan>(
      mpk::build_mpk_plan(prob->a, prob->offsets, 1));
  auto spmv = std::make_unique<mpk::MpkExecutor>(*plan);
  step.rebuild(*prob);
  precond::PrecondHandle* const pc = opts.precond;

  sim::DistMultiVec v(rows, opts.m + 1);
  sim::DistMultiVec xwork(rows, 2);
  sim::DistVec b(rows);
  b.assign_from_host(prob->b);
  // Declared after the distributed buffers (the step's own were built
  // before this call): on exceptional unwind the pool drains before any
  // of them, or the executor's z buffers, are destroyed.
  sim::DrainGuard drain_guard(machine);

  SolveResult result;
  SolveStats& st = result.stats;
  const double t0 = machine.clock().elapsed();
  const sim::PhaseTimers phases0 = machine.phases();

  // --- numerical health monitor + escalation ladder (core/health.hpp) ---
  // The step names its rungs; with no monitor armed the ladder never runs
  // and the solve charges exactly what it would without this layer.
  SolveHealthMonitor hm(machine, opts.health, step.capabilities());
  const bool health_on = hm.armed();
  double prev_recurrence = -1.0;  // previous cycle's LS residual estimate
  bool prev_claimed = false;      // ... and whether it met the tolerance
  int restart = 0;
  // One trip -> at most one rung. A progress-class trip that finds the
  // ladder exhausted stops the solve instead of burning the whole restart
  // budget on a solve that is going nowhere.
  const std::function<void(HealthEventKind)> respond =
      [&](HealthEventKind cause) {
        const double value =
            hm.events().empty() ? 0.0 : hm.events().back().value;
        const EscalationStep a = hm.escalate(
            cause, value, restart, st.iterations,
            [&](EscalationStep s) { return step.rung_applicable(s); });
        if (a != EscalationStep::kNone) {
          step.apply_rung(a);
          ++st.ladder_steps;
          return;
        }
        if (cause == HealthEventKind::kStagnation ||
            cause == HealthEventKind::kDivergence ||
            cause == HealthEventKind::kFalseConvergence) {
          sim::UnwindDrainGuard unwind_guard(machine);
          CAGMRES_REQUIRE_CODE(false, ErrorCode::kDeadlineExceeded,
                               "escalation ladder exhausted while the solve "
                               "was not progressing");
        }
      };

  // Restart = checkpoint: the last solution whose residual was proven
  // finite, in prepared row order (valid across repartitions). On a
  // multi-node topology the checkpointer is hierarchical (buddy mirrors,
  // core/checkpoint.hpp); flat machines get the original host path.
  Checkpointer ckpt(machine, resilient);
  if (resilient) ckpt.init_zero(prob->n());
  bool x_is_zero = true;   // x == 0 exactly (first residual is just b)
  bool needs_rebuild = false;
  std::vector<int> pending_lost_nodes;  // domains the last fault finished off
  int tainted_rollbacks = 0;  // consecutive, reset by an accepted cycle

  // Per-node-domain nested-recovery budget: consecutive hardware-recovery
  // rounds (a fresh fault landing before a post-recovery restart completed)
  // charge an exponentially growing host backoff and are bounded per fault
  // domain; crossing the budget (or losing every device) degrades to the
  // host-only solver.
  RecoveryDomains domains(machine, resilient);
  bool degrade_now = false;
  std::string degrade_reason;

  double res = 0.0;
  while (restart < opts.max_restarts) {
    try {
      if (needs_rebuild) {
        // A device was retired: re-split the prepared problem over the
        // survivors, rebuild the distributed state (the step's too), and
        // resume from the last checkpoint. All redistribution is charged.
        const double t_reb = machine.clock().elapsed();
        machine.sync();  // the old v/xwork/executors are replaced below
        repart = repartition_problem(*prob, machine.n_devices());
        prob = &repart;
        rows = prob->rows_per_device();
        plan = std::make_unique<mpk::MpkPlan>(
            mpk::build_mpk_plan(prob->a, prob->offsets, 1));
        spmv = std::make_unique<mpk::MpkExecutor>(*plan);
        step.rebuild(*prob);
        v = sim::DistMultiVec(rows, opts.m + 1);
        xwork = sim::DistMultiVec(rows, 2);
        b = sim::DistVec(rows);
        b.assign_from_host(prob->b);
        charge_redistribution(machine, *prob);
        // Only the devices whose row ranges moved are refactored; factors
        // for unchanged ranges are reused from the handle's cache.
        if (pc != nullptr) pc->rebuild(machine, prob->a, prob->offsets);
        ckpt.restore_after_repartition(xwork, pending_lost_nodes);
        pending_lost_nodes.clear();
        x_is_zero = ckpt.x_zero();
        ++st.recovery.repartitions;
        ++st.recovery.rollbacks;
        st.recovery.time_lost += machine.clock().elapsed() - t_reb;
        needs_rebuild = false;
      }
      // Factor lazily inside the fault-handling scope: a device kill
      // landing in setup classifies and repartitions like any other fault.
      // Restarts after the first see matches() true and charge nothing.
      if (pc != nullptr && !pc->matches(prob->offsets)) {
        pc->build(machine, prob->a, prob->offsets);
      }

      res = compute_residual(machine, *spmv, b, xwork, v, 0, x_is_zero);
      if (resilient) {
        // A finite ||b - A x|| proves x is poison-free; a non-finite one
        // means NaN leaked past the in-cycle scrub (or hit x itself), so
        // roll back to the checkpoint and recompute.
        int attempts = 0;
        while (!std::isfinite(res)) {
          CAGMRES_REQUIRE_CODE(++attempts <= kMaxBlockReplays,
                               ErrorCode::kRetriesExhausted,
                               "residual stayed non-finite across rollbacks");
          const double t_rb = machine.clock().elapsed();
          ckpt.rollback(xwork);
          x_is_zero = ckpt.x_zero();
          ++st.recovery.rollbacks;
          res = compute_residual(machine, *spmv, b, xwork, v, 0, x_is_zero);
          st.recovery.time_lost += machine.clock().elapsed() - t_rb;
        }
        ckpt.save(xwork, x_is_zero);
      }
      // Without injected faults there is nothing to roll back to: a
      // non-finite residual means the arithmetic itself overflowed.
      CAGMRES_REQUIRE_CODE(std::isfinite(res), ErrorCode::kBreakdown,
                           "restart residual is not finite");
      if (restart == 0) {
        st.initial_residual = res;
        if (res == 0.0) {  // b == 0: x = 0 is exact
          st.converged = true;
          break;
        }
      }
      st.residual_history.push_back(res);
      const double abs_tol = opts.tol * st.initial_residual;
      const bool unconverged = !(res <= abs_tol);
      if (health_on) {
        // False-convergence guard: the explicit residual just computed vs
        // the previous cycle's recurrence estimate.
        const HealthEventKind gap_trip = hm.check_residual_gap(
            res, prev_recurrence, prev_claimed, unconverged, restart,
            st.iterations);
        if (gap_trip != HealthEventKind::kNone && unconverged) {
          respond(gap_trip);
        }
      }
      if (!unconverged) {
        st.converged = true;
        break;
      }
      if (health_on) {
        const HealthEventKind prog_trip =
            hm.check_progress(res, restart, st.iterations);
        if (prog_trip != HealthEventKind::kNone) respond(prog_trip);
      }
      for (int d = 0; d < machine.n_devices(); ++d) {
        sim::dev_scal(machine, d, v.local_rows(d), 1.0 / res, v.col(d, 0));
      }

      Cycle c{machine, *spmv, v, res, abs_tol, restart, resilient, st, hm,
              respond};
      const CycleOutcome out = step.cycle(c);
      if (out.tainted) {
        // Persistent poison inside the cycle (e.g. the scaled residual
        // column itself was hit): discard the cycle, restore the
        // checkpointed x, and redo this restart with fresh data.
        CAGMRES_REQUIRE_CODE(++tainted_rollbacks <= kMaxBlockReplays,
                             ErrorCode::kRetriesExhausted,
                             "cycle stayed tainted across rollbacks");
        ++st.recovery.rollbacks;
        ckpt.rollback(xwork);
        x_is_zero = ckpt.x_zero();
        prev_recurrence = -1.0;  // discarded cycle: no estimate to compare
        continue;
      }
      tainted_rollbacks = 0;
      update_solution(machine, v, out.k, out.y, xwork, pc,
                      pc != nullptr ? &spmv->stage(2) : nullptr);
      if (out.k > 0) x_is_zero = false;
      // The true residual decides at the top of the next restart; the
      // recurrence estimate feeds the false-convergence guard there.
      prev_recurrence = out.k > 0 ? out.ls_residual : -1.0;
      prev_claimed = out.k > 0 && out.ls_residual <= abs_tol;
      ++st.restarts;
      ++restart;
      if (machine.tracing()) {
        trace_tier_traffic(machine, ctr_last);
        ctr_last = machine.counters();
      }
      domains.on_restart_completed();  // a completed restart refills budgets
      step.after_restart(c, out);
    } catch (const Error& e) {
      // The domain handler classifies the fault (single device vs whole
      // node), applies the victim domain's budget and the device floor,
      // charges the backoff, and retires every dead device — or rethrows
      // for unrecoverable errors.
      if (domains.handle(e, st.recovery)) {
        degrade_now = true;
        degrade_reason = domains.degrade_reason();
        break;
      }
      pending_lost_nodes = domains.lost_nodes();
      needs_rebuild = true;  // the rebuild itself runs inside the try
    }
  }

  // Graceful-degradation floor: finish on the host-only GMRES core from
  // the last proven-finite checkpoint. Host work charges no device kernels
  // or transfers, so it makes progress no matter how the devices fault.
  std::vector<double> x_degraded;
  if (degrade_now) {
    st.degraded.active = true;
    st.degraded.devices_at_handoff = machine.n_devices();
    st.degraded.at_time = machine.clock().elapsed() - t0;
    st.degraded.reason = degrade_reason;
    machine.trace_instant("degrade:cpu_gmres", "other");
    machine.sync();  // the device path is abandoned; drain its closures
    x_degraded = resilient && !ckpt.x().empty()
                     ? ckpt.x()
                     : std::vector<double>(
                           static_cast<std::size_t>(prob->n()), 0.0);
    SolverOptions host_opts = opts;
    host_opts.max_restarts = std::max(1, opts.max_restarts - restart);
    const double abs_tol =
        st.initial_residual > 0.0 ? opts.tol * st.initial_residual : -1.0;
    SolveStats host = host_gmres(machine, *prob, host_opts, x_degraded,
                                 !ckpt.x_zero(), abs_tol);
    st.converged = host.converged;
    res = host.final_residual;
    if (st.initial_residual == 0.0) {
      st.initial_residual = host.initial_residual;
    }
    st.restarts += host.restarts;
    st.iterations += host.iterations;
    st.residual_history.insert(st.residual_history.end(),
                               host.residual_history.begin(),
                               host.residual_history.end());
  }
  st.final_residual = res;
  st.health_events = hm.take_events();
  st.recurrence_residual = prev_recurrence;
  st.residual_gap = hm.residual_gap_last();
  st.residual_gap_max = hm.residual_gap_max();

  st.time_total = machine.clock().elapsed() - t0;
  st.traffic = tier_traffic(ctr0, machine.counters());
  finalize_phase_times(st, phases0, machine.phases());
  if (resilient) {
    const sim::FaultStats df = machine.fault_injector().stats() - faults0;
    st.recovery.faults_injected = df.injected_total;
    st.recovery.device_failures = df.device_failures;
    st.recovery.node_failures = df.node_failures;
    st.recovery.kernel_faults = df.kernel_nans;
    st.recovery.transfer_corruptions =
        df.transfer_corruptions + df.link_corruptions;
    st.recovery.transfer_stalls = df.transfer_stalls + df.link_stalls;
    st.recovery.transfer_retries = df.transfer_retries;
    st.recovery.time_lost += df.retry_seconds + df.stall_seconds;
    st.recovery.partner_restores = ckpt.partner_restores();
  }

  if (st.degraded.active) {
    result.x = recover_solution(*prob, x_degraded);
    return result;
  }
  machine.sync();  // final gather reads xwork on the host
  std::vector<double> x_prepared;
  x_prepared.reserve(static_cast<std::size_t>(prob->n()));
  for (int d = 0; d < machine.n_devices(); ++d) {
    const double* p = xwork.col(d, 0);
    x_prepared.insert(x_prepared.end(), p, p + xwork.local_rows(d));
  }
  result.x = recover_solution(*prob, x_prepared);
  return result;
}

}  // namespace cagmres::core::detail
