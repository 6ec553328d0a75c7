#include "core/cagmres.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "blas/blas1.hpp"
#include "blas/blas3.hpp"
#include "blas/eig.hpp"
#include "blas/least_squares.hpp"
#include "common/error.hpp"
#include "core/gmres.hpp"
#include "core/hessenberg.hpp"
#include "mpk/exec.hpp"
#include "mpk/plan.hpp"
#include "ortho/borth.hpp"
#include "precond/precond.hpp"
#include "sim/device_blas.hpp"

namespace cagmres::core {

namespace {

/// Generates `steps` shifted basis vectors from column c0 with one SpMV +
/// AXPY per step (the paper's Fig. 15 fallback when MPK loses to SpMV).
/// `pc` non-null applies the operator A M^{-1} instead (right-
/// preconditioned blocks stage M^{-1} v between the trisolve and the
/// SpMV; the shift recurrence is unchanged — it shifts the same operator).
void generate_by_spmv(sim::Machine& m, mpk::MpkExecutor& spmv,
                      sim::DistMultiVec& v, int c0, int steps,
                      const Shifts& shifts, precond::PrecondHandle* pc) {
  // One stage column PER STEP, not one shared scratch column: the halo
  // exchange of step i runs closures on CONSUMER streams that read the
  // owners' stage column in place, ordered only behind the owners' pack
  // events. The block enqueues all `steps` products with no host join in
  // between, so a shared column would let step i+1's trisolve overwrite
  // rows a peer's still-parked closure reads (a write-after-read hazard
  // that only event sync with live workers exposes). The block-boundary
  // reductions (BOrth/TSQR) join every stream before the next block — or a
  // replay of this one — rewinds to column 0.
  sim::DistMultiVec* stage = pc != nullptr ? &spmv.stage(steps) : nullptr;
  for (int i = 0; i < steps; ++i) {
    const int c = c0 + i;
    if (pc != nullptr) {
      pc->apply(m, v, c, *stage, i);
      spmv.spmv(m, *stage, i, v, c + 1);
    } else {
      spmv.spmv(m, v, c, c + 1);
    }
    const double theta = shifts.re[static_cast<std::size_t>(i)];
    const bool pair_second = shifts.im[static_cast<std::size_t>(i)] < 0.0;
    if (theta != 0.0) {
      for (int d = 0; d < m.n_devices(); ++d) {
        sim::dev_axpy(m, d, v.local_rows(d), -theta, v.col(d, c),
                      v.col(d, c + 1));
      }
    }
    if (pair_second) {
      const double beta = shifts.im[static_cast<std::size_t>(i) - 1];
      for (int d = 0; d < m.n_devices(); ++d) {
        sim::dev_axpy(m, d, v.local_rows(d), beta * beta, v.col(d, c - 1),
                      v.col(d, c + 1));
      }
    }
  }
}

/// C := C + C2 * R1 and R := R2 * R1 — the coefficient merge after a
/// reorthogonalization pass (V = Q_prev(C1 + C2 R1) + Q(R2 R1)).
void merge_reorth(blas::DMat& c, const blas::DMat& c2, blas::DMat& r_block,
                  const blas::DMat& r2) {
  const int prev = c.rows();
  const int blk = c.cols();
  if (prev > 0) {
    blas::gemm(blas::Trans::N, blas::Trans::N, prev, blk, blk, 1.0, c2.data(),
               c2.ld(), r_block.data(), r_block.ld(), 1.0, c.data(), c.ld());
  }
  blas::DMat merged(blk, blk);
  blas::gemm(blas::Trans::N, blas::Trans::N, blk, blk, blk, 1.0, r2.data(),
             r2.ld(), r_block.data(), r_block.ld(), 0.0, merged.data(),
             merged.ld());
  r_block = std::move(merged);
}

/// Host-side part of the block health scrub: the BOrth/TSQR coefficient
/// factors live on the host, so scanning them is free.
bool mat_finite(const blas::DMat& m) {
  for (int j = 0; j < m.cols(); ++j) {
    for (int i = 0; i < m.rows(); ++i) {
      if (!std::isfinite(m(i, j))) return false;
    }
  }
  return true;
}

/// CA-GMRES's cycle step: blocks of s basis vectors from MPK (or s SpMVs),
/// projected by BOrth and orthonormalized by TSQR, with the Hessenberg
/// matrix recovered on the host. With the Newton basis the first restart
/// runs the GMRES step to harvest the shifts, and the ladder's terminal
/// rung runs the remaining budget on it too.
class CaStep final : public detail::CycleStep {
 public:
  explicit CaStep(const SolverOptions& opts)
      : opts_(opts),
        s_(std::min(opts.s, opts.m)),
        gmres_(opts),
        have_shifts_(opts.basis == Basis::kMonomial),
        s_current_(s_),
        tsqr_current_(opts.tsqr) {
    if (have_shifts_) {  // monomial: zero shifts for every block
      step_shifts_.re.assign(static_cast<std::size_t>(s_), 0.0);
      step_shifts_.im.assign(static_cast<std::size_t>(s_), 0.0);
    }
  }

  LadderCapabilities capabilities() const override {
    LadderCapabilities caps;
    caps.force_reorth = !opts_.reorthogonalize;
    caps.shrink_s = true;
    caps.rebuild_shifts = (opts_.basis == Basis::kNewton);
    for (ortho::Method t = opts_.tsqr;;) {
      const ortho::Method n = ortho::more_robust_method(t);
      if (n == t) break;
      ++caps.tsqr_switches;
      t = n;
    }
    caps.fallback_gmres = true;
    return caps;
  }

  bool rung_applicable(EscalationStep a) const override {
    switch (a) {
      case EscalationStep::kForceReorth:
        return !force_reorth_;
      case EscalationStep::kShrinkS:
        return s_current_ > kShrinkSFloor;
      case EscalationStep::kRebuildShifts:
        return have_shifts_ && last_h_k_ > 1 && !rebuild_shifts_pending_;
      case EscalationStep::kSwitchTsqr:
        return ortho::more_robust_method(tsqr_current_) != tsqr_current_;
      case EscalationStep::kFallbackGmres:
        return !fallback_gmres_;
      default:
        return false;
    }
  }

  void apply_rung(EscalationStep a) override {
    switch (a) {
      case EscalationStep::kForceReorth:
        force_reorth_ = true;
        break;
      case EscalationStep::kShrinkS:
        s_current_ = std::max(kShrinkSFloor, s_current_ / 2);
        break;
      case EscalationStep::kRebuildShifts:
        rebuild_shifts_pending_ = true;  // harvested in after_restart
        break;
      case EscalationStep::kSwitchTsqr:
        tsqr_current_ = ortho::more_robust_method(tsqr_current_);
        break;
      case EscalationStep::kFallbackGmres:
        fallback_gmres_ = true;
        break;
      default:
        break;
    }
  }

  void rebuild(const Problem& prob) override {
    rows_ = prob.rows_per_device();
    // Right-preconditioned blocks interleave a block-local trisolve between
    // SpMVs, which the fused s-step MPK kernel cannot express: use the
    // step-by-step generator instead (same operator, one halo per step).
    if (opts_.use_mpk && s_ > 1 && opts_.precond == nullptr) {
      plan_s_ = std::make_unique<mpk::MpkPlan>(
          mpk::build_mpk_plan(prob.a, prob.offsets, s_));
      mpk_exec_ = std::make_unique<mpk::MpkExecutor>(*plan_s_);
    }
  }

  detail::CycleOutcome cycle(detail::Cycle& c) override {
    if (have_shifts_ && !fallback_gmres_) return ca_cycle(c);
    detail::CycleOutcome out = gmres_.cycle(c);
    if (c.hm.armed() && out.k > 0) {
      last_h_ = out.h;  // freshest Hessenberg for a possible shift rebuild
      last_h_k_ = out.k;
    }
    return out;
  }

  void after_restart(detail::Cycle& c,
                     const detail::CycleOutcome& out) override {
    if (out.k == 0) return;  // poisoned GMRES cycle: retry next restart
    // Deferred kRebuildShifts: the Ritz values come from the Hessenberg of
    // this cycle — the first one run under the escalated settings — not
    // the stale pre-escalation one.
    if (rebuild_shifts_pending_ && last_h_k_ > 1) {
      harvest_shifts(c.machine, last_h_, last_h_k_);
      rebuild_shifts_pending_ = false;
    }
    if (!have_shifts_) {  // the first restart was the harvesting GMRES one
      harvest_shifts(c.machine, out.h, out.k);
      have_shifts_ = true;
    }
  }

 private:
  /// Newton shifts from the Ritz values of the leading k x k block of h.
  void harvest_shifts(sim::Machine& machine, const blas::DMat& h, int k) {
    blas::DMat h_sq(k, k);
    for (int j = 0; j < k; ++j) {
      for (int i = 0; i < k; ++i) h_sq(i, j) = h(i, j);
    }
    step_shifts_ = newton_shifts(blas::hessenberg_eig(h_sq), s_);
    machine.charge_host(sim::Kernel::kGeqrf,
                        10.0 * static_cast<double>(k) * k * k, 0.0);
  }

  detail::CycleOutcome ca_cycle(detail::Cycle& c);

  const SolverOptions& opts_;
  const int s_;
  detail::GmresStep gmres_;  // shift-harvest restart and fallback rung
  std::vector<int> rows_;
  std::unique_ptr<mpk::MpkPlan> plan_s_;
  std::unique_ptr<mpk::MpkExecutor> mpk_exec_;

  // Step shifts, reused for every block of every restart.
  Shifts step_shifts_;
  bool have_shifts_;

  // Ladder-mutable state. Only ladder actions touch these, and the ladder
  // only runs off armed monitors, so an unmonitored solve behaves
  // byte-identically to the pre-health code. The working block size starts
  // at s_ and persists across restarts once kShrinkS lowers it.
  int s_current_;
  ortho::Method tsqr_current_;
  bool force_reorth_ = false;
  bool fallback_gmres_ = false;
  blas::DMat last_h_;  // freshest Hessenberg, kept for a shift rebuild
  int last_h_k_ = 0;
  bool rebuild_shifts_pending_ = false;
};

detail::CycleOutcome CaStep::ca_cycle(detail::Cycle& c) {
  sim::Machine& machine = c.machine;
  sim::DistMultiVec& v = c.v;
  SolveStats& st = c.st;
  const int mm = opts_.m;
  const int ng = machine.n_devices();
  const bool health_on = c.hm.armed();
  detail::CycleOutcome out;

  blas::DMat r_total(mm + 1, mm + 1);
  r_total(0, 0) = 1.0;  // g_0 = q_0
  Shifts col_shifts;
  col_shifts.re.assign(static_cast<std::size_t>(mm), 0.0);
  col_shifts.im.assign(static_cast<std::size_t>(mm), 0.0);
  // Columns where a block's recursion restarted from the orthonormalized
  // vector (see hessenberg_blocked).
  std::vector<char> is_block_start(static_cast<std::size_t>(mm) + 1, 0);
  is_block_start[0] = 1;

  int done = 1;
  while (done < mm + 1) {
    const int steps = std::min(s_current_, mm + 1 - done);
    is_block_start[static_cast<std::size_t>(done) - 1] = 1;
    const Shifts bs = block_shifts(step_shifts_, steps);
    for (int i = 0; i < steps; ++i) {
      col_shifts.re[static_cast<std::size_t>(done - 1 + i)] =
          bs.re[static_cast<std::size_t>(i)];
      col_shifts.im[static_cast<std::size_t>(done - 1 + i)] =
          bs.im[static_cast<std::size_t>(i)];
    }

    // Snapshot of the block (pre-TSQR, post-BOrth) for error
    // instrumentation; untouched simulated clock (measurement only).
    auto snapshot_block = [&]() {
      machine.sync();  // wall-clock only: host copy of the device panel
      sim::DistMultiVec snap(rows_, steps);
      for (int d = 0; d < ng; ++d) {
        for (int i = 0; i < steps; ++i) {
          blas::copy(v.local_rows(d), v.col(d, done + i), snap.col(d, i));
        }
      }
      return snap;
    };
    auto record_errors = [&](const sim::DistMultiVec& before,
                             const blas::DMat& r_blk, int pass) {
      TsqrErrorSample sample;
      sample.restart = c.restart;
      sample.pass = pass;
      sample.kappa_block = ortho::condition_number(before, 0, steps);
      sim::DistMultiVec after = snapshot_block();
      sample.errors = ortho::measure_errors(after, before, 0, steps, r_blk);
      st.tsqr_errors.push_back(sample);
    };

    blas::DMat cb;
    ortho::TsqrResult tq;
    bool block_reorthed = false;
    int attempts = 0;
    const std::size_t tsqr_errors_mark = st.tsqr_errors.size();
    // Block replay loop: generation fully rewrites columns
    // done..done+steps from the accepted column done-1, so a block the
    // health scrub rejects can simply be re-run.
    while (true) {
      st.tsqr_errors.resize(tsqr_errors_mark);  // drop replayed samples
      try {
        if (mpk_exec_ != nullptr && steps > 1) {
          mpk_exec_->apply(machine, v, done - 1, steps,
                           {bs.re.data(), bs.im.data()});
        } else {
          generate_by_spmv(machine, c.spmv, v, done - 1, steps, bs,
                           opts_.precond);
        }

        {
          sim::PhaseScope phase(machine, "borth");
          cb = ortho::borth(machine, opts_.borth, v, done, done + steps);
        }
        sim::DistMultiVec pre_tsqr;
        if (opts_.collect_tsqr_errors) pre_tsqr = snapshot_block();
        {
          sim::PhaseScope phase(machine, "tsqr");
          tq = ortho::tsqr(machine, tsqr_current_, v, done, done + steps,
                           opts_.tsqr_opts);
        }
        if (opts_.collect_tsqr_errors) record_errors(pre_tsqr, tq.r, 0);
        block_reorthed =
            opts_.reorthogonalize || force_reorth_ || tq.breakdown;
        if (block_reorthed) {
          blas::DMat c2;
          {
            sim::PhaseScope phase(machine, "borth");
            c2 = ortho::borth(machine, opts_.borth, v, done, done + steps);
          }
          if (opts_.collect_tsqr_errors) pre_tsqr = snapshot_block();
          ortho::TsqrResult tq2;
          {
            sim::PhaseScope phase(machine, "tsqr");
            tq2 = ortho::tsqr(machine, tsqr_current_, v, done, done + steps,
                              opts_.tsqr_opts);
          }
          if (opts_.collect_tsqr_errors) record_errors(pre_tsqr, tq2.r, 1);
          merge_reorth(cb, c2, tq.r, tq2.r);
          machine.charge_host(sim::Kernel::kGemm,
                              2.0 * static_cast<double>(done) * steps * steps,
                              0.0);
        }
      } catch (const Error& e) {
        // A poisoned block can surface as a (shift-proof) TSQR breakdown
        // before the scrub sees it — e.g. an injected NaN in the Gram
        // kernel itself. Treat it like a failed health check: the replay
        // regenerates everything from the last accepted column. A
        // breakdown on an unarmed machine still propagates.
        if (!c.resilient || e.code() != ErrorCode::kBreakdown) throw;
        ++st.recovery.blocks_replayed;
        if (++attempts > detail::kMaxBlockReplays) {
          out.tainted = true;  // escalate to a cycle rollback
          return out;
        }
        continue;
      }

      if (c.resilient) {
        // Block-boundary health scrub: the host-side factors are free to
        // scan; the device panel gets one charged norm-per-column checksum
        // pass.
        const double t_scrub = machine.clock().elapsed();
        const bool clean =
            mat_finite(cb) && mat_finite(tq.r) &&
            ortho::block_norms_finite(machine, v, done, done + steps);
        if (!clean) {
          ++st.recovery.blocks_replayed;
          st.recovery.time_lost += machine.clock().elapsed() - t_scrub;
          if (++attempts > detail::kMaxBlockReplays) {
            out.tainted = true;  // escalate to a cycle rollback
            return out;
          }
          continue;
        }
      }
      break;
    }

    // Commit the accepted block: bookkeeping that must not see discarded
    // (replayed) attempts.
    st.block_sizes.push_back(steps);
    if (tq.breakdown) ++st.cholqr_breakdowns;
    if (block_reorthed) ++st.reorth_blocks;

    if (health_on) {
      // Basis-condition monitor on the committed block: free R-diagonal
      // estimate plus the charged Gram sample on its cadence. A trip
      // hardens the *next* block (this one is already orthogonalized).
      const HealthEventKind cond_trip = c.hm.check_block(
          tq.r, v, done, done + steps, c.restart, st.iterations);
      if (cond_trip != HealthEventKind::kNone) c.respond(cond_trip);
    }

    // Record the block's columns of the global triangular factor.
    for (int i = 0; i < steps; ++i) {
      const int col = done + i;
      for (int row = 0; row < done; ++row) r_total(row, col) = cb(row, i);
      for (int row = 0; row <= i; ++row) {
        r_total(done + row, col) = tq.r(row, i);
      }
    }
    done += steps;
    st.iterations += steps;

    // Host-side convergence probe at block granularity: assemble the
    // Hessenberg matrix for the columns so far and check the LS residual.
    const int k = done - 1;
    Shifts used;
    used.re.assign(col_shifts.re.begin(), col_shifts.re.begin() + k);
    used.im.assign(col_shifts.im.begin(), col_shifts.im.begin() + k);
    blas::DMat r_lead(k + 1, k + 1);
    for (int j = 0; j <= k; ++j) {
      for (int i = 0; i <= j; ++i) r_lead(i, j) = r_total(i, j);
    }
    const std::vector<char> starts(is_block_start.begin(),
                                   is_block_start.begin() + k + 1);
    const blas::DMat h = hessenberg_blocked(r_lead, starts, used);
    machine.charge_host(sim::Kernel::kGemm,
                        2.0 * static_cast<double>(k) * k * k, 0.0);
    double ls_res = 0.0;
    std::vector<double> y = blas::solve_hessenberg_ls(h, c.beta, &ls_res);
    if (health_on) {
      last_h_ = h;  // freshest Hessenberg for a possible shift rebuild
      last_h_k_ = k;
    }
    if (ls_res <= c.abs_tol || done == mm + 1) {
      out.k = k;
      out.y = std::move(y);
      out.ls_residual = ls_res;
      break;
    }
  }
  return out;
}

}  // namespace

SolveResult ca_gmres(sim::Machine& machine, const Problem& problem,
                     const SolverOptions& opts) {
  CAGMRES_REQUIRE(opts.m >= 1 && opts.s >= 1, "bad (s, m)");
  CaStep step(opts);
  return detail::run_restarts(machine, problem, opts, step);
}

}  // namespace cagmres::core
