#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "blas/blas1.hpp"
#include "blas/blas3.hpp"
#include "blas/eig.hpp"
#include "core/gmres.hpp"
#include "core/shifts.hpp"
#include "graph/partition.hpp"
#include "measure.hpp"
#include "mpk/exec.hpp"
#include "mpk/plan.hpp"
#include "ortho/borth.hpp"
#include "ortho/tsqr.hpp"
#include "sparse/ell.hpp"

namespace perfbench {

int SpanLog::open(const std::string& name, double count) {
  Span s;
  s.id = static_cast<int>(spans_.size());
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.name = name;
  s.count = count;
  s.t0 = now_s();
  spans_.push_back(s);
  stack_.push_back(s.id);
  return s.id;
}

double SpanLog::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.t1 = now_s();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  return s.t1 - s.t0;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const double base = spans_.empty() ? 0.0 : spans_.front().t0;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "  {\"id\": %d, \"parent\": %d, \"name\": \"%s\", "
                  "\"start_s\": %.9f, \"dur_s\": %.9f, \"count\": %.17g}%s\n",
                  s.id, s.parent, s.name.c_str(), s.t0 - base, s.t1 - s.t0,
                  s.count, i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

namespace {

/// Times `fn` as one span; returns its duration.
template <typename Fn>
double timed(SpanLog& log, const std::string& name, double count, Fn&& fn) {
  const int id = log.open(name, count);
  fn();
  return log.close(id);
}

/// Column 0 of `v` := b / ||b|| (host copy into the device blocks).
void set_start_vector(const core::Problem& prob, sim::DistMultiVec& v) {
  const double nrm = blas::nrm2(prob.n(), prob.b.data());
  for (int d = 0; d < v.n_parts(); ++d) {
    const int row0 = prob.offsets[static_cast<std::size_t>(d)];
    double* col = v.col(d, 0);
    for (int i = 0; i < v.local_rows(d); ++i) {
      col[i] = prob.b[static_cast<std::size_t>(row0 + i)] / nrm;
    }
  }
}

/// Replays one standard and (CA workloads) one CA restart cycle of `prob`
/// on `mach`, whose device count matches the problem's. A preconditioner
/// is built afresh for this shape when the workload arms one.
ShapeTimes replay_shape(const Workload& w, core::SolverOptions opts,
                        const core::Problem& prob, sim::Machine& mach,
                        SpanLog& log) {
  ShapeTimes t;
  std::unique_ptr<precond::PrecondHandle> pc;
  if (!w.precond.empty()) {
    pc = std::make_unique<precond::PrecondHandle>(
        precond::parse_precond_spec(w.precond));
    pc->build(mach, prob.a, prob.offsets);
  }
  opts.precond = pc.get();

  mpk::MpkPlan plan1, plan_s;
  t.plan = timed(log, "mpk.build_plan", 1, [&] {
    plan1 = mpk::build_mpk_plan(prob.a, prob.offsets, 1);
  });
  if (w.ca) {
    t.plan += timed(log, "mpk.build_plan", w.s, [&] {
      plan_s = mpk::build_mpk_plan(prob.a, prob.offsets, w.s);
    });
  }

  const std::vector<int> rows = prob.rows_per_device();
  sim::DistMultiVec v(rows, w.m + 1);
  mpk::MpkExecutor spmv_exec(plan1);
  std::unique_ptr<mpk::MpkExecutor> mpk_exec;
  if (w.ca) mpk_exec = std::make_unique<mpk::MpkExecutor>(plan_s);
  // Floor buffers: raw ELL SpMV input/output per device, and the BOrth
  // gemm coefficient/output panels.
  std::vector<std::vector<double>> zin(plan_s.dev.size()),
      zout(plan_s.dev.size());
  for (std::size_t d = 0; d < plan_s.dev.size(); ++d) {
    zin[d].assign(static_cast<std::size_t>(plan_s.dev[d].z_size()), 1.0);
    zout[d].assign(static_cast<std::size_t>(plan_s.dev[d].owned), 0.0);
  }
  std::vector<double> coef, panel;

  // Both cycles run twice. The first pass ("warmup") pays the executors'
  // lazy allocations and cold caches; the second ("measured") gives the
  // per-call times.
  for (int pass = 0; pass < 2; ++pass) {
    const int section = log.open(pass == 0 ? "warmup" : "measured");
    const double plan = t.plan;
    t = ShapeTimes{};
    t.plan = plan;

    // One standard restart cycle (GMRES, or CA-GMRES's shift harvest).
    set_start_vector(prob, v);
    core::detail::CycleOutcome cycle;
    t.arnoldi = timed(log, "core.arnoldi_cycle", w.m, [&] {
      cycle = core::detail::arnoldi_cycle(mach, spmv_exec, v, w.m,
                                          opts.gmres_orth, 1.0, 0.0, 0,
                                          opts.precond);
      mach.sync();
    });
    for (int j = 0; j < w.m; ++j) {
      t.spmv += timed(log, "mpk.spmv", 1, [&] {
        spmv_exec.spmv(mach, v, 0, 1);
        mach.sync();
      });
    }
    if (opts.precond != nullptr) {
      sim::DistMultiVec& stage = spmv_exec.stage(2);
      for (int j = 0; j < w.m; ++j) {
        t.pc += timed(log, "precond.apply", 1, [&] {
          opts.precond->apply(mach, v, 0, stage, 0);
          mach.sync();
        });
      }
    }

    // One CA restart cycle: MPK apply, BOrth, TSQR per block.
    if (w.ca && cycle.k > 0) {
      blas::DMat h_sq(cycle.k, cycle.k);
      for (int j = 0; j < cycle.k; ++j) {
        for (int i = 0; i < cycle.k; ++i) h_sq(i, j) = cycle.h(i, j);
      }
      const core::Shifts shifts =
          core::newton_shifts(blas::hessenberg_eig(h_sq), w.s);
      set_start_vector(prob, v);
      for (int done = 1; done < w.m + 1;) {
        const int steps = std::min(w.s, w.m + 1 - done);
        const core::Shifts bs = core::block_shifts(shifts, steps);
        t.apply += timed(log, "mpk.apply", steps, [&] {
          mpk_exec->apply(mach, v, done - 1, steps,
                          {bs.re.data(), bs.im.data()});
          mach.sync();
        });
        t.spmv_floor += timed(log, "sparse.spmv", steps, [&] {
          for (int k = 0; k < steps; ++k) {
            for (std::size_t d = 0; d < plan_s.dev.size(); ++d) {
              sparse::spmv(plan_s.dev[d].local_ell, zin[d].data(),
                           zout[d].data());
            }
          }
        });
        const double flops =
            4.0 * prob.n() * static_cast<double>(done) * steps;
        t.borth_flops += flops;
        t.borth += timed(log, "ortho.borth", flops, [&] {
          (void)ortho::borth(mach, opts.borth, v, done, done + steps);
          mach.sync();
        });
        t.gemm_floor += timed(log, "blas.gemm", flops, [&] {
          for (int d = 0; d < v.n_parts(); ++d) {
            const int nl = v.local_rows(d);
            const blas::DMat& q = v.local(d);
            coef.assign(static_cast<std::size_t>(done) * steps, 0.0);
            panel.assign(static_cast<std::size_t>(nl) * steps, 0.0);
            blas::gemm(blas::Trans::T, blas::Trans::N, done, steps, nl, 1.0,
                       q.data(), q.ld(), v.col(d, done), q.ld(), 0.0,
                       coef.data(), done);
            blas::gemm(blas::Trans::N, blas::Trans::N, nl, steps, done, -1.0,
                       q.data(), q.ld(), coef.data(), done, 1.0, panel.data(),
                       nl);
          }
        });
        t.tsqr += timed(log, "ortho.tsqr", steps, [&] {
          (void)ortho::tsqr(mach, opts.tsqr, v, done, done + steps,
                            opts.tsqr_opts);
          mach.sync();
        });
        t.steps += steps;
        ++t.blocks;
        done += steps;
      }
    }
    log.close(section);
  }
  return t;
}

}  // namespace

ReplayPass replay_pass(const Workload& w, const Prepared& p,
                       const sparse::CsrMatrix& a,
                       const std::vector<int>& survivors, SpanLog& log) {
  const core::SolverOptions opts = solver_options(w, p);
  Workload fault_free = w;
  fault_free.faults.clear();
  const int root = log.open("replay");
  ReplayPass out;
  out.partition = timed(log, "graph.make_partition", a.n_rows, [&] {
    (void)graph::make_partition(a, w.ng, w.ordering, 7, w.nodes);
  });

  const auto machine = make_machine(fault_free, 0);
  int span = log.open("shape.initial", w.ng);
  out.initial = replay_shape(w, opts, p.problem, *machine, log);
  log.close(span);
  out.shrunk = out.initial;
  const int n_survivors = static_cast<int>(survivors.size());
  if (n_survivors < w.ng) {
    const auto shrunk = make_machine(fault_free, 0);
    for (int d = w.ng - 1; d >= 0; --d) {
      if (std::find(survivors.begin(), survivors.end(), d) ==
          survivors.end()) {
        shrunk->retire_device(d);
      }
    }
    const core::Problem repart =
        core::repartition_problem(p.problem, shrunk->n_devices());
    span = log.open("shape.repartitioned", n_survivors);
    out.shrunk = replay_shape(w, opts, repart, *shrunk, log);
    log.close(span);
  }
  log.close(root);
  return out;
}

MetricList layer_metrics(const Workload& w, const ReplayPass& pass,
                         const SolveCounts& counts) {
  const ShapeTimes& first = pass.initial;
  const ShapeTimes& last = pass.shrunk;

  // --- scale per-call times by the solve's call counts ------------------
  // Standard-cycle work is weighted between the two shapes by the share of
  // "spmv"-phase kernels the solve ran after losing devices, CA-cycle work
  // by the share of "mpk"-phase kernels.
  const auto mix = [](double before, double after, double share) {
    return (1.0 - share) * before + share * after;
  };
  const double sh_std = counts.spmv_share_after;
  const double sh_ca = counts.mpk_share_after;
  const double spmv_call = mix(first.spmv, last.spmv, sh_std) / w.m;
  const double pc_call = mix(first.pc, last.pc, sh_std) / w.m;
  const double orth_cycle =
      std::max(0.0, mix(first.arnoldi - first.spmv - first.pc,
                        last.arnoldi - last.spmv - last.pc, sh_std));
  const double ca_steps = static_cast<double>(counts.ca_steps);
  const double gmres_iters =
      std::max(0.0, counts.iterations - (w.ca ? ca_steps : 0.0));
  const double spmv_calls = gmres_iters + counts.restarts + 1;
  const double cycles = w.ca ? ca_steps / w.m : 0.0;
  // Full cycles worth of projection work in `steps` steps: step j projects
  // against j columns, so the short last cycle of k < m steps costs
  // k(k+1) / (m(m+1)) of a full one.
  const auto projection_cycles = [&](double steps) {
    const double full = std::floor(steps / w.m);
    const double k = steps - full * w.m;
    return full + k * (k + 1.0) / (w.m * (w.m + 1.0));
  };
  const double reorth =
      first.blocks > 0 && cycles > 0.0
          ? 1.0 + counts.reorth_blocks / (cycles * first.blocks)
          : 1.0;
  // Per CA step (apply, spmv floor) and per CA cycle (BOrth, TSQR, gemm).
  const auto per_step = [&](double ShapeTimes::*f) {
    return first.steps > 0.0
               ? mix(first.*f / first.steps, last.*f / last.steps, sh_ca)
               : 0.0;
  };
  const auto per_cycle = [&](double ShapeTimes::*f) {
    return mix(first.*f, last.*f, sh_ca);
  };
  const double apply_step = per_step(&ShapeTimes::apply);
  const double floor_step = per_step(&ShapeTimes::spmv_floor);
  const double borth_cycle = per_cycle(&ShapeTimes::borth);
  const double gemm_cycle = per_cycle(&ShapeTimes::gemm_floor);

  MetricList out;
  const double mpk_apply = apply_step * ca_steps;
  const double mpk_spmv = spmv_call * spmv_calls;
  const double mpk_plan = first.plan + counts.repartitions * last.plan;
  const double borth_cycles = projection_cycles(ca_steps) * reorth;
  const double borth = borth_cycle * borth_cycles;
  const double tsqr = per_cycle(&ShapeTimes::tsqr) * cycles * reorth;
  const double orth = orth_cycle * projection_cycles(gmres_iters);
  const double pc_apply = pc_call * static_cast<double>(counts.precond_applies);
  const double attributed =
      mpk_apply + mpk_spmv + mpk_plan + borth + tsqr + orth + pc_apply;
  out.emplace_back("mpk.apply_wall_s", mpk_apply);
  out.emplace_back("mpk.apply_over_floor",
                   floor_step > 0.0 ? apply_step / floor_step : 0.0);
  out.emplace_back("sparse.spmv_floor_s", floor_step * ca_steps);
  out.emplace_back("mpk.spmv_wall_s", mpk_spmv);
  out.emplace_back("mpk.plan_wall_s", mpk_plan);
  out.emplace_back("ortho.borth_wall_s", borth);
  out.emplace_back("ortho.borth_over_floor",
                   gemm_cycle > 0.0 ? borth_cycle / gemm_cycle : 0.0);
  out.emplace_back("ortho.borth_gflops",
                   borth_cycle > 0.0 ? first.borth_flops / borth_cycle * 1e-9
                                     : 0.0);
  out.emplace_back("blas.gemm_floor_s", gemm_cycle * borth_cycles);
  out.emplace_back("ortho.tsqr_wall_s", tsqr);
  out.emplace_back("ortho.orth_wall_s", orth);
  out.emplace_back("precond.apply_wall_s", pc_apply);
  out.emplace_back("graph.partition_wall_s", pass.partition);
  out.emplace_back("trace.attributed_share",
                   counts.wall_s > 0.0 ? attributed / counts.wall_s : 0.0);
  out.emplace_back("trace.unattributed_s", counts.wall_s - attributed);
  return out;
}

}  // namespace perfbench
