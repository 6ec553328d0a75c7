// Tests for the ILU(0) preconditioner subsystem (src/precond/) and the
// solvers' right-preconditioned path through a PrecondHandle.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include <gtest/gtest.h>

#include "blas/blas1.hpp"
#include "codec_tol.hpp"
#include "common/error.hpp"
#include "core/cagmres.hpp"
#include "core/gmres.hpp"
#include "core/pipelined.hpp"
#include "precond/ilu.hpp"
#include "precond/precond.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"

namespace cagmres::core {
namespace {

using precond::DeviceFactor;
using precond::LevelSchedule;
using precond::PrecondHandle;
using precond::PrecondKind;
using precond::PrecondSpec;
using precond::parse_precond_spec;
using test::codec_tol;

/// Row -> level map of a schedule (-1 when a row never appears).
std::vector<int> level_of(const LevelSchedule& s, int n) {
  std::vector<int> lvl(static_cast<std::size_t>(n), -1);
  for (int l = 0; l < s.levels(); ++l) {
    for (int k = s.level_ptr[static_cast<std::size_t>(l)];
         k < s.level_ptr[static_cast<std::size_t>(l) + 1]; ++k) {
      lvl[static_cast<std::size_t>(s.order[static_cast<std::size_t>(k)])] = l;
    }
  }
  return lvl;
}

/// Dense M(i, j) of the factored block: M = (I + L) * (D + U) with
/// D = diag(1 / inv_diag).
double factor_entry(const DeviceFactor& f, int i, int j) {
  auto lower = [&](int r, int c) -> double {  // (I + L)(r, c)
    if (r == c) return 1.0;
    for (auto k = f.l_ptr[static_cast<std::size_t>(r)];
         k < f.l_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      if (f.l_idx[static_cast<std::size_t>(k)] == c) {
        return f.l_val[static_cast<std::size_t>(k)];
      }
    }
    return 0.0;
  };
  auto upper = [&](int r, int c) -> double {  // (D + U)(r, c)
    if (r == c) return 1.0 / f.inv_diag[static_cast<std::size_t>(r)];
    for (auto k = f.u_ptr[static_cast<std::size_t>(r)];
         k < f.u_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      if (f.u_idx[static_cast<std::size_t>(k)] == c) {
        return f.u_val[static_cast<std::size_t>(k)];
      }
    }
    return 0.0;
  };
  double acc = 0.0;
  for (int p = 0; p <= std::min(i, j); ++p) acc += lower(i, p) * upper(p, j);
  return acc;
}

TEST(IluFactor, IluZeroIsExactOnTridiagonal) {
  // A tridiagonal matrix fills nowhere, so ILU(0) IS the LU factorization:
  // L * U must reproduce A entry for entry.
  const sparse::CsrMatrix a = sparse::make_laplace2d(18, 1, 0.2, 0.3);
  const int n = a.n_rows;
  DeviceFactor f;
  precond::ilu_symbolic(a, 0, n, f);
  precond::ilu_numeric(a, f);
  EXPECT_EQ(f.pivot_fallbacks, 0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(factor_entry(f, i, j), a.at(i, j), 1e-10)
          << "at (" << i << ", " << j << ")";
    }
  }
}

TEST(IluFactor, LevelScheduleRespectsDependencies) {
  const sparse::CsrMatrix a = sparse::make_laplace2d(11, 9, 0.3, 0.1);
  const int n = a.n_rows;
  DeviceFactor f;
  precond::ilu_symbolic(a, 0, n, f);
  // ILU(0) keeps exactly A's pattern (the generator emits the diagonal).
  EXPECT_EQ(f.fill_nnz(), a.nnz());
  const std::vector<int> ll = level_of(f.l_sched, n);
  const std::vector<int> lu = level_of(f.u_sched, n);
  for (int i = 0; i < n; ++i) {
    ASSERT_GE(ll[static_cast<std::size_t>(i)], 0);  // every row scheduled
    ASSERT_GE(lu[static_cast<std::size_t>(i)], 0);
    // The forward sweep reads out[j] for every j in L's row i: j must have
    // been finished in a strictly earlier level. Mirrored for U (deps are
    // higher-numbered rows, swept backwards).
    for (auto k = f.l_ptr[static_cast<std::size_t>(i)];
         k < f.l_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const int j = f.l_idx[static_cast<std::size_t>(k)];
      EXPECT_LT(ll[static_cast<std::size_t>(j)], ll[static_cast<std::size_t>(i)]);
    }
    for (auto k = f.u_ptr[static_cast<std::size_t>(i)];
         k < f.u_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const int j = f.u_idx[static_cast<std::size_t>(k)];
      EXPECT_LT(lu[static_cast<std::size_t>(j)], lu[static_cast<std::size_t>(i)]);
    }
  }
}

TEST(IluFactor, TinyPivotFallsBackAndIsCounted) {
  // Row 0 has a structurally zero diagonal: the numeric phase must not
  // divide by it — the documented fallback pins u_00 = 1 and counts it.
  sparse::CooBuilder builder(3, 3);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  builder.add(1, 1, 2.0);
  builder.add(2, 2, 3.0);
  const sparse::CsrMatrix a = builder.build();
  DeviceFactor f;
  precond::ilu_symbolic(a, 0, 3, f);
  precond::ilu_numeric(a, f);
  EXPECT_GE(f.pivot_fallbacks, 1);
  EXPECT_DOUBLE_EQ(f.inv_diag[0], 1.0);
  for (const double d : f.inv_diag) EXPECT_TRUE(std::isfinite(d));
}

TEST(PrecondSpec, ParsesKnobsAliasesAndRejectsGarbage) {
  EXPECT_FALSE(parse_precond_spec("").armed());
  EXPECT_FALSE(parse_precond_spec("none").armed());
  EXPECT_FALSE(parse_precond_spec("off").armed());
  EXPECT_FALSE(parse_precond_spec("0").armed());
  EXPECT_EQ(parse_precond_spec("ilu").kind, PrecondKind::kIlu);
  EXPECT_EQ(parse_precond_spec("ilu:k=0").kind, PrecondKind::kIlu);

  // to_string round-trips through the parser.
  EXPECT_EQ(parse_precond_spec(parse_precond_spec("ilu").to_string()).kind,
            PrecondKind::kIlu);
  EXPECT_FALSE(parse_precond_spec(PrecondSpec{}.to_string()).armed());

  // The removed ILU(k) knobs (fill level k >= 1, its level alias, the
  // Jacobi-margin key u) fail loudly, naming the key.
  for (const auto& [text, key] :
       {std::pair{"ilu:k=2", "'k'"}, std::pair{"ilu:k=3,u=1", "'k'"},
        std::pair{"ilu:level=0", "'level'"}, std::pair{"ilu:u=1", "'u'"},
        std::pair{"ilu:k=0,u=3", "'u'"}}) {
    try {
      parse_precond_spec(text);
      ADD_FAILURE() << text << " was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadInput);
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }

  EXPECT_THROW(parse_precond_spec("lu"), Error);
  EXPECT_THROW(parse_precond_spec("ilu:"), Error);
  EXPECT_THROW(parse_precond_spec("ilu:k=x"), Error);
  EXPECT_THROW(parse_precond_spec("ilu:fill=2"), Error);
  EXPECT_THROW(parse_precond_spec("ilu:k=-1"), Error);
}

TEST(IluPrecond, ReducesIterationsAndSolvesOriginalSystem) {
  // The headline contract: on a plain Poisson problem ILU(0) must slash
  // the GMRES iteration count, while the recovered x still solves the
  // ORIGINAL system (right preconditioning never changes the residual).
  const sparse::CsrMatrix a = sparse::make_laplace2d(24, 24, 0.1, 0.0);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const Problem p = make_problem(a, b, 2, graph::Ordering::kNatural, false, 1);
  SolverOptions opts;
  opts.m = 30;
  opts.tol = codec_tol(1e-8, 1e-6);  // fp32 wire caps the reachable residual
  opts.max_restarts = 400;

  sim::Machine m_plain(2);
  const SolveResult plain = gmres(m_plain, p, opts);
  PrecondHandle handle(parse_precond_spec("ilu"));
  SolverOptions popts = opts;
  popts.precond = &handle;
  sim::Machine m_ilu(2);
  const SolveResult ilu = gmres(m_ilu, p, popts);

  ASSERT_TRUE(plain.stats.converged);
  ASSERT_TRUE(ilu.stats.converged);
  EXPECT_LT(ilu.stats.iterations, plain.stats.iterations / 2 + 2);
  EXPECT_GT(handle.stats().applies, 0);
  EXPECT_GT(handle.stats().fill_nnz, 0);
  EXPECT_GT(handle.stats().setup_seconds, 0.0);
  EXPECT_GT(ilu.stats.time_precond, 0.0);
  const double rel =
      true_residual(a, b, ilu.x) / blas::nrm2(a.n_rows, b.data());
  EXPECT_LT(rel, codec_tol(1e-6, 1e-4));
}

TEST(IluPrecond, KNoneSpecIsByteIdenticalToPlainSolvers) {
  // Callers arm opts.precond only for an armed spec, so a kNone
  // spec is bit-for-bit the plain solver and leaves its handle untouched.
  const sparse::CsrMatrix a = sparse::make_laplace2d(16, 14, 0.2, 0.1);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const Problem p = make_problem(a, b, 2, graph::Ordering::kNatural, false, 1);
  SolverOptions opts;
  opts.m = 20;
  opts.s = 5;
  opts.tol = 1e-7;

  sim::Machine m1(2), m2(2);
  const SolveResult direct = ca_gmres(m1, p, opts);
  PrecondHandle handle(parse_precond_spec("none"));
  SolverOptions popts = opts;
  if (handle.armed()) popts.precond = &handle;
  const SolveResult none = ca_gmres(m2, p, popts);
  EXPECT_EQ(none.x, direct.x);
  EXPECT_EQ(none.stats.time_total, direct.stats.time_total);
  EXPECT_EQ(none.stats.residual_history, direct.stats.residual_history);
  EXPECT_EQ(handle.stats().applies, 0);
  EXPECT_EQ(handle.stats().symbolic_builds, 0);
}

TEST(IluPrecond, AllThreeSolversConvergeOnOriginalSystem) {
  const sparse::CsrMatrix a = sparse::make_laplace2d(16, 16, 0.2, 0.05);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const Problem p = make_problem(a, b, 2, graph::Ordering::kNatural, false, 1);
  SolverOptions opts;
  opts.m = 20;
  opts.s = 5;
  opts.tol = 1e-7;
  opts.max_restarts = 200;
  const PrecondSpec spec = parse_precond_spec("ilu");
  const double bn = blas::nrm2(a.n_rows, b.data());

  PrecondHandle hg(spec), hc(spec), hp(spec);
  SolverOptions og = opts, oc = opts, op = opts;
  og.precond = &hg;
  oc.precond = &hc;
  op.precond = &hp;
  sim::Machine mg(2), mc(2), mp(2);
  const SolveResult rg = gmres(mg, p, og);
  const SolveResult rc = ca_gmres(mc, p, oc);
  const SolveResult rp = pipelined_gmres(mp, p, op);
  for (const auto& [r, h] : {std::pair{&rg, &hg}, std::pair{&rc, &hc},
                             std::pair{&rp, &hp}}) {
    ASSERT_TRUE(r->stats.converged);
    EXPECT_GT(h->stats().applies, 0);
    EXPECT_LT(true_residual(a, b, r->x) / bn, codec_tol(1e-5));
  }
  // CA-GMRES with a preconditioner routes blocks through plain SpMVs (the
  // fused MPK kernel cannot interleave the trisolve), so MPK time is zero.
  EXPECT_EQ(rc.stats.time_mpk, 0.0);
}

TEST(IluPrecond, BitwiseIdenticalAcrossWorkersAndShapes) {
  // The trisolve charges on the calling thread in program order, so for a
  // fixed handle the preconditioned solve must be bit-for-bit reproducible
  // across {0, 2 workers} on a fixed 2x2 machine, whose collectives fold
  // through node leaders (DESIGN §13).
  const sparse::CsrMatrix a = sparse::make_laplace2d(20, 20, 0.1, 0.02);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const int ng = 4;
  const Problem p = make_problem(a, b, ng, graph::Ordering::kNatural, true, 1);
  SolverOptions opts;
  opts.m = 25;
  opts.s = 5;
  opts.tol = codec_tol(1e-7);
  opts.max_restarts = 200;
  const PrecondSpec spec = parse_precond_spec("ilu");

  std::vector<double> x0;
  std::vector<double> hist0;
  for (const int workers : {0, 2}) {
    sim::Machine m(ng);
    m.set_topology(2, 2);
    m.set_host_workers(workers);
    PrecondHandle handle(spec);
    SolverOptions popts = opts;
    popts.precond = &handle;
    const SolveResult r = ca_gmres(m, p, popts);
    ASSERT_TRUE(r.stats.converged);
    if (workers == 0) {
      x0 = r.x;
      hist0 = r.stats.residual_history;
    } else {
      EXPECT_EQ(r.x, x0) << "workers=" << workers;
      EXPECT_EQ(r.stats.residual_history, hist0);
    }
  }
}

TEST(IluPrecond, BitwiseIdenticalUnderInjectedKernelNan) {
  // Regression: the preconditioned CA block generation stages M^{-1}v in
  // the MPK executor's scratch multivector. Reusing ONE scratch column for
  // every step of a block let step i+1's trisolve overwrite rows that a
  // peer's still-parked halo closure from step i was reading — a
  // write-after-read hazard only visible with live workers, and only
  // observable when the two orders produce different bytes (an injected
  // NaN makes them wildly different). generate_by_spmv now stages one
  // column per step; a NaN-poisoned run must be bit-identical across
  // worker counts, like any other run.
  const sparse::CsrMatrix a = sparse::make_laplace2d(24, 24, 0.1, 0.02);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const int ng = 4;
  const Problem p = make_problem(a, b, ng, graph::Ordering::kNatural, true, 1);
  SolverOptions opts;
  opts.m = 30;
  opts.s = 6;
  opts.tol = codec_tol(1e-6, 1e-4);
  opts.max_restarts = 400;
  const PrecondSpec spec = parse_precond_spec("ilu");

  std::vector<double> x0;
  std::vector<double> hist0;
  bool first = true;
  for (const int workers : {0, 2}) {
    sim::Machine m(ng);
    m.set_topology(2, 2);
    m.set_host_workers(workers);
    sim::parse_fault_spec("nan:d3@op=335", m.fault_injector());
    PrecondHandle handle(spec);
    SolverOptions popts = opts;
    popts.precond = &handle;
    const SolveResult r = ca_gmres(m, p, popts);
    ASSERT_TRUE(r.stats.converged);
    EXPECT_GE(r.stats.recovery.blocks_replayed, 1);
    if (first) {
      x0 = r.x;
      hist0 = r.stats.residual_history;
      first = false;
    } else {
      EXPECT_EQ(r.x, x0) << "workers=" << workers;
      EXPECT_EQ(r.stats.residual_history, hist0);
    }
  }
}

TEST(IluPrecond, SymbolicHandleBuiltOnceAcrossRestarts) {
  // Shift-free Poisson at a loose restart length forces several restarts;
  // the handle must factor each device exactly once (symbolic AND numeric)
  // and serve every later restart from matches().
  const sparse::CsrMatrix a = sparse::make_laplace2d(22, 22, 0.0, 0.0);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const Problem p = make_problem(a, b, 2, graph::Ordering::kNatural, false, 1);
  SolverOptions opts;
  opts.m = 8;
  opts.tol = codec_tol(1e-8);
  opts.max_restarts = 500;

  PrecondHandle handle(parse_precond_spec("ilu"));
  SolverOptions popts = opts;
  popts.precond = &handle;
  sim::Machine m(2);
  const SolveResult r = gmres(m, p, popts);
  ASSERT_TRUE(r.stats.converged);
  ASSERT_GE(r.stats.restarts, 2);
  EXPECT_EQ(handle.stats().symbolic_builds, 2);  // once per device, ever
  EXPECT_EQ(handle.stats().numeric_builds, 2);
  EXPECT_TRUE(handle.matches(p.offsets));

  // The same handle serves a whole second solve without refactoring.
  sim::Machine m2(2);
  const SolveResult r2 = gmres(m2, p, popts);
  ASSERT_TRUE(r2.stats.converged);
  EXPECT_EQ(handle.stats().symbolic_builds, 2);
  EXPECT_EQ(r2.x, r.x);  // same factors, same machine config: same bits
}

TEST(IluPrecond, RebuildRefactorsOnlyChangedRanges) {
  const sparse::CsrMatrix a = sparse::make_laplace2d(18, 18, 0.1, 0.1);
  const int n = a.n_rows;
  sim::Machine m(3);
  PrecondHandle handle(parse_precond_spec("ilu"));
  const std::vector<int> before = {0, n / 3, 2 * n / 3, n};
  handle.build(m, a, before);
  EXPECT_EQ(handle.stats().symbolic_builds, 3);

  // Move only the SECOND split point: device 0's range is untouched and
  // must come back from the cache; devices 1 and 2 are refactored.
  const std::vector<int> after = {0, n / 3, 2 * n / 3 + 5, n};
  handle.rebuild(m, a, after);
  EXPECT_EQ(handle.stats().device_reuses, 1);
  EXPECT_EQ(handle.stats().device_rebuilds, 2);
  EXPECT_EQ(handle.stats().symbolic_builds, 5);
  EXPECT_TRUE(handle.matches(after));
  EXPECT_FALSE(handle.matches(before));

  // Rebuilding back reuses ALL three cached factors (the cache keeps
  // superseded ranges alive).
  handle.rebuild(m, a, before);
  EXPECT_EQ(handle.stats().device_reuses, 4);
  EXPECT_EQ(handle.stats().symbolic_builds, 5);
}

TEST(IluPrecond, DeviceKillRepartitionsRebuildsAndConverges) {
  // A permanent device loss mid-solve: the recovery path must repartition,
  // rebuild the handle for the survivors' ranges, and still converge on
  // the original system.
  const sparse::CsrMatrix a = sparse::make_laplace2d(20, 20, 0.1, 0.05);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const Problem p = make_problem(a, b, 3, graph::Ordering::kNatural, false, 1);
  SolverOptions opts;
  opts.m = 20;
  opts.tol = 1e-7;
  opts.max_restarts = 300;

  PrecondHandle handle(parse_precond_spec("ilu"));
  SolverOptions popts = opts;
  popts.precond = &handle;
  sim::Machine machine(3);
  sim::parse_fault_spec("kill:d1@op=400", machine.fault_injector());
  const SolveResult res = gmres(machine, p, popts);
  EXPECT_TRUE(res.stats.converged);
  EXPECT_EQ(machine.n_devices(), 2);
  EXPECT_EQ(res.stats.recovery.repartitions, 1);
  // 3 factors up front, then the 2-way resplit refactored what moved.
  EXPECT_GE(handle.stats().device_rebuilds, 1);
  EXPECT_EQ(handle.stats().symbolic_builds,
            3 + handle.stats().device_rebuilds);
  EXPECT_FALSE(handle.matches(p.offsets));  // now targeting the new split
  const double rel =
      true_residual(a, b, res.x) / blas::nrm2(a.n_rows, b.data());
  EXPECT_LT(rel, codec_tol(1e-4));
}

TEST(IluPrecond, HealthMonitorRidesThroughThePreconditionedSolve) {
  const sparse::CsrMatrix a = sparse::make_laplace2d(20, 20, 0.0, 0.005);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const Problem p = make_problem(a, b, 2, graph::Ordering::kNatural, false, 1);
  SolverOptions opts;
  opts.m = 20;
  opts.s = 5;
  opts.tol = 1e-12;
  opts.max_restarts = 200;
  PrecondHandle handle(parse_precond_spec("ilu"));
  opts.precond = &handle;

  // An iteration budget armed through opts.health must fire inside the
  // preconditioned solve, for both gmres and ca_gmres.
  opts.health.max_iterations = 10;
  sim::Machine mg(2);
  EXPECT_THROW(gmres(mg, p, opts), Error);
  sim::Machine mc(2);
  EXPECT_THROW(ca_gmres(mc, p, opts), Error);
  EXPECT_GT(handle.stats().applies, 0);

  // Report-only stagnation monitoring surfaces events in the returned
  // stats without changing the outcome.
  opts.health = HealthOptions{};
  opts.health.monitor_stagnation = true;
  opts.health.stagnation_window = 2;
  opts.health.stagnation_reduction = 1.0;
  opts.health.escalate = false;
  opts.tol = 1e-6;
  sim::Machine m(2);
  const SolveResult res = ca_gmres(m, p, opts);
  EXPECT_TRUE(res.stats.converged);
}

}  // namespace
}  // namespace cagmres::core
