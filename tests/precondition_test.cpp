// Tests for the ILU(0) preconditioner subsystem (src/precond/) and the
// solvers' right-preconditioned path through a PrecondHandle.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas1.hpp"
#include "codec_tol.hpp"
#include "common/error.hpp"
#include "core/cagmres.hpp"
#include "core/gmres.hpp"
#include "core/pipelined.hpp"
#include "precond/ilu.hpp"
#include "precond/precond.hpp"
#include "precond/trisolve.hpp"
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
using sparse::CsrMatrix;

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

/// Block-diagonal matrix of `blocks` followed by `singletons` rows that
/// hold only a diagonal entry (each one its own level-0 row).
CsrMatrix block_diagonal(const std::vector<CsrMatrix>& blocks,
                         int singletons = 0) {
  int n = singletons;
  for (const CsrMatrix& b : blocks) n += b.n_rows;
  sparse::CooBuilder builder(n, n);
  int off = 0;
  for (const CsrMatrix& b : blocks) {
    for (int i = 0; i < b.n_rows; ++i) {
      for (auto k = b.row_ptr[static_cast<std::size_t>(i)];
           k < b.row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
        builder.add(off + i, off + b.col_idx[static_cast<std::size_t>(k)],
                    b.vals[static_cast<std::size_t>(k)]);
      }
    }
    off += b.n_rows;
  }
  for (int i = off; i < n; ++i) builder.add(i, i, 2.0 + 0.1 * (i - off));
  return builder.build();
}

/// ILU(0) factor of the whole of `a` as one device block.
DeviceFactor factor_of(const CsrMatrix& a) {
  DeviceFactor f;
  precond::ilu_symbolic(a, 0, a.n_rows, f);
  precond::ilu_numeric(a, f);
  return f;
}

std::vector<double> test_vector(int n, double phase) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = std::sin(0.37 * i + phase) + 0.25;
  }
  return v;
}

bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// The rows of level l of `s`, in schedule order.
std::vector<int> rows_of(const LevelSchedule& s, int l) {
  const auto lo = static_cast<std::size_t>(l);
  return {s.order.begin() + s.level_ptr[lo],
          s.order.begin() + s.level_ptr[lo + 1]};
}

/// Reference for level_trisolve, in place on a copy of `in`: every level
/// is its own loop, as if it ran as its own kernel, and the rows of the
/// levels listed in `l_hit`/`u_hit` are NaN-poisoned right after that
/// level is computed.
std::vector<double> reference_trisolve(const DeviceFactor& f,
                                       std::vector<double> x,
                                       const std::vector<int>& l_hit = {},
                                       const std::vector<int>& u_hit = {}) {
  const double nan = std::nan("");
  for (int l = 0; l < f.l_sched.levels(); ++l) {
    const std::vector<int> rows = rows_of(f.l_sched, l);
    for (const int r : rows) {
      const auto i = static_cast<std::size_t>(r);
      double acc = x[i];
      for (auto p = f.l_ptr[i]; p < f.l_ptr[i + 1]; ++p) {
        const auto q = static_cast<std::size_t>(p);
        acc -= f.l_val[q] * x[static_cast<std::size_t>(f.l_idx[q])];
      }
      x[i] = acc;
    }
    if (contains(l_hit, l)) {
      for (const int r : rows) x[static_cast<std::size_t>(r)] = nan;
    }
  }
  for (int l = 0; l < f.u_sched.levels(); ++l) {
    const std::vector<int> rows = rows_of(f.u_sched, l);
    for (const int r : rows) {
      const auto i = static_cast<std::size_t>(r);
      double acc = x[i];
      for (auto p = f.u_ptr[i]; p < f.u_ptr[i + 1]; ++p) {
        const auto q = static_cast<std::size_t>(p);
        acc -= f.u_val[q] * x[static_cast<std::size_t>(f.u_idx[q])];
      }
      x[i] = acc * f.inv_diag[i];
    }
    if (contains(u_hit, l)) {
      for (const int r : rows) x[static_cast<std::size_t>(r)] = nan;
    }
  }
  return x;
}

/// Bit-for-bit equality of two vectors (operator== calls -0.0 and 0.0
/// equal).
bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
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

TEST(Trisolve, OneHostPassMatchesPerLevelReference) {
  // level_trisolve charges one kernel per level but computes the whole
  // apply in one host pass per device; the result must be bitwise the
  // per-level reference. Two factors: a laplace2d block, and 1100
  // independent 3x2 grids whose level 0 is 1100 rows wide, past the
  // 1024 rows at which a level used to run OpenMP-parallel.
  const CsrMatrix lap = sparse::make_laplace2d(11, 9, 0.3, 0.1);
  const CsrMatrix wide = block_diagonal(std::vector<CsrMatrix>(
      1100, sparse::make_laplace2d(3, 2, 0.2, 0.4)));
  const DeviceFactor f_lap = factor_of(lap);
  const DeviceFactor f_wide = factor_of(wide);
  int widest = 0;
  for (int l = 0; l < f_wide.l_sched.levels(); ++l) {
    widest = std::max(widest, f_wide.l_sched.level_rows(l));
  }
  ASSERT_GT(widest, 1 << 10);

  for (const int workers : {0, 2}) {
    for (const DeviceFactor* f : {&f_lap, &f_wide}) {
      sim::Machine m(2);
      m.set_host_workers(workers);
      const std::vector<double> in0 = test_vector(f->n(), 0.5);
      const std::vector<double> in1 = test_vector(f->n(), 1.5);
      const std::int64_t kernels = f->l_sched.levels() + f->u_sched.levels();
      // Device 0 out of place, device 1 in place (out == in), both in
      // flight on their streams before the barrier.
      std::vector<double> out0(in0.size(), 0.0);
      std::vector<double> buf1 = in1;
      precond::level_trisolve(m, 0, *f, in0.data(), out0.data());
      precond::level_trisolve(m, 1, *f, buf1.data(), buf1.data());
      m.sync();
      EXPECT_TRUE(bitwise_equal(out0, reference_trisolve(*f, in0)))
          << "workers=" << workers << " n=" << f->n();
      EXPECT_TRUE(bitwise_equal(buf1, reference_trisolve(*f, in1)))
          << "in place, workers=" << workers << " n=" << f->n();
      // One apply charges exactly one kernel per L level plus per U level.
      EXPECT_EQ(m.counters().dev_kernels[0], kernels);
      EXPECT_EQ(m.counters().dev_kernels[1], kernels);
    }
  }
}

TEST(Trisolve, InjectedNanPoisonsHitLevelAndDependentsOnly) {
  // Three independent parts of different depth: an 8x6 grid (13 L and 13 U
  // levels), a 4x3 grid (6 each) and 5 isolated rows (level 0 only). An
  // injected NaN on L level 9 lands on grid rows only; one on U level 3
  // poisons both grids' level-3 rows and their dependents, leaving the
  // small grid's U levels 0-2 and the isolated rows finite.
  const CsrMatrix a = block_diagonal(
      {sparse::make_laplace2d(8, 6, 0.3, 0.1),
       sparse::make_laplace2d(4, 3, 0.2, 0.4)},
      5);
  const DeviceFactor f = factor_of(a);
  const int n = f.n();
  ASSERT_EQ(f.l_sched.levels(), 13);
  ASSERT_EQ(f.u_sched.levels(), 13);
  const int l_hit = 9;
  const int u_hit = 3;
  // A fresh device's op counter numbers its charged kernels from 1, and
  // level_trisolve charges every L level before the U levels.
  const std::string spec =
      "nan:d0@op=" + std::to_string(l_hit + 1) +
      ";nan:d0@op=" + std::to_string(f.l_sched.levels() + u_hit + 1);

  // Structural expectation: the hit level's rows, plus every row that
  // reads a NaN row through L (forward) or U (backward).
  std::vector<char> poisoned(static_cast<std::size_t>(n), 0);
  const std::vector<int> ll = level_of(f.l_sched, n);
  const std::vector<int> lu = level_of(f.u_sched, n);
  for (const int k : f.l_sched.order) {
    const auto i = static_cast<std::size_t>(k);
    bool bad = ll[i] == l_hit;
    for (auto p = f.l_ptr[i]; p < f.l_ptr[i + 1]; ++p) {
      const auto j = f.l_idx[static_cast<std::size_t>(p)];
      bad = bad || poisoned[static_cast<std::size_t>(j)];
    }
    poisoned[i] = bad;
  }
  for (const int k : f.u_sched.order) {
    const auto i = static_cast<std::size_t>(k);
    bool bad = poisoned[i] || lu[i] == u_hit;
    for (auto p = f.u_ptr[i]; p < f.u_ptr[i + 1]; ++p) {
      const auto j = f.u_idx[static_cast<std::size_t>(p)];
      bad = bad || poisoned[static_cast<std::size_t>(j)];
    }
    poisoned[i] = bad;
  }

  const std::vector<double> in = test_vector(n, 0.25);
  const std::vector<double> ref = reference_trisolve(f, in, {l_hit}, {u_hit});
  const std::vector<double> clean = reference_trisolve(f, in);
  int n_nan = 0;
  for (int i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    ASSERT_EQ(std::isnan(ref[u]), poisoned[u] != 0) << "row " << i;
    n_nan += poisoned[u];
  }
  ASSERT_GT(n_nan, 0);
  ASSERT_LT(n_nan, n - 5);  // the isolated rows and part of the 4x3 grid
  for (int i = n - 5; i < n; ++i) {
    ASSERT_FALSE(poisoned[static_cast<std::size_t>(i)]);
  }

  for (const int workers : {0, 2}) {
    sim::Machine m(1);
    m.set_host_workers(workers);
    sim::parse_fault_spec(spec, m.fault_injector());
    const std::int64_t consumed = m.kernel_faults_consumed();
    // Two applies in flight on one stream: the first takes both hits, the
    // second none, so each closure must carry its own hit levels.
    std::vector<double> hit(in.size(), 0.0);
    std::vector<double> next(in.size(), 0.0);
    precond::level_trisolve(m, 0, f, in.data(), hit.data());
    precond::level_trisolve(m, 0, f, in.data(), next.data());
    m.sync();
    // One consumed fault per hit level, as in the reference.
    EXPECT_EQ(m.kernel_faults_consumed() - consumed, 2)
        << "workers=" << workers;
    for (int i = 0; i < n; ++i) {
      const auto u = static_cast<std::size_t>(i);
      ASSERT_EQ(std::isnan(hit[u]), std::isnan(ref[u]))
          << "row " << i << " workers=" << workers;
      if (!std::isnan(ref[u])) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(hit[u]),
                  std::bit_cast<std::uint64_t>(ref[u]))
            << "row " << i << " workers=" << workers;
        ASSERT_TRUE(std::isfinite(hit[u])) << "row " << i;
      }
    }
    EXPECT_TRUE(bitwise_equal(next, clean)) << "workers=" << workers;
  }
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
