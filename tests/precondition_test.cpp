// Tests for the ILU(0) preconditioner subsystem (src/precond/) and the
// solvers' right-preconditioned path through a PrecondHandle.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas1.hpp"
#include "codec_tol.hpp"
#include "kill_probe.hpp"
#include "trace_probe.hpp"
#include "common/error.hpp"
#include "core/cagmres.hpp"
#include "core/gmres.hpp"
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
using precond::PrecondHandle;
using precond::PrecondKind;
using precond::PrecondSpec;
using precond::parse_precond_spec;
using test::codec_tol;
using sparse::CsrMatrix;

/// The level sets of one triangular factor, found as wavefronts: level 0
/// holds the rows with no in-factor dependency, and each later level the
/// rows (ascending) whose dependencies all sit in earlier levels. This is
/// the per-level schedule the sync-free kernel replaced, kept here as the
/// bitwise oracle's row order and the depth's definition.
std::vector<std::vector<int>> wavefronts(const std::vector<std::int64_t>& ptr,
                                         const std::vector<int>& idx, int n) {
  std::vector<char> done(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<int>> levels;
  for (int left = n; left > 0;) {
    std::vector<int> ready;
    for (int i = 0; i < n; ++i) {
      const auto u = static_cast<std::size_t>(i);
      bool ok = !done[u];
      for (auto p = ptr[u]; ok && p < ptr[u + 1]; ++p) {
        ok = done[static_cast<std::size_t>(idx[static_cast<std::size_t>(p)])];
      }
      if (ok) ready.push_back(i);
    }
    for (const int i : ready) done[static_cast<std::size_t>(i)] = 1;
    left -= static_cast<int>(ready.size());
    levels.push_back(std::move(ready));
  }
  return levels;
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

/// Per-level reference for precond::trisolve, in place on a copy of `in`:
/// every level of each factor is its own loop, as if it ran as its own
/// kernel behind a grid-wide barrier.
std::vector<double> reference_trisolve(const DeviceFactor& f,
                                       std::vector<double> x) {
  for (const std::vector<int>& rows : wavefronts(f.l_ptr, f.l_idx, f.n())) {
    for (const int r : rows) {
      const auto i = static_cast<std::size_t>(r);
      double acc = x[i];
      for (auto p = f.l_ptr[i]; p < f.l_ptr[i + 1]; ++p) {
        const auto q = static_cast<std::size_t>(p);
        acc -= f.l_val[q] * x[static_cast<std::size_t>(f.l_idx[q])];
      }
      x[i] = acc;
    }
  }
  for (const std::vector<int>& rows : wavefronts(f.u_ptr, f.u_idx, f.n())) {
    for (const int r : rows) {
      const auto i = static_cast<std::size_t>(r);
      double acc = x[i];
      for (auto p = f.u_ptr[i]; p < f.u_ptr[i + 1]; ++p) {
        const auto q = static_cast<std::size_t>(p);
        acc -= f.u_val[q] * x[static_cast<std::size_t>(f.u_idx[q])];
      }
      x[i] = acc * f.inv_diag[i];
    }
  }
  return x;
}

/// Seconds one kSpmvCsr-class kernel of `bytes` charges under `pm`, plus
/// `wait` seconds of in-kernel dependency wait.
double csr_kernel_seconds(const sim::PerfModel& pm, double bytes,
                          double wait) {
  return pm.kernel_launch_s + sim::kCsrUncoalesced * bytes / pm.spmv_bw +
         wait;
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

TEST(IluFactor, DepthIsTheLongestDependencyChain) {
  // The recorded depth is the factor's critical path: a tridiagonal of n
  // rows is one chain of n rows in each triangle, a natural-order nx x ny
  // grid's longest chain runs corner to corner through nx + ny - 1 rows,
  // and independent blocks take the depth of the deepest one.
  const CsrMatrix tri = sparse::make_laplace2d(18, 1, 0.2, 0.3);
  const CsrMatrix grid = sparse::make_laplace2d(11, 9, 0.3, 0.1);
  const CsrMatrix parts = block_diagonal(
      {sparse::make_laplace2d(8, 6, 0.3, 0.1),
       sparse::make_laplace2d(4, 3, 0.2, 0.4)},
      5);
  const CsrMatrix singles = block_diagonal({}, 7);
  for (const auto& [a, depth] :
       {std::pair{&tri, 18}, std::pair{&grid, 19}, std::pair{&parts, 13},
        std::pair{&singles, 1}}) {
    DeviceFactor f;
    precond::ilu_symbolic(*a, 0, a->n_rows, f);
    // ILU(0) keeps exactly A's pattern (the generators emit the diagonal).
    EXPECT_EQ(f.fill_nnz(), a->nnz());
    EXPECT_EQ(f.l_solve.depth, depth) << "n=" << a->n_rows;
    EXPECT_EQ(f.u_solve.depth, depth) << "n=" << a->n_rows;
    EXPECT_EQ(static_cast<int>(wavefronts(f.l_ptr, f.l_idx, f.n()).size()),
              depth);
    EXPECT_EQ(static_cast<int>(wavefronts(f.u_ptr, f.u_idx, f.n()).size()),
              depth);
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
  // trisolve charges one kernel per factor and computes the whole apply in
  // one natural-order host pass per device; the result must be bitwise the
  // per-level reference. Two factors: a laplace2d block, and 1100
  // independent 3x2 grids whose level 0 is 1100 rows wide.
  const CsrMatrix lap = sparse::make_laplace2d(11, 9, 0.3, 0.1);
  const CsrMatrix wide = block_diagonal(std::vector<CsrMatrix>(
      1100, sparse::make_laplace2d(3, 2, 0.2, 0.4)));
  const DeviceFactor f_lap = factor_of(lap);
  const DeviceFactor f_wide = factor_of(wide);
  ASSERT_GT(wavefronts(f_wide.l_ptr, f_wide.l_idx, f_wide.n())[0].size(),
            std::size_t{1} << 10);

  for (const int workers : {0, 2}) {
    for (const DeviceFactor* f : {&f_lap, &f_wide}) {
      sim::Machine m(2);
      m.set_host_workers(workers);
      const std::vector<double> in0 = test_vector(f->n(), 0.5);
      const std::vector<double> in1 = test_vector(f->n(), 1.5);
      // Device 0 out of place, device 1 in place (out == in), both in
      // flight on their streams before the barrier.
      std::vector<double> out0(in0.size(), 0.0);
      std::vector<double> buf1 = in1;
      precond::trisolve(m, 0, *f, in0.data(), out0.data());
      precond::trisolve(m, 1, *f, buf1.data(), buf1.data());
      m.sync();
      EXPECT_TRUE(bitwise_equal(out0, reference_trisolve(*f, in0)))
          << "workers=" << workers << " n=" << f->n();
      EXPECT_TRUE(bitwise_equal(buf1, reference_trisolve(*f, in1)))
          << "in place, workers=" << workers << " n=" << f->n();

      // One kernel per factor. L: 2 flops and 20 bytes per nonzero, 16
      // bytes per row, 4 more re-arming U's counters; U: also 1 flop and 8
      // bytes per row for the inverted diagonal. Each waits one
      // sptrsv_level_s per level past its first.
      const sim::PerfModel& pm = m.perf();
      const double n = f->n();
      const double l_nnz = static_cast<double>(f->l_idx.size());
      const double u_nnz = static_cast<double>(f->u_idx.size());
      const double l_levels = static_cast<double>(
          wavefronts(f->l_ptr, f->l_idx, f->n()).size());
      const double u_levels = static_cast<double>(
          wavefronts(f->u_ptr, f->u_idx, f->n()).size());
      const double seconds =
          csr_kernel_seconds(pm, 20.0 * l_nnz + 20.0 * n,
                             (l_levels - 1.0) * pm.sptrsv_level_s) +
          csr_kernel_seconds(pm, 20.0 * u_nnz + 28.0 * n,
                             (u_levels - 1.0) * pm.sptrsv_level_s);
      for (const int d : {0, 1}) {
        EXPECT_EQ(m.counters().dev_kernels[static_cast<std::size_t>(d)], 2);
        EXPECT_NEAR(m.device_busy(d), seconds, 1e-12 * seconds);
        EXPECT_EQ(m.counters().dev_flops[static_cast<std::size_t>(d)],
                  2.0 * l_nnz + 2.0 * u_nnz + n);
      }
    }
  }
}

TEST(Trisolve, LaunchPricedLevelWaitReproducesPerLevelCharge) {
  // With the level wait priced at a full launch, the sync-free kernel
  // charges what one kernel per level did (launch plus 2 flops and 20
  // bytes per nonzero and 16/24 bytes per row of that level), plus only
  // the counter re-arm traffic the per-level kernels never needed.
  const CsrMatrix a = block_diagonal(
      {sparse::make_laplace2d(8, 6, 0.3, 0.1),
       sparse::make_laplace2d(4, 3, 0.2, 0.4)},
      5);
  const DeviceFactor f = factor_of(a);
  sim::Machine m(1);
  sim::PerfModel& pm = m.perf();
  pm.sptrsv_level_s = pm.kernel_launch_s;
  double per_level = 0.0;
  for (const auto& [ptr, idx, row_bytes] :
       {std::tuple{&f.l_ptr, &f.l_idx, 16.0},
        std::tuple{&f.u_ptr, &f.u_idx, 24.0}}) {
    for (const std::vector<int>& rows : wavefronts(*ptr, *idx, f.n())) {
      double nnz = 0.0;
      for (const int r : rows) {
        const auto i = static_cast<std::size_t>(r);
        nnz += static_cast<double>((*ptr)[i + 1] - (*ptr)[i]);
      }
      per_level += csr_kernel_seconds(
          pm, 20.0 * nnz + row_bytes * static_cast<double>(rows.size()), 0.0);
    }
  }
  // Each kernel re-arms the other's 4-byte per-row counters.
  const double rearm = sim::kCsrUncoalesced * (2.0 * 4.0 * f.n()) / pm.spmv_bw;
  std::vector<double> x = test_vector(f.n(), 0.75);
  precond::trisolve(m, 0, f, x.data(), x.data());
  m.sync();
  EXPECT_NEAR(m.device_busy(0), per_level + rearm, 1e-12);
  EXPECT_EQ(m.counters().dev_kernels[0], 2);
}

TEST(Trisolve, InjectedNanPoisonsTheHitDevicesOutputOnly) {
  // Each factor kernel consumes one NaN latch, and both write every row of
  // their device, so a NaN on device d's L kernel (its op 1) or U kernel
  // (op 2) poisons all of d's output and nothing on the other device. A
  // second apply in flight behind it on the same stream stays clean.
  const CsrMatrix a = block_diagonal(
      {sparse::make_laplace2d(8, 6, 0.3, 0.1),
       sparse::make_laplace2d(4, 3, 0.2, 0.4)},
      5);
  const DeviceFactor f = factor_of(a);
  const std::vector<double> in = test_vector(f.n(), 0.25);
  const std::vector<double> clean = reference_trisolve(f, in);
  for (const int workers : {0, 2}) {
    for (const int hit_dev : {0, 1}) {
      for (const int op : {1, 2}) {
        sim::Machine m(2);
        m.set_host_workers(workers);
        sim::parse_fault_spec(
            "nan:d" + std::to_string(hit_dev) + "@op=" + std::to_string(op),
            m.fault_injector());
        std::vector<std::vector<double>> first(2), second(2);
        for (const int d : {0, 1}) {
          first[static_cast<std::size_t>(d)].assign(in.size(), 0.0);
          second[static_cast<std::size_t>(d)].assign(in.size(), 0.0);
          precond::trisolve(m, d, f, in.data(),
                            first[static_cast<std::size_t>(d)].data());
          precond::trisolve(m, d, f, in.data(),
                            second[static_cast<std::size_t>(d)].data());
        }
        m.sync();
        const std::string where = "workers=" + std::to_string(workers) +
                                  " d=" + std::to_string(hit_dev) +
                                  " op=" + std::to_string(op);
        EXPECT_EQ(m.kernel_faults_consumed(), 1) << where;
        for (const double v : first[static_cast<std::size_t>(hit_dev)]) {
          ASSERT_TRUE(std::isnan(v)) << where;
        }
        EXPECT_TRUE(bitwise_equal(first[static_cast<std::size_t>(1 - hit_dev)],
                                  clean))
            << where;
        EXPECT_TRUE(bitwise_equal(second[0], clean)) << where;
        EXPECT_TRUE(bitwise_equal(second[1], clean)) << where;
      }
    }
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

TEST(IluPrecond, BothSolversConvergeOnOriginalSystem) {
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

  PrecondHandle hg(spec), hc(spec);
  SolverOptions og = opts, oc = opts;
  og.precond = &hg;
  oc.precond = &hc;
  sim::Machine mg(2), mc(2);
  const SolveResult rg = gmres(mg, p, og);
  const SolveResult rc = ca_gmres(mc, p, oc);
  for (const auto& [r, h] : {std::pair{&rg, &hg}, std::pair{&rc, &hc}}) {
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
  // worker counts, like any other run. The NaN is scheduled on device 3's
  // first trisolve kernel, located on a traced run armed with an event that
  // never fires (an armed machine also charges the cycle checkpoints).
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
  auto solve = [&](sim::Machine& m, const std::string& faults, int workers) {
    m.set_topology(2, 2);
    m.set_host_workers(workers);
    m.enable_trace();
    sim::parse_fault_spec(faults, m.fault_injector());
    PrecondHandle handle(spec);
    SolverOptions popts = opts;
    popts.precond = &handle;
    return ca_gmres(m, p, popts);
  };
  sim::Machine probe(ng);
  solve(probe, "nan:d3@op=1000000000", 0);
  const std::int64_t op =
      test::op_index_of(probe.trace(), 3, "spmv_csr", "precond");
  ASSERT_GT(op, 0);

  std::vector<double> x0;
  std::vector<double> hist0;
  bool first = true;
  for (const int workers : {0, 2}) {
    sim::Machine m(ng);
    const SolveResult r = solve(m, "nan:d3@op=" + std::to_string(op), workers);
    ASSERT_EQ(m.fault_injector().log().size(), 1u);
    EXPECT_EQ(m.fault_injector().log()[0].op, op);
    // The poisoned op is a trisolve: the first device-3 op after the
    // marker is a precond-phase CSR kernel.
    const auto& ev = m.trace().events();
    std::size_t i = 0;
    while (i < ev.size() && ev[i].name != "fault:nan") ++i;
    ASSERT_LT(i, ev.size());
    while (i < ev.size() &&
           (ev[i].device != 3 || ev[i].name.find(':') != std::string::npos)) {
      ++i;
    }
    ASSERT_LT(i, ev.size());
    EXPECT_EQ(ev[i].name, "spmv_csr");
    EXPECT_EQ(ev[i].phase, "precond");
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
  // the original system. Device 1's op 200 lands a little before halfway
  // through the solve without the kill.
  const sparse::CsrMatrix a = sparse::make_laplace2d(20, 20, 0.1, 0.05);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const Problem p = make_problem(a, b, 3, graph::Ordering::kNatural, false, 1);
  SolverOptions opts;
  opts.m = 20;
  opts.tol = 1e-7;
  opts.max_restarts = 300;

  PrecondHandle clean_handle(parse_precond_spec("ilu"));
  SolverOptions copts = opts;
  copts.precond = &clean_handle;
  sim::Machine clean(3);
  ASSERT_TRUE(gmres(clean, p, copts).stats.converged);

  PrecondHandle handle(parse_precond_spec("ilu"));
  SolverOptions popts = opts;
  popts.precond = &handle;
  sim::Machine machine(3);
  sim::parse_fault_spec("kill:d1@op=200", machine.fault_injector());
  const SolveResult res = gmres(machine, p, popts);
  EXPECT_TRUE(test::kill_landed_mid_solve(machine, clean));
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

  // The machine watchdog armed halfway through each solver's own
  // unbounded solve must fire inside the preconditioned solve, for both
  // gmres and ca_gmres.
  for (const bool ca : {false, true}) {
    sim::Machine ref(2);
    const SolveResult full = ca ? ca_gmres(ref, p, opts) : gmres(ref, p, opts);
    const std::int64_t applies = handle.stats().applies;
    sim::Machine m(2);
    m.set_deadline(0.5 * full.stats.time_total);
    try {
      if (ca) {
        ca_gmres(m, p, opts);
      } else {
        gmres(m, p, opts);
      }
      ADD_FAILURE() << "watchdog did not fire (ca=" << ca << ")";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded) << e.what();
    }
    EXPECT_GT(handle.stats().applies, applies) << "ca=" << ca;
  }

  // Stagnation monitoring with the ladder armed rides along without
  // derailing a healthy preconditioned solve.
  opts.health.monitor_stagnation = true;
  opts.tol = 1e-6;
  sim::Machine m(2);
  const SolveResult res = ca_gmres(m, p, opts);
  EXPECT_TRUE(res.stats.converged);
  EXPECT_EQ(res.stats.ladder_steps, 0);
}

}  // namespace
}  // namespace cagmres::core
