// Property-based parameterized sweeps (TEST_P) over the solver and kernel
// configuration space: every combination must satisfy the same invariants
// (correct solutions, orthogonality bounds, conserved message counts,
// clock monotonicity).
#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "blas/blas1.hpp"
#include "common/rng.hpp"
#include "core/cagmres.hpp"
#include "core/gmres.hpp"
#include "mpk/exec.hpp"
#include "mpk/plan.hpp"
#include "ortho/metrics.hpp"
#include "ortho/tsqr.hpp"
#include "sim/machine.hpp"
#include "sparse/generators.hpp"

#include "codec_tol.hpp"

namespace cagmres {
namespace {

// ---------------------------------------------------------------------------
// Solver sweep: (ng, s, ordering, balance) — solution must satisfy the
// original system to tolerance, stats must be self-consistent.
// ---------------------------------------------------------------------------

struct SolveParam {
  int ng;
  int s;
  graph::Ordering ordering;
  bool balance;
};

class SolveSweep : public ::testing::TestWithParam<SolveParam> {};

TEST_P(SolveSweep, SolvesTheOriginalSystem) {
  const SolveParam& prm = GetParam();
  const sparse::CsrMatrix a = sparse::make_laplace2d(22, 19, 0.3, 0.3);
  std::vector<double> b(static_cast<std::size_t>(a.n_rows));
  Rng rng(77);
  for (auto& e : b) e = rng.normal();

  const core::Problem p =
      core::make_problem(a, b, prm.ng, prm.ordering, prm.balance, 9);
  sim::Machine machine(prm.ng);
  core::SolverOptions opts;
  opts.m = 24;
  opts.s = prm.s;
  opts.tol = 1e-7;
  const core::SolveResult res = core::ca_gmres(machine, p, opts);
  ASSERT_TRUE(res.stats.converged);

  const double rel = core::true_residual(a, b, res.x) /
                     blas::nrm2(a.n_rows, b.data());
  EXPECT_LT(rel, 1e-5);
  // Stats invariants.
  EXPECT_GE(res.stats.iterations, res.stats.restarts);
  EXPECT_GT(res.stats.time_total, 0.0);
  EXPECT_LE(res.stats.final_residual,
            res.stats.initial_residual * (1.0 + 1e-12));
  // The clock never runs backwards and matches the stats window.
  EXPECT_GE(machine.clock().elapsed(), res.stats.time_total - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SolveSweep,
    ::testing::Values(SolveParam{1, 1, graph::Ordering::kNatural, true},
                      SolveParam{1, 8, graph::Ordering::kNatural, false},
                      SolveParam{2, 4, graph::Ordering::kRcm, true},
                      SolveParam{2, 12, graph::Ordering::kKway, true},
                      SolveParam{3, 6, graph::Ordering::kKway, false},
                      SolveParam{3, 24, graph::Ordering::kRcm, true}),
    [](const auto& info) {
      const SolveParam& p = info.param;
      return "ng" + std::to_string(p.ng) + "_s" + std::to_string(p.s) + "_" +
             graph::to_string(p.ordering) + (p.balance ? "_bal" : "_raw");
    });

// ---------------------------------------------------------------------------
// TSQR orthogonality-bound sweep: per Fig. 10 each method's error must stay
// within (a generous multiple of) its model bound on panels of controlled
// conditioning.
// ---------------------------------------------------------------------------

struct BoundParam {
  ortho::Method method;
  double noise;  // controls kappa of the graded panel
};

class OrthoBoundSweep : public ::testing::TestWithParam<BoundParam> {};

TEST_P(OrthoBoundSweep, ErrorWithinModelBound) {
  const auto& prm = GetParam();
  const int n = 3000, k = 10, ng = 2;
  std::vector<int> rows = {n / 2, n - n / 2};
  sim::DistMultiVec v(rows, k);
  Rng rng(11);
  for (int d = 0; d < ng; ++d) {
    for (int i = 0; i < v.local_rows(d); ++i) v.col(d, 0)[i] = rng.normal();
  }
  for (int j = 1; j < k; ++j) {
    for (int d = 0; d < ng; ++d) {
      for (int i = 0; i < v.local_rows(d); ++i) {
        v.col(d, j)[i] =
            1.7 * v.col(d, j - 1)[i] + prm.noise * rng.normal();
      }
    }
  }
  const double kappa = ortho::condition_number(v, 0, k);
  ASSERT_LT(kappa, 1e7);  // keep within the measurable regime

  sim::Machine machine(ng);
  ortho::tsqr(machine, prm.method, v, 0, k);
  machine.sync();  // the host reads the panel below
  const double err = ortho::orthogonality_error(v, 0, k);
  const double eps = 2.2e-16;
  double bound = 0.0;
  switch (prm.method) {
    case ortho::Method::kMgs:
      bound = eps * kappa;
      break;
    case ortho::Method::kCgs:
      bound = eps * kappa * kappa;  // practical CGS bound for mild kappa
      break;
    case ortho::Method::kCholQr:
    case ortho::Method::kSvqr:
      bound = eps * kappa * kappa;
      break;
    case ortho::Method::kCholQrMp:
      bound = 1.2e-7 * kappa * kappa;  // single-precision Gram
      break;
    case ortho::Method::kCaqr:
      bound = eps;
      break;
  }
  // Generous safety factor: these are order-of-magnitude models.
  EXPECT_LT(err, 1e3 * bound * k) << "kappa=" << kappa;
}

INSTANTIATE_TEST_SUITE_P(
    Bounds, OrthoBoundSweep,
    ::testing::Values(BoundParam{ortho::Method::kMgs, 1e-2},
                      BoundParam{ortho::Method::kMgs, 1e-4},
                      BoundParam{ortho::Method::kCgs, 1e-2},
                      BoundParam{ortho::Method::kCholQr, 1e-2},
                      BoundParam{ortho::Method::kCholQr, 1e-4},
                      BoundParam{ortho::Method::kSvqr, 1e-4},
                      BoundParam{ortho::Method::kCholQrMp, 1e-2},
                      BoundParam{ortho::Method::kCaqr, 1e-4}),
    [](const auto& info) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "%.0e", info.param.noise);
      std::string noise(buf);
      for (auto& c : noise) {
        if (c == '-') c = 'm';
        if (c == '+') c = 'p';
      }
      return ortho::to_string(info.param.method) + "_noise" + noise;
    });

// ---------------------------------------------------------------------------
// MPK sweep: for every (matrix family, s, ng) the kernel output equals s
// repeated SpMVs, and the per-call message count equals one gather +
// one scatter per communicating device.
// ---------------------------------------------------------------------------

struct MpkParam {
  int family;  // 0 = laplace2d, 1 = cant-like, 2 = circuit-like
  int s;
  int ng;
};

class MpkSweep : public ::testing::TestWithParam<MpkParam> {};

TEST_P(MpkSweep, MatchesRepeatedSpmvAndMessageModel) {
  const auto& prm = GetParam();
  sparse::CsrMatrix a;
  switch (prm.family) {
    case 0:
      a = sparse::make_laplace2d(17, 16, 0.2);
      break;
    case 1:
      a = sparse::make_cant_like(0.12);
      break;
    default:
      a = sparse::make_circuit_like(0.04, true, 9);
      break;
  }
  std::vector<int> offsets(static_cast<std::size_t>(prm.ng) + 1);
  for (int d = 0; d <= prm.ng; ++d) {
    offsets[static_cast<std::size_t>(d)] =
        static_cast<int>((static_cast<long long>(a.n_rows) * d) / prm.ng);
  }
  const mpk::MpkPlan plan = mpk::build_mpk_plan(a, offsets, prm.s);
  mpk::MpkExecutor exec(plan);
  sim::Machine machine(prm.ng);
  sim::DistMultiVec v(plan.rows_per_device(), prm.s + 1);
  Rng rng(13);
  std::vector<double> x(static_cast<std::size_t>(a.n_rows));
  for (auto& e : x) e = rng.normal();
  std::size_t off = 0;
  for (int d = 0; d < prm.ng; ++d) {
    for (int i = 0; i < v.local_rows(d); ++i) {
      v.col(d, 0)[i] = x[off + static_cast<std::size_t>(i)];
    }
    off += static_cast<std::size_t>(v.local_rows(d));
  }
  exec.apply(machine, v, 0, prm.s);
  machine.sync();  // the host reads the basis columns below

  // Numerics: equality with repeated host SpMV.
  std::vector<double> ref = x, tmp(static_cast<std::size_t>(a.n_rows));
  for (int k = 1; k <= prm.s; ++k) {
    sparse::spmv(a, ref.data(), tmp.data());
    ref.swap(tmp);
  }
  off = 0;
  double scale = blas::amax(a.n_rows, ref.data()) + 1.0;
  for (int d = 0; d < prm.ng; ++d) {
    for (int i = 0; i < v.local_rows(d); ++i) {
      EXPECT_NEAR(v.col(d, prm.s)[i], ref[off + static_cast<std::size_t>(i)],
                  test::codec_near(1e-11 * scale,
                                   ref[off + static_cast<std::size_t>(i)],
                                   scale));
    }
    off += static_cast<std::size_t>(v.local_rows(d));
  }

  // Message model: one D2H per sending device, one H2D per receiving one.
  int senders = 0, receivers = 0;
  for (int d = 0; d < prm.ng; ++d) {
    if (!plan.dev[static_cast<std::size_t>(d)].send_local_rows.empty()) {
      ++senders;
    }
    if (!plan.dev[static_cast<std::size_t>(d)].ext_global.empty()) {
      ++receivers;
    }
  }
  EXPECT_EQ(machine.counters().d2h_msgs, senders);
  EXPECT_EQ(machine.counters().h2d_msgs, receivers);
}

INSTANTIATE_TEST_SUITE_P(
    Families, MpkSweep,
    ::testing::Values(MpkParam{0, 1, 2}, MpkParam{0, 3, 3}, MpkParam{0, 6, 1},
                      MpkParam{1, 2, 3}, MpkParam{1, 5, 2}, MpkParam{2, 2, 2},
                      MpkParam{2, 4, 3}),
    [](const auto& info) {
      const std::string fam = info.param.family == 0   ? "grid"
                              : info.param.family == 1 ? "cant"
                                                       : "circuit";
      return fam + "_s" + std::to_string(info.param.s) + "_ng" +
             std::to_string(info.param.ng);
    });

// ---------------------------------------------------------------------------
// Restart-length sweep: GMRES(m) monotone per-restart, larger m never
// increases the restart count.
// ---------------------------------------------------------------------------

class RestartSweep : public ::testing::TestWithParam<int> {};

TEST_P(RestartSweep, LargerMNeedsNoMoreRestartsThanConsistency) {
  const int m = GetParam();
  const sparse::CsrMatrix a = sparse::make_laplace2d(24, 24, 0.0, 0.05);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const core::Problem p =
      core::make_problem(a, b, 1, graph::Ordering::kNatural, true, 1);
  sim::Machine machine(1);
  core::SolverOptions opts;
  opts.m = m;
  opts.tol = 1e-6;
  opts.max_restarts = 500;
  const core::SolveResult res = core::gmres(machine, p, opts);
  EXPECT_TRUE(res.stats.converged);
  const auto& h = res.stats.residual_history;
  for (std::size_t i = 1; i < h.size(); ++i) {
    EXPECT_LE(h[i], h[i - 1] * (1.0 + 1e-10));
  }
}

INSTANTIATE_TEST_SUITE_P(Ms, RestartSweep, ::testing::Values(5, 10, 20, 40),
                         [](const auto& info) {
                           return "m" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace cagmres
