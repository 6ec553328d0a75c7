// Real wall-clock microbenchmarks (google-benchmark) of the host kernels
// that execute the simulated device's numerics: BLAS-1/2/3, the panel QR,
// SpMV in both formats and the fused matrix powers step. These measure
// THIS machine, not the paper's — they exist to keep the reference kernels
// honest (vectorization, layout) and to catch performance regressions in
// the library itself.
#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include <benchmark/benchmark.h>

#include "blas/blas1.hpp"
#include "blas/blas2.hpp"
#include "blas/blas3.hpp"
#include "blas/lapack.hpp"
#include "common/rng.hpp"
#include "core/solver_common.hpp"
#include "mpk/plan.hpp"
#include "sparse/csr.hpp"
#include "sparse/ell.hpp"
#include "sparse/generators.hpp"

using namespace cagmres;

namespace {

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  Rng rng(seed);
  for (auto& e : v) e = rng.normal();
  return v;
}

void BM_Dot(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto x = random_vec(static_cast<std::size_t>(n), 1);
  const auto y = random_vec(static_cast<std::size_t>(n), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(blas::dot(n, x.data(), y.data()));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Dot)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_Axpy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto x = random_vec(static_cast<std::size_t>(n), 1);
  auto y = random_vec(static_cast<std::size_t>(n), 2);
  for (auto _ : state) {
    blas::axpy(n, 1.000001, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Axpy)->Arg(1 << 16)->Arg(1 << 20);

void BM_GemvT_TallSkinny(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const auto a = random_vec(static_cast<std::size_t>(n) * k, 3);
  const auto x = random_vec(static_cast<std::size_t>(n), 4);
  std::vector<double> y(static_cast<std::size_t>(k));
  for (auto _ : state) {
    blas::gemv_t(n, k, 1.0, a.data(), n, x.data(), 0.0, y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n * k * 2);
}
// k = 120: the CGS/BOrth projection against a full CA-GMRES(15,120) basis.
BENCHMARK(BM_GemvT_TallSkinny)
    ->Args({1 << 14, 30})
    ->Args({1 << 18, 30})
    ->Args({2667, 120});

// The BOrth projection V^T W (Trans::T x Trans::N) on one device of an
// 8k-row system split over 3 GPUs: 2667 rows, an m-column basis against a
// 15-column block. Items are flops.
void BM_GemmTN_BorthShape(benchmark::State& state) {
  const int rows = 2667, m = static_cast<int>(state.range(0)), n = 15;
  const auto v = random_vec(static_cast<std::size_t>(rows) * m, 9);
  const auto w = random_vec(static_cast<std::size_t>(rows) * n, 10);
  std::vector<double> c(static_cast<std::size_t>(m) * n);
  for (auto _ : state) {
    blas::gemm(blas::Trans::T, blas::Trans::N, m, n, rows, 1.0, v.data(), rows,
               w.data(), rows, 0.0, c.data(), m);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2ll * rows * m * n);
}
BENCHMARK(BM_GemmTN_BorthShape)->Arg(16)->Arg(61)->Arg(106);

// The BOrth panel update V_new -= Q C (Trans::N x Trans::N) on the same
// device block: 2667 rows, a 16-column block against an m-column basis.
// Items are flops.
void BM_GemmNN_PanelUpdate(benchmark::State& state) {
  const int rows = 2667, n = 16, k = static_cast<int>(state.range(0));
  const auto q = random_vec(static_cast<std::size_t>(rows) * k, 11);
  const auto c = random_vec(static_cast<std::size_t>(k) * n, 12);
  auto v = random_vec(static_cast<std::size_t>(rows) * n, 13);
  for (auto _ : state) {
    blas::gemm(blas::Trans::N, blas::Trans::N, rows, n, k, -1.0, q.data(),
               rows, c.data(), k, 1.0, v.data(), rows);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * 2ll * rows * n * k);
}
BENCHMARK(BM_GemmNN_PanelUpdate)->Arg(15)->Arg(61)->Arg(106);

// The CholQR solve Q = V R^{-1} on one device block: 2667 x 16. R has a
// diagonal in [1, 2], and V is restored every 8 solves (an amortized 1/8
// copy per solve) so that repeated solves never reach subnormals. Items
// are flops.
void BM_Trsm_CholQr(benchmark::State& state) {
  const int rows = 2667, n = 16;
  const auto v0 = random_vec(static_cast<std::size_t>(rows) * n, 14);
  auto r = random_vec(static_cast<std::size_t>(n) * n, 15);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      double& e = r[static_cast<std::size_t>(j) * n + i];
      e = i < j ? 0.1 * e : i == j ? 1.5 + 0.25 * std::tanh(e) : 0.0;
    }
  }
  auto v = v0;
  int solves = 0;
  for (auto _ : state) {
    if (++solves % 8 == 0) v = v0;
    blas::trsm_right_upper(rows, n, r.data(), n, v.data(), rows);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * 1ll * rows * n * n);
}
BENCHMARK(BM_Trsm_CholQr);

void BM_Gram_TallSkinny(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = 30;
  const auto a = random_vec(static_cast<std::size_t>(n) * k, 5);
  std::vector<double> c(static_cast<std::size_t>(k) * k);
  for (auto _ : state) {
    blas::syrk_tn(n, k, a.data(), n, c.data(), k);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * k * k);
}
BENCHMARK(BM_Gram_TallSkinny)->Arg(1 << 14)->Arg(1 << 18);

void BM_PanelQr(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = 30;
  Rng rng(6);
  blas::DMat v(n, k);
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < n; ++i) v(i, j) = rng.normal();
  }
  blas::DMat q, r;
  for (auto _ : state) {
    blas::qr_explicit(v, q, r);
    benchmark::DoNotOptimize(q.data());
  }
  state.SetItemsProcessed(state.iterations() * 4ll * n * k * k);
}
BENCHMARK(BM_PanelQr)->Arg(1 << 12)->Arg(1 << 15);

void BM_SpmvCsr(benchmark::State& state) {
  const auto a = sparse::make_laplace3d(40, 40, static_cast<int>(state.range(0)));
  const auto x = random_vec(static_cast<std::size_t>(a.n_rows), 7);
  std::vector<double> y(static_cast<std::size_t>(a.n_rows));
  for (auto _ : state) {
    sparse::spmv(a, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SpmvCsr)->Arg(10)->Arg(40);

/// The perfbench workloads' prepared problems and MPK depths: kkt_ca_m120
/// (3 devices, s = 15), cant_ilu0_gmres (3 devices, natural order, s = 1),
/// g3_ca_4x4_faults (16 devices on 4 nodes, k-way, s = 15) and g3 after its
/// node kill (the same problem re-split over 12 devices).
struct Workload {
  core::Problem p;
  int s;
};

const Workload& workload(int which) {
  static const std::array<Workload, 4> loads = [] {
    struct Shape {
      const char* matrix;
      double scale;
      int ng, nodes, s;
      graph::Ordering ordering;
    };
    const Shape shapes[] = {
        {"nlpkkt", 0.35, 3, 1, 15, graph::Ordering::kKway},
        {"cant", 0.4, 3, 1, 1, graph::Ordering::kNatural},
        {"g3_circuit", 0.2, 16, 4, 15, graph::Ordering::kKway},
    };
    std::array<Workload, 4> out;
    for (int i = 0; i < 3; ++i) {
      const Shape& sh = shapes[i];
      const auto a = sparse::make_paper_matrix(sh.matrix, sh.scale);
      const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
      out[static_cast<std::size_t>(i)] = {
          core::make_problem(a, b, sh.ng, sh.ordering, true, 7, sh.nodes),
          sh.s};
    }
    out[3] = {core::repartition_problem(out[2].p, 12), 15};
    return out;
  }();
  return loads[static_cast<std::size_t>(which)];
}

/// Device 0's owned-row ELL block under the perfbench workloads' plans:
/// kkt (2665 rows x width 10), cant (1320 x 27) and g3 (254 x 8).
const sparse::EllMatrix& workload_block(int which) {
  static const std::array<sparse::EllMatrix, 3> blocks = [] {
    std::array<sparse::EllMatrix, 3> out;
    for (int i = 0; i < 3; ++i) {
      const Workload& w = workload(i);
      out[static_cast<std::size_t>(i)] =
          mpk::build_mpk_plan(w.p.a, w.p.offsets, w.s).dev[0].local_ell;
    }
    return out;
  }();
  return blocks[static_cast<std::size_t>(which)];
}

const char* const kWorkloadNames[] = {"kkt", "cant", "g3", "g3-kill"};

/// Input vector for a block: owned rows plus every column it reads.
std::vector<double> block_input(const sparse::EllMatrix& e,
                                std::uint64_t seed) {
  int cols = e.n_rows;
  for (const int c : e.col_idx) cols = std::max(cols, c + 1);
  return random_vec(static_cast<std::size_t>(cols), seed);
}

// Args: workload block (0 kkt, 1 cant, 2 g3), build index in
// sparse::detail::variants() (skipped when this CPU lacks it). Items are
// stored slots, padding included.
void BM_SpmvEll(benchmark::State& state) {
  const auto& variants = sparse::detail::variants();
  const auto v = static_cast<std::size_t>(state.range(1));
  if (v >= variants.size()) {
    state.SkipWithError("build not supported on this CPU");
    return;
  }
  const sparse::EllMatrix& e =
      workload_block(static_cast<int>(state.range(0)));
  const auto x = block_input(e, 8);
  std::vector<double> y(static_cast<std::size_t>(e.n_rows));
  for (auto _ : state) {
    variants[v].spmv(e, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::string(kWorkloadNames[state.range(0)]) + " " +
                 variants[v].isa + " n=" + std::to_string(e.n_rows) +
                 " w=" + std::to_string(e.width));
  state.SetItemsProcessed(state.iterations() * e.stored_slots());
}
BENCHMARK(BM_SpmvEll)->ArgsProduct({{0, 1, 2}, {0, 1}});

// One real-Newton matrix powers step on a workload block with the widest
// build: the fused kernel (arg 1 = 0) against the three passes it replaced
// (arg 1 = 1): SpMV, then the shift, then the copy into the basis with the
// finiteness check. Items are stored slots.
void BM_MpkStep(benchmark::State& state) {
  const sparse::EllMatrix& e =
      workload_block(static_cast<int>(state.range(0)));
  const bool fused = state.range(1) == 0;
  const auto x = block_input(e, 9);
  const sparse::StepShift sh{0.75, false, 0.0};
  const int n = e.n_rows;
  std::vector<double> z(static_cast<std::size_t>(n)), out(z.size());
  for (auto _ : state) {
    bool ok = true;
    if (fused) {
      ok = sparse::mpk_step(e, x.data(), nullptr, sh, z.data(), out.data());
    } else {
      sparse::spmv(e, x.data(), z.data());
      for (int i = 0; i < n; ++i) z[i] -= sh.theta * x[i];
      for (int i = 0; i < n; ++i) {
        out[i] = z[i];
        ok &= std::isfinite(z[i]);
      }
    }
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::string(kWorkloadNames[state.range(0)]) +
                 (fused ? " fused" : " three-pass"));
  state.SetItemsProcessed(state.iterations() * e.stored_slots());
}
BENCHMARK(BM_MpkStep)->ArgsProduct({{0, 1, 2}, {0, 1}});

// The matrix powers plan a solve builds before its first iteration (and
// again after a repartition). Args: workload (0 kkt, 1 cant, 2 g3, 3 g3
// re-split over 12 devices), s. Items are nonzeros of the matrix.
void BM_BuildMpkPlan(benchmark::State& state) {
  const Workload& w = workload(static_cast<int>(state.range(0)));
  const int s = static_cast<int>(state.range(1));
  std::int64_t ext = 0;
  for (auto _ : state) {
    const mpk::MpkPlan plan = mpk::build_mpk_plan(w.p.a, w.p.offsets, s);
    ext = plan.stats.scatter_volume();
    benchmark::DoNotOptimize(ext);
  }
  state.SetLabel(std::string(kWorkloadNames[state.range(0)]) + " ng=" +
                 std::to_string(w.p.n_devices()) + " s=" + std::to_string(s) +
                 " ext=" + std::to_string(ext));
  state.SetItemsProcessed(state.iterations() * w.p.a.nnz());
}
BENCHMARK(BM_BuildMpkPlan)
    ->Args({0, 15})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({2, 15})
    ->Args({2, 1})
    ->Args({3, 15})
    ->Args({3, 1})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
