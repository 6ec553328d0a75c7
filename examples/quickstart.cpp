// Quickstart: build a sparse system, solve it with CA-GMRES on a simulated
// 3-GPU machine, and inspect the solution and telemetry.
//
//   $ ./quickstart
//
// This walks through the library's whole public surface in ~60 lines:
// generator -> problem preparation (partitioning + balancing) -> solver ->
// solution recovery -> phase timings.
#include <cstdio>

#include "core/cagmres.hpp"
#include "core/solver_common.hpp"
#include "sim/machine.hpp"
#include "sparse/generators.hpp"
#include "sparse/stats.hpp"

int main() {
  using namespace cagmres;

  // 1. A nonsymmetric convection-diffusion operator on a 200x200 grid.
  const sparse::CsrMatrix a = sparse::make_laplace2d(200, 200,
                                                     /*convection=*/0.3,
                                                     /*shift=*/0.05);
  std::printf("matrix: %s\n", to_string(sparse::compute_stats(a)).c_str());

  // 2. A right-hand side (here: the vector of ones).
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);

  // 3. Prepare the distributed problem: k-way partitioning across 3 devices
  //    plus the paper's row/column balancing.
  const int n_gpus = 3;
  const core::Problem problem =
      core::make_problem(a, b, n_gpus, graph::Ordering::kKway);

  // 4. Solve with CA-GMRES(10, 60): Newton basis, CholQR TSQR, automatic
  //    reorthogonalization on Cholesky breakdown — all defaults.
  sim::Machine machine(n_gpus);
  core::SolverOptions opts;
  opts.m = 60;
  opts.s = 10;
  opts.tol = 1e-8;
  // The fp32 halo codec (CAGMRES_COMPRESS, DESIGN.md §14) carries the halo
  // exchange in single precision: the attainable residual is then capped
  // near it, so ask only for codec grade.
  if (sim::env_config().halo_codec != sim::Codec::kNone) opts.tol = 1e-6;
  const core::SolveResult result = core::ca_gmres(machine, problem, opts);

  // 5. result.x is in the ORIGINAL row ordering and scaling.
  const auto& st = result.stats;
  std::printf("converged: %s in %d restarts (%d basis vectors)\n",
              st.converged ? "yes" : "no", st.restarts, st.iterations);
  std::printf("residual: %.2e -> %.2e\n", st.initial_residual,
              st.final_residual);
  std::printf("exact check ||b - A x|| = %.2e\n",
              core::true_residual(a, b, result.x));

  // 6. Where did the (simulated) time go?
  std::printf("\nsimulated time on %d GPUs: %.1f ms\n", n_gpus,
              st.time_total * 1e3);
  std::printf("  matrix powers kernel: %.1f ms\n", st.time_mpk * 1e3);
  std::printf("  block orthogonalization: %.1f ms\n", st.time_borth * 1e3);
  std::printf("  TSQR: %.1f ms\n", st.time_tsqr * 1e3);
  std::printf("  SpMV (first restart + residuals): %.1f ms\n",
              st.time_spmv * 1e3);
  std::printf("  other (least squares, checks): %.1f ms\n",
              st.time_other * 1e3);
  return st.converged ? 0 : 1;
}
