// Command-line solver: read a MatrixMarket system, solve it with GMRES or
// CA-GMRES on the simulated multi-GPU machine, report everything.
//
//   $ ./solve_mtx --matrix A.mtx [--rhs b.mtx] --solver ca --s 10 --m 60
//
// This is the downstream-user entry point: drop in the paper's real
// SuiteSparse matrices (cant.mtx, G3_circuit.mtx, ...) and reproduce its
// experiments on the authentic data.
#include <cstdio>

#include "blas/blas1.hpp"
#include "common/options.hpp"
#include "core/cagmres.hpp"
#include "core/cpu_gmres.hpp"
#include "core/gmres.hpp"
#include "precond/precond.hpp"
#include "sparse/generators.hpp"
#include "sparse/io.hpp"
#include "sparse/stats.hpp"

int main(int argc, char** argv) {
  using namespace cagmres;
  Options opts("solve_mtx — solve a MatrixMarket system with (CA-)GMRES");
  opts.add("matrix", "", "path to the .mtx file, or a generator name "
                         "(cant|g3_circuit|dielfilter|nlpkkt)");
  opts.add("scale", "1.0", "generator scale (ignored for .mtx files)");
  opts.add("rhs", "", "path to a rhs vector file (default: A * ones)");
  opts.add("solver", "ca", "ca | gmres | cpu");
  opts.add("m", "60", "restart length");
  opts.add("s", "10", "CA-GMRES block size");
  opts.add("ng", "3", "simulated GPUs");
  opts.add("ordering", "kway", "row distribution: natural | rcm | kway");
  opts.add("tsqr", "cholqr", "mgs|cgs|cholqr|svqr|caqr|cholqr_mp");
  opts.add("basis", "newton", "newton | monomial");
  opts.add("reorth", "0", "always reorthogonalize blocks (the paper's 2x)");
  opts.add("balance", "1", "row/column equilibration before solving");
  opts.add("precond", "",
           "right-preconditioner spec for ca|gmres: ilu (block ILU(0)) "
           "(empty or \"none\" = off)");
  opts.add("tol", "1e-8", "relative residual tolerance");
  opts.add("max_restarts", "1000", "restart cap");
  opts.add("solution", "", "optional path to write x (MatrixMarket array)");
  if (!opts.parse(argc, argv)) return 0;

  if (opts.get("matrix").empty()) {
    std::printf("%s", opts.help().c_str());
    return 1;
  }
  const std::string mname = opts.get("matrix");
  sparse::CsrMatrix a;
  if (mname.size() > 4 && mname.substr(mname.size() - 4) == ".mtx") {
    a = sparse::read_matrix_market(mname);
  } else {
    a = sparse::make_paper_matrix(mname, opts.get_double("scale"));
  }
  std::printf("matrix: %s\n", to_string(sparse::compute_stats(a)).c_str());

  std::vector<double> b;
  if (!opts.get("rhs").empty()) {
    b = sparse::read_vector(opts.get("rhs"));
    CAGMRES_REQUIRE(static_cast<int>(b.size()) == a.n_rows,
                    "rhs length does not match the matrix");
  } else {
    const std::vector<double> ones(static_cast<std::size_t>(a.n_rows), 1.0);
    b.assign(static_cast<std::size_t>(a.n_rows), 0.0);
    sparse::spmv(a, ones.data(), b.data());
  }

  const int ng = opts.get_int("ng");
  const core::Problem p = core::make_problem(
      a, b, ng, graph::parse_ordering(opts.get("ordering")),
      opts.get_bool("balance"), 7);

  core::SolverOptions so;
  so.m = opts.get_int("m");
  so.s = opts.get_int("s");
  so.tol = opts.get_double("tol");
  so.max_restarts = opts.get_int("max_restarts");
  so.tsqr = ortho::parse_method(opts.get("tsqr"));
  so.basis = core::parse_basis(opts.get("basis"));
  so.reorthogonalize = opts.get_bool("reorth");

  const std::string solver = opts.get("solver");
  const precond::PrecondSpec pspec =
      precond::parse_precond_spec(opts.get("precond"));
  CAGMRES_REQUIRE(!pspec.armed() || solver != "cpu",
                  "--precond needs --solver ca|gmres");
  precond::PrecondHandle handle(pspec);
  if (pspec.armed()) so.precond = &handle;

  sim::Machine machine(ng);
  core::SolveResult res;
  if (solver == "ca") {
    res = core::ca_gmres(machine, p, so);
  } else if (solver == "gmres") {
    res = core::gmres(machine, p, so);
  } else if (solver == "cpu") {
    res = core::cpu_gmres(machine, p, so);
  } else {
    throw Error("unknown solver: " + solver + " (expected ca|gmres|cpu)");
  }

  const auto& st = res.stats;
  std::printf("%s: %s in %d restarts / %d iterations\n", solver.c_str(),
              st.converged ? "converged" : "NOT converged", st.restarts,
              st.iterations);
  std::printf("residual (prepared system): %.3e -> %.3e\n",
              st.initial_residual, st.final_residual);
  std::printf("exact residual ||b - A x|| / ||b|| = %.3e\n",
              core::true_residual(a, b, res.x) /
                  blas::nrm2(a.n_rows, b.data()));
  std::printf("simulated time: %.2f ms  (SpMV %.2f | MPK %.2f | Orth %.2f | "
              "BOrth %.2f | TSQR %.2f | other %.2f)\n",
              st.time_total * 1e3, st.time_spmv * 1e3, st.time_mpk * 1e3,
              st.time_orth * 1e3, st.time_borth * 1e3, st.time_tsqr * 1e3,
              st.time_other * 1e3);
  if (pspec.armed()) {
    const auto& ps = handle.stats();
    std::printf("precond %s: fill %lld nnz, %d+%d levels (L+U), "
                "setup %.2f ms\n",
                pspec.to_string().c_str(), static_cast<long long>(ps.fill_nnz),
                ps.max_levels_l, ps.max_levels_u, ps.setup_seconds * 1e3);
  }
  if (st.cholqr_breakdowns > 0) {
    std::printf("CholQR breakdowns: %d (reorthogonalized %d blocks)\n",
                st.cholqr_breakdowns, st.reorth_blocks);
  }
  if (!opts.get("solution").empty()) {
    sparse::write_vector(res.x, opts.get("solution"));
    std::printf("solution written to %s\n", opts.get("solution").c_str());
  }
  return st.converged ? 0 : 2;
}
