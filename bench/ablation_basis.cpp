// Ablation: monomial vs Newton(+Leja) basis conditioning (paper §IV-A's
// stability discussion). For growing s, reports the condition number of the
// generated MPK block (before orthogonalization) under both bases, and
// whether CA-GMRES converges.
//
// Expected shape: the monomial basis's kappa grows exponentially in s and
// CholQR starts breaking down / needing reorthogonalization; Newton+Leja
// keeps kappa orders of magnitude lower and convergence intact.
#include <cstdio>

#include "bench_common.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "core/cagmres.hpp"
#include "sim/machine.hpp"

using namespace cagmres;

int main(int argc, char** argv) {
  Options opts(
      "ablation_basis — monomial vs Newton basis: block conditioning and "
      "CA-GMRES robustness vs s");
  bench::add_matrix_options(opts, "g3_circuit", "0.5");
  opts.add("m", "30", "restart length");
  opts.add("s", "5,10,15,20,25,30", "block sizes to sweep");
  opts.add("restarts", "40", "restart cap per run");
  if (!opts.parse(argc, argv)) return 0;

  const sparse::CsrMatrix a = bench::load_matrix(opts);
  bench::print_header("Ablation — basis conditioning: " + opts.get("matrix"),
                      a);
  const std::vector<double> b = bench::make_rhs(
      a.n_rows, static_cast<std::uint64_t>(opts.get_int("seed")));
  const core::Problem p =
      core::make_problem(a, b, 1, graph::Ordering::kKway, true, 7);

  Table table({"s", "basis", "kappa(block) avg", "kappa max", "breakdowns",
               "reorth blocks", "restarts", "converged"});
  for (const int s : opts.get_int_list("s")) {
    for (const core::Basis basis : {core::Basis::kMonomial,
                                    core::Basis::kNewton}) {
      sim::Machine machine(1);
      core::SolverOptions so;
      so.m = opts.get_int("m");
      so.s = s;
      so.basis = basis;
      so.max_restarts = opts.get_int("restarts");
      so.collect_tsqr_errors = true;
      so.tsqr = ortho::Method::kCholQr;
      core::SolveStats st;
      std::string conv = "?";
      try {
        st = core::ca_gmres(machine, p, so).stats;
        conv = st.converged ? "yes" : "no";
      } catch (const Error&) {
        conv = "FAIL";
      }
      double sum = 0.0, mx = 0.0;
      int cnt = 0;
      for (const auto& e : st.tsqr_errors) {
        if (e.pass != 0) continue;
        sum += e.kappa_block;
        mx = std::max(mx, e.kappa_block);
        ++cnt;
      }
      char avg[24], mxs[24];
      std::snprintf(avg, sizeof avg, "%.1e", cnt ? sum / cnt : 0.0);
      std::snprintf(mxs, sizeof mxs, "%.1e", mx);
      table.add_row({std::to_string(s), core::to_string(basis), avg, mxs,
                     std::to_string(st.cholqr_breakdowns),
                     std::to_string(st.reorth_blocks),
                     std::to_string(st.restarts), conv});
    }
    table.add_separator();
  }
  std::printf("%s\n", table.str().c_str());
  return 0;
}
