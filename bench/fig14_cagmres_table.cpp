// Reproduces paper Fig. 14 — the headline table: CA-GMRES vs GMRES on
// 1-3 simulated GPUs for the cant, G3_circuit, and dielFilterV2real
// analogs, with per-restart phase times.
//
// Columns mirror the paper: restart count, average orthogonalization time
// per restart loop (with the TSQR share), average SpMV/MPK time per restart
// and total time per restart. Restarts are not all the same length (the
// Newton basis's shift harvest is an s-step first restart), so the table
// adds the total charged time to solution, and CA-GMRES's speedup over
// GMRES(CGS) on the same number of GPUs is the ratio of those totals, shown
// only when both solves converged. Expected shape: MGS >> CGS for GMRES Orth;
// CA-GMRES(1,m) slower than GMRES; CA-GMRES(s=15) with CholQR fastest,
// with speedups in the 1.3-2x band that shrink as GPUs are added.
#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "core/cagmres.hpp"
#include "core/gmres.hpp"
#include "sim/machine.hpp"

using namespace cagmres;

namespace {

std::string per_restart(double t, int restarts) {
  return restarts > 0 ? bench::ms(t / restarts) : "-";
}

void run_matrix(const std::string& name, double scale, int s_ca, double tol,
                std::uint64_t seed, int max_restarts) {
  const sparse::CsrMatrix a = sparse::make_paper_matrix(name, scale);
  const int m = bench::default_m(name);
  const std::string oname = bench::default_ordering(name);
  bench::print_header("Fig 14 — " + name + " (" + oname + " ordering, m=" +
                          std::to_string(m) + ")",
                      a);

  const std::vector<double> b = bench::make_rhs(a.n_rows, seed);

  Table table({"solver", "ortho", "ng", "rest", "Ortho/Res", "(TSQR)",
               "SpMV|MPK/Res", "Total/Res", "Total", "SpdUp"});

  // GMRES(CGS) stats per ng: the speedup baselines.
  std::map<int, core::SolveStats> gmres_cgs;

  auto add_gmres = [&](ortho::Method orth, int ng) {
    const core::Problem p = core::make_problem(
        a, b, ng, graph::parse_ordering(oname), true, 7);
    sim::Machine machine(ng);
    core::SolverOptions opts;
    opts.m = m;
    opts.tol = tol;
    opts.max_restarts = max_restarts;
    opts.gmres_orth = orth;
    const core::SolveResult res = core::gmres(machine, p, opts);
    const auto& st = res.stats;
    if (orth == ortho::Method::kCgs) gmres_cgs[ng] = st;
    table.add_row({"GMRES(" + std::to_string(m) + ")",
                   ortho::to_string(orth), std::to_string(ng),
                   std::to_string(st.restarts) + (st.converged ? "" : "+"),
                   per_restart(st.time_ortho_total(), st.restarts), "-",
                   per_restart(st.time_spmv, st.restarts),
                   per_restart(st.time_total, st.restarts),
                   bench::ms(st.time_total), st.converged ? "" : "(nc)"});
  };

  auto add_ca = [&](int s, ortho::Method tsqr, bool reorth, int ng) {
    const core::Problem p = core::make_problem(
        a, b, ng, graph::parse_ordering(oname), true, 7);
    sim::Machine machine(ng);
    core::SolverOptions opts;
    opts.m = m;
    opts.s = s;
    opts.tol = tol;
    opts.max_restarts = max_restarts;
    opts.tsqr = tsqr;
    opts.reorthogonalize = reorth;
    const core::SolveResult res = core::ca_gmres(machine, p, opts);
    const auto& st = res.stats;
    const auto it = gmres_cgs.find(ng);
    const std::string speedup = bench::speedup_to_solution(
        it != gmres_cgs.end() ? &it->second : nullptr, st);
    const std::string label = (reorth ? "2x " : "") + ortho::to_string(tsqr);
    table.add_row({"CA-GMRES(" + std::to_string(s) + "," + std::to_string(m) +
                       ")",
                   label, std::to_string(ng),
                   std::to_string(st.restarts) + (st.converged ? "" : "+"),
                   per_restart(st.time_ortho_total(), st.restarts),
                   per_restart(st.time_tsqr, st.restarts),
                   per_restart(st.time_spmv + st.time_mpk, st.restarts),
                   per_restart(st.time_total, st.restarts),
                   bench::ms(st.time_total), speedup});
  };

  add_gmres(ortho::Method::kMgs, 1);
  add_gmres(ortho::Method::kCgs, 1);
  add_gmres(ortho::Method::kCgs, 2);
  add_gmres(ortho::Method::kCgs, 3);
  table.add_separator();
  add_ca(1, ortho::Method::kCholQr, false, 1);
  table.add_separator();
  add_ca(s_ca, ortho::Method::kCgs, true, 1);
  add_ca(s_ca, ortho::Method::kCholQr, true, 1);
  add_ca(s_ca, ortho::Method::kCholQr, true, 2);
  add_ca(s_ca, ortho::Method::kCholQr, true, 3);
  std::printf("%s\n", table.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(
      "fig14_cagmres_table — paper Fig. 14: CA-GMRES vs GMRES per-restart "
      "times and speedups on 1-3 simulated GPUs");
  opts.add("scale", "1.0", "matrix scale factor");
  opts.add("s", "15", "CA-GMRES block size (paper: 15)");
  opts.add("tol", "1e-4", "relative residual tolerance (paper: 4 orders)");
  opts.add("seed", "1234", "rhs seed");
  opts.add("max_restarts", "40",
           "restart cap; every default row converges under it, and SpdUp "
           "compares times to solution of converged rows only");
  opts.add("matrices", "cant,g3_circuit,dielfilter",
           "comma-separated matrix list");
  if (!opts.parse(argc, argv)) return 0;

  std::string list = opts.get("matrices");
  std::size_t pos = 0;
  while (pos != std::string::npos) {
    const std::size_t comma = list.find(',', pos);
    const std::string name = list.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!name.empty()) {
      run_matrix(name, opts.get_double("scale"), opts.get_int("s"),
                 opts.get_double("tol"),
                 static_cast<std::uint64_t>(opts.get_int("seed")),
                 opts.get_int("max_restarts"));
    }
    pos = (comma == std::string::npos) ? std::string::npos : comma + 1;
  }
  return 0;
}
