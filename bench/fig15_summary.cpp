// Reproduces paper Fig. 15: time per restart loop of GMRES and CA-GMRES,
// normalized to GMRES on one GPU, for all four matrices (including the
// nlpkkt analog with s = 10), broken into Orth / SpMV-MPK / rest.
//
// Per the paper's caption, CA-GMRES uses SpMV instead of MPK when SpMV is
// faster (we pick by a simulated dry run). Expected shape: bars shrink with
// more GPUs; the CA-GMRES bar beats the same-ng GMRES bar by 1.3-2x, with
// the Orth segment providing most of the saving. Restarts are not all the
// same length (the Newton shift harvest is an s-step first restart), so
// the table adds the charged time to solution (Total), and the speedup
// over GMRES on the same number of GPUs is the ratio of those totals, shown
// only when both solves converged.
#include <cstdio>

#include "bench_common.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "core/cagmres.hpp"
#include "core/gmres.hpp"
#include "mpk/exec.hpp"
#include "sim/machine.hpp"

using namespace cagmres;

namespace {

/// Simulated dry-run: is one MPK(s) call faster than s SpMVs? (Fig. 15
/// caption: "if SpMV is faster than MPK, then CA-GMRES uses SpMV".)
bool mpk_wins(const core::Problem& p, int s, int ng) {
  const mpk::MpkPlan plan_s = mpk::build_mpk_plan(p.a, p.offsets, s);
  const mpk::MpkPlan plan_1 = mpk::build_mpk_plan(p.a, p.offsets, 1);
  mpk::MpkExecutor mexec(plan_s);
  mpk::MpkExecutor sexec(plan_1);
  sim::DistMultiVec v(plan_s.rows_per_device(), s + 1);
  for (int d = 0; d < ng; ++d) {
    for (int i = 0; i < v.local_rows(d); ++i) v.col(d, 0)[i] = 1.0;
  }
  sim::Machine m1(ng), m2(ng);
  mexec.apply(m1, v, 0, s);
  m1.sync_all();
  for (int k = 0; k < s; ++k) sexec.spmv(m2, v, 0, 1);
  m2.sync_all();
  return m1.clock().elapsed() < m2.clock().elapsed();
}

void run_matrix(const std::string& name, double scale, int s, double tol,
                std::uint64_t seed, int max_restarts) {
  const sparse::CsrMatrix a = sparse::make_paper_matrix(name, scale);
  const int m = bench::default_m(name);
  const std::string oname = bench::default_ordering(name);
  bench::print_header("Fig 15 — " + name + " (m=" + std::to_string(m) +
                          ", s=" + std::to_string(s) + ")",
                      a);
  const std::vector<double> b = bench::make_rhs(a.n_rows, seed);

  Table table({"solver", "ng", "rest", "Orth", "SpMV/MPK", "rest(other)",
               "Total (norm.)", "Total", "SpdUp vs GMRES"});
  double norm_base = 0.0;
  std::vector<core::SolveStats> gmres_stats(4);

  for (int ng = 1; ng <= 3; ++ng) {
    const core::Problem p = core::make_problem(
        a, b, ng, graph::parse_ordering(oname), true, 7);
    core::SolverOptions opts;
    opts.m = m;
    opts.tol = tol;
    opts.max_restarts = max_restarts;
    sim::Machine machine(ng);
    const core::SolveResult res = core::gmres(machine, p, opts);
    const auto& st = res.stats;
    const double per = st.restarts ? st.time_total / st.restarts : 0.0;
    if (ng == 1) norm_base = per;
    gmres_stats[static_cast<std::size_t>(ng)] = st;
    table.add_row(
        {"GMRES", std::to_string(ng), std::to_string(st.restarts),
         Table::fmt(st.restarts ? st.time_ortho_total() / st.restarts / norm_base : 0, 2),
         Table::fmt(st.restarts ? st.time_spmv / st.restarts / norm_base : 0, 2),
         Table::fmt(st.restarts ? st.time_other / st.restarts / norm_base : 0, 2),
         Table::fmt(per / norm_base, 2), bench::ms(st.time_total),
         st.converged ? "" : "(nc)"});
  }
  table.add_separator();
  for (int ng = 1; ng <= 3; ++ng) {
    const core::Problem p = core::make_problem(
        a, b, ng, graph::parse_ordering(oname), true, 7);
    core::SolverOptions opts;
    opts.m = m;
    opts.s = s;
    opts.tol = tol;
    opts.max_restarts = max_restarts;
    opts.reorthogonalize = true;
    opts.use_mpk = mpk_wins(p, s, ng);
    sim::Machine machine(ng);
    const core::SolveResult res = core::ca_gmres(machine, p, opts);
    const auto& st = res.stats;
    const double per = st.restarts ? st.time_total / st.restarts : 0.0;
    table.add_row(
        {std::string("CA-GMRES") + (opts.use_mpk ? " (MPK)" : " (SpMV)"),
         std::to_string(ng), std::to_string(st.restarts),
         Table::fmt(st.restarts ? st.time_ortho_total() / st.restarts / norm_base : 0, 2),
         Table::fmt(st.restarts ? (st.time_spmv + st.time_mpk) / st.restarts / norm_base : 0, 2),
         Table::fmt(st.restarts ? st.time_other / st.restarts / norm_base : 0, 2),
         Table::fmt(per / norm_base, 2), bench::ms(st.time_total),
         bench::speedup_to_solution(
             &gmres_stats[static_cast<std::size_t>(ng)], st)});
  }
  std::printf("times normalized to GMRES on 1 GPU (=1.00)\n%s\n",
              table.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(
      "fig15_summary — paper Fig. 15: normalized time per restart loop, "
      "GMRES vs CA-GMRES(s=10), all four matrices");
  opts.add("scale", "1.0", "matrix scale for cant/g3/diel");
  opts.add("kkt_scale", "0.5", "matrix scale for the nlpkkt analog");
  opts.add("s", "10", "CA-GMRES block size (paper Fig. 15: 10)");
  opts.add("tol", "1e-4", "relative residual tolerance");
  opts.add("seed", "1234", "rhs seed");
  opts.add("max_restarts", "40",
           "restart cap; every default row converges under it, and SpdUp "
           "compares times to solution of converged rows only");
  if (!opts.parse(argc, argv)) return 0;

  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed"));
  run_matrix("cant", opts.get_double("scale"), opts.get_int("s"),
             opts.get_double("tol"), seed, opts.get_int("max_restarts"));
  run_matrix("g3_circuit", opts.get_double("scale"), opts.get_int("s"),
             opts.get_double("tol"), seed, opts.get_int("max_restarts"));
  run_matrix("dielfilter", opts.get_double("scale"), opts.get_int("s"),
             opts.get_double("tol"), seed, opts.get_int("max_restarts"));
  run_matrix("nlpkkt", opts.get_double("kkt_scale"), opts.get_int("s"),
             opts.get_double("tol"), seed, opts.get_int("max_restarts"));
  return 0;
}
