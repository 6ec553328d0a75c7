// Extension experiment (paper §VII's named future work): project CA-GMRES
// vs GMRES onto GPUs spread across multiple compute nodes, on the shared
// Machine::set_topology tier model (peer links inside a node, PCIe to the
// host, an InfiniBand-class hop for anything that crosses nodes) — the
// same machine scale_sweep and the solvers charge, so the numbers compose.
//
// Expected shape: as communication gets more expensive, the CA-GMRES
// advantage GROWS — the latency terms it eliminates (per-iteration
// reductions, per-SpMV halo exchanges) are exactly the ones the network
// amplifies. On the multi-node shapes the collectives fold through a node
// leader, so each reduction sends at most one inter-node message per node.
#include <cstdio>

#include "bench_common.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "core/cagmres.hpp"
#include "core/gmres.hpp"
#include "sim/machine.hpp"

using namespace cagmres;

int main(int argc, char** argv) {
  Options opts(
      "ext_multinode — CA-GMRES vs GMRES when the GPUs sit on multiple "
      "compute nodes (shared Machine topology tiers)");
  bench::add_matrix_options(opts, "cant");
  opts.add("s", "15", "CA-GMRES block size");
  opts.add("tol", "1e-4", "relative residual tolerance");
  opts.add("max_restarts", "6", "restart cap for the timing runs");
  if (!opts.parse(argc, argv)) return 0;

  const sparse::CsrMatrix a = bench::load_matrix(opts);
  const std::string name = opts.get("matrix");
  const int m = bench::default_m(name);
  bench::print_header("Extension — multi-node projection: " + name, a);

  const std::vector<double> b = bench::make_rhs(
      a.n_rows, static_cast<std::uint64_t>(opts.get_int("seed")));

  Table table({"topology", "ng", "solver", "peer KB", "net KB", "net msgs",
               "Ortho/Res", "SpMV|MPK/Res", "Total/Res", "CA speedup"});

  struct Topo {
    const char* label;
    sim::Topology t;
  };
  const Topo topologies[] = {
      {"1 node x 3 GPUs", {1, 3}},
      {"2 nodes x 3 GPUs", {2, 3}},
      {"4 nodes x 3 GPUs", {4, 3}},
  };

  for (const Topo& tp : topologies) {
    const int ng = tp.t.n_devices();
    // Node-first KWY split so halo edges concentrate inside nodes.
    const core::Problem p = core::make_problem(
        a, b, ng, graph::parse_ordering(bench::default_ordering(name)), true,
        7, tp.t.n_nodes);
    core::SolverOptions so;
    so.m = m;
    so.tol = opts.get_double("tol");
    so.max_restarts = opts.get_int("max_restarts");

    sim::Machine mg(tp.t);
    const auto rg = core::gmres(mg, p, so).stats;
    const double gper = rg.restarts ? rg.time_total / rg.restarts : 0.0;
    table.add_row(
        {tp.label, std::to_string(ng), "GMRES",
         Table::fmt(rg.traffic.peer_bytes / 1024.0, 1),
         Table::fmt(rg.traffic.net_bytes / 1024.0, 1),
         Table::fmt_int(rg.traffic.net_msgs),
         bench::ms(rg.restarts ? rg.time_ortho_total() / rg.restarts : 0),
         bench::ms(rg.restarts ? rg.time_spmv / rg.restarts : 0),
         bench::ms(gper), "1.00"});

    so.s = opts.get_int("s");
    so.reorthogonalize = true;
    sim::Machine mc(tp.t);
    const auto rc = core::ca_gmres(mc, p, so).stats;
    const double cper = rc.restarts ? rc.time_total / rc.restarts : 0.0;
    table.add_row(
        {tp.label, std::to_string(ng), "CA-GMRES",
         Table::fmt(rc.traffic.peer_bytes / 1024.0, 1),
         Table::fmt(rc.traffic.net_bytes / 1024.0, 1),
         Table::fmt_int(rc.traffic.net_msgs),
         bench::ms(rc.restarts ? rc.time_ortho_total() / rc.restarts : 0),
         bench::ms(rc.restarts ? (rc.time_spmv + rc.time_mpk) / rc.restarts
                               : 0),
         bench::ms(cper), cper > 0 ? Table::fmt(gper / cper, 2) : "-"});
    table.add_separator();
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "the CA advantage should grow with node count: remote messages add\n"
      "network latency to exactly the reductions CA-GMRES aggregates, and\n"
      "the hierarchical fold caps them at one inter-node message per node.\n");
  return 0;
}
