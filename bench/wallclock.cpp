// Real wall-clock benchmark for the host execution engine (DESIGN.md §9)
// and the cache-blocked tall-skinny BLAS paths.
//
// Seven experiments, written to BENCH_wallclock.json:
//
//   1. solver_sweep — Fig. 14-style CA-GMRES and GMRES(CGS) workloads,
//      timed with std::chrono while sweeping the host worker count
//      (0 = inline serial legacy path, then 1, 2, n_g). The simulated
//      seconds and iteration counts are recorded alongside so the run
//      doubles as a byte-identity check: they must not move with the
//      worker count. Speedup is workers=n_g over workers=0; on a
//      single-core container (see "nproc" in the output) no speedup can
//      materialize — the engine's scaling needs real cores.
//
//   2. scale_sweep — the CA-GMRES workload fault-free at ng = 3, 8, 16, 64
//      devices, each on the flat single-node machine and (where the count
//      tiles) on a multi-node topology (2x4, 4x4, 8x8), recording the
//      charged seconds and the bytes that crossed the inter-node network
//      vs the intra-node links — the §VII projection of how the two-level
//      fabric prices the same algorithm.
//
//   3. hier_reduce — the deep shapes solved with the hierarchical two-stage
//      collectives on vs forced off, across worker counts: all four
//      solutions bitwise identical, hier charging less, and a single
//      reduction placing at most one inter-node message per node where the
//      flat fold pays one per off-node device.
//
//   4. node_kill_recovery — at each multi-node shape, one whole-node kill
//      mid-solve, recovered once with hierarchical partner checkpointing
//      (SolverOptions::partner_checkpoint, the default) and once with the
//      flat host-checkpoint path. partner_cheaper records whether the
//      buddy scheme won in charged seconds; it must at ng >= 16.
//
//   5. compress — the 4x4 shape solved with no transfer codec, fp32 on
//      every traffic class, and FRSZ2:16 on halo and reduce, recording
//      charged seconds and per-tier wire vs logical bytes (DESIGN.md §14).
//
//   6. precond — GMRES(30) on the cant and g3 analogs, unpreconditioned vs
//      right-preconditioned ILU(0) and ILU(1), recording setup and solve
//      charged seconds, fill and level counts (DESIGN.md §15).
//
//   7. gram_microbench — the blocked V^T·W Gram kernel and the V·R panel
//      update in blas3.cpp against naive triple loops, single-threaded,
//      on a panel shape (long m, narrow k) where the long dimension
//      doesn't fit in cache. This isolates the cache-blocking win from
//      any threading.
#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "blas/blas3.hpp"
#include "blas/matrix.hpp"
#include "common/options.hpp"
#include "core/cagmres.hpp"
#include "core/gmres.hpp"
#include "ortho/reduce.hpp"
#include "precond/precond.hpp"
#include "sim/machine.hpp"

using namespace cagmres;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SweepRow {
  std::string solver;
  int workers = 0;
  double wall_seconds = 0.0;
  double sim_seconds = 0.0;
  int iterations = 0;
  bool converged = false;
  bool identical_to_serial = false;
};

// Naive references: the pre-blocking triple loops, for the microbench only.
void gram_naive(int m, int k, const double* v, int ldv, const double* w,
                int ldw, double* g, int ldg) {
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < k; ++i) {
      double acc = 0.0;
      for (int p = 0; p < m; ++p) acc += v[i * ldv + p] * w[j * ldw + p];
      g[j * ldg + i] = acc;
    }
  }
}

void panel_update_naive(int m, int k, const double* w, int ldw,
                        const double* g, int ldg, double* v, int ldv) {
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < m; ++i) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p) acc += w[p * ldw + i] * g[j * ldg + p];
      v[j * ldv + i] -= acc;
    }
  }
}

template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    fn();
    const double t1 = now_seconds();
    if (t1 - t0 < best) best = t1 - t0;
  }
  return best;
}

std::string json_bool(bool b) { return b ? "true" : "false"; }

}  // namespace

int main(int argc, char** argv) {
  Options opts(
      "Wall-clock bench: host-engine worker sweep on Fig. 14 workloads + "
      "blocked-vs-naive tall-skinny BLAS microbench. Writes --out JSON.");
  bench::add_matrix_options(opts, "g3_circuit", "0.5");
  opts.add("ng", "3", "simulated device count");
  opts.add("s", "15", "CA-GMRES step size");
  opts.add("tol", "1e-8", "relative convergence tolerance");
  opts.add("max-restarts", "40", "restart cap");
  // Default sized past a big L3: at 15 columns, 1M rows is a 120 MB panel,
  // so the naive loops pay DRAM for every re-read the blocking avoids.
  opts.add("gram-rows", "1000000", "microbench panel rows");
  opts.add("gram-cols", "15", "microbench panel columns (s)");
  opts.add("reps", "3", "microbench repetitions (best-of)");
  opts.add("smoke", "false", "tiny sizes: CI smoke run, numbers meaningless");
  opts.add("out", "BENCH_wallclock.json", "output path");
  if (!opts.parse(argc, argv)) return 0;

  const bool smoke = opts.get_bool("smoke");
  const double scale = smoke ? 0.15 : opts.get_double("scale");
  const int ng = opts.get_int("ng");
  const int gram_rows = smoke ? 20000 : opts.get_int("gram-rows");
  const int gram_cols = opts.get_int("gram-cols");
  const int reps = opts.get_int("reps");

  const std::string matrix_name = opts.get("matrix");
  const sparse::CsrMatrix a = sparse::make_paper_matrix(matrix_name, scale);
  const int m = smoke ? 20 : bench::default_m(matrix_name);
  const std::string oname = bench::default_ordering(matrix_name);
  bench::print_header("wall-clock worker sweep — " + matrix_name, a);
  const std::vector<double> b =
      bench::make_rhs(a.n_rows, opts.get_int("seed"));
  const core::Problem p =
      core::make_problem(a, b, ng, graph::parse_ordering(oname), true, 7);

  core::SolverOptions sopts;
  sopts.m = m;
  sopts.tol = opts.get_double("tol");
  sopts.max_restarts = smoke ? 4 : opts.get_int("max-restarts");

  std::vector<int> workers;
  for (const int w : {0, 1, 2, ng}) {
    if (std::find(workers.begin(), workers.end(), w) == workers.end()) {
      workers.push_back(w);
    }
  }

  std::vector<SweepRow> rows;
  for (const bool ca : {false, true}) {
    std::vector<double> x_serial;
    for (const int w : workers) {
      sim::Machine machine(ng);
      machine.set_host_workers(w);
      core::SolverOptions so = sopts;
      if (ca) so.s = smoke ? 5 : opts.get_int("s");
      const double t0 = now_seconds();
      const core::SolveResult res = ca ? core::ca_gmres(machine, p, so)
                                       : core::gmres(machine, p, so);
      const double t1 = now_seconds();
      SweepRow row;
      row.solver = ca ? "ca_gmres" : "gmres_cgs";
      row.workers = w;
      row.wall_seconds = t1 - t0;
      row.sim_seconds = res.stats.time_total;
      row.iterations = res.stats.iterations;
      row.converged = res.stats.converged;
      if (w == 0) x_serial = res.x;
      row.identical_to_serial = res.x == x_serial;
      rows.push_back(row);
      std::printf("  %-10s workers=%d  wall=%8.3fs  sim=%8.4fs  it=%d%s%s\n",
                  row.solver.c_str(), w, row.wall_seconds, row.sim_seconds,
                  row.iterations, row.converged ? "" : " (nc)",
                  row.identical_to_serial ? "" : "  RESULTS DIVERGED");
    }
  }

  // --- scale sweep: ng x topology, fault-free ----------------------------
  struct ScaleRow {
    int ng = 0;
    int nodes = 1;
    double sim_seconds = 0.0;
    double net_bytes = 0.0;
    double peer_bytes = 0.0;
    int iterations = 0;
    bool converged = false;
  };
  struct KillRow {
    int ng = 0;
    int nodes = 1;
    bool partner = false;
    double sim_seconds = 0.0;
    double time_lost = 0.0;
    int node_failures = 0;
    int partner_restores = 0;
    bool converged = false;
  };
  std::vector<ScaleRow> scale_rows;
  std::vector<KillRow> kill_rows;
  {
    // ng -> multi-node shape (node count); 3 is the paper testbed and
    // stays flat-only.
    std::vector<std::pair<int, int>> shapes = {{3, 1}, {8, 2}};
    if (!smoke) {
      shapes.push_back({16, 4});
      shapes.push_back({64, 8});
    }
    std::printf("\n  scale sweep (ca_gmres, fault-free):\n");
    for (const auto& [sw_ng, sw_nodes] : shapes) {
      const core::Problem psw =
          sw_ng == ng ? p
                      : core::make_problem(a, b, sw_ng,
                                           graph::parse_ordering(oname),
                                           true, 7);
      // Node-first partition for the multi-node run of this shape (KWY
      // splits node-major so halo edges concentrate inside nodes).
      core::Problem pnode;
      if (sw_nodes > 1) {
        pnode = core::make_problem(a, b, sw_ng, graph::parse_ordering(oname),
                                   true, 7, sw_nodes);
      }
      double flat_hint = 0.0;
      std::vector<int> node_counts = {1};
      if (sw_nodes > 1) node_counts.push_back(sw_nodes);
      for (const int nodes : node_counts) {
        const core::Problem& pr = nodes > 1 ? pnode : psw;
        sim::Machine machine(sw_ng);
        if (nodes > 1) machine.set_topology(nodes, sw_ng / nodes);
        core::SolverOptions so = sopts;
        so.s = smoke ? 5 : opts.get_int("s");
        const core::SolveResult res = core::ca_gmres(machine, pr, so);
        ScaleRow row;
        row.ng = sw_ng;
        row.nodes = nodes;
        row.sim_seconds = res.stats.time_total;
        row.net_bytes = machine.counters().net_bytes;
        row.peer_bytes = machine.counters().peer_bytes;
        row.iterations = res.stats.iterations;
        row.converged = res.stats.converged;
        scale_rows.push_back(row);
        if (nodes == 1) flat_hint = res.stats.time_total;
        std::printf(
            "    ng=%-3d nodes=%d  sim=%9.4fs  net=%10.3g B  peer=%10.3g B"
            "  it=%d%s\n",
            sw_ng, nodes, row.sim_seconds, row.net_bytes, row.peer_bytes,
            row.iterations, row.converged ? "" : " (nc)");
        if (nodes == 1) continue;

        // Node-kill recovery at this shape: node 1 dies a quarter of the
        // way through the fault-free run; compare the partner-checkpoint
        // restore (default) against the flat host-checkpoint path.
        for (const bool partner : {true, false}) {
          sim::Machine mk(sw_ng);
          mk.set_topology(nodes, sw_ng / nodes);
          sim::FaultEvent kill;
          kill.kind = sim::FaultKind::kNodeFail;
          kill.device = 1;  // node id: a remote node, partner is alive
          kill.at_time = 0.25 * flat_hint;
          mk.fault_injector().schedule(kill);
          core::SolverOptions ko = so;
          ko.partner_checkpoint = partner;
          const core::SolveResult res_k = core::ca_gmres(mk, pr, ko);
          KillRow kr;
          kr.ng = sw_ng;
          kr.nodes = nodes;
          kr.partner = partner;
          kr.sim_seconds = res_k.stats.time_total;
          kr.time_lost = res_k.stats.recovery.time_lost;
          kr.node_failures = res_k.stats.recovery.node_failures;
          kr.partner_restores = res_k.stats.recovery.partner_restores;
          kr.converged = res_k.stats.converged;
          kill_rows.push_back(kr);
          std::printf(
              "    ng=%-3d nodes=%d  node-kill %-7s  sim=%9.4fs  "
              "lost=%8.4fs  partner_restores=%d%s\n",
              sw_ng, nodes, partner ? "partner" : "host", kr.sim_seconds,
              kr.time_lost, kr.partner_restores,
              kr.converged ? "" : " (nc)");
        }
        const std::size_t nk = kill_rows.size();
        const bool cheaper =
            kill_rows[nk - 2].sim_seconds < kill_rows[nk - 1].sim_seconds;
        std::printf("    ng=%-3d nodes=%d  partner_cheaper=%s\n", sw_ng,
                    nodes, cheaper ? "true" : "false");
      }
    }
  }

  // --- hier_reduce: two-stage node-grouped reductions vs flat fold -------
  // At each deep shape, the same node-first problem solved with the
  // hierarchical collectives on (Machine default for nodes > 1) and forced
  // off, across {0, 2 workers}: all four solutions must match bitwise (the
  // fold tree is knob/worker invariant; only the charges move), hier must
  // charge less, and a single reduction must put at most `nodes` messages
  // on the inter-node network where the flat fold pays one per off-node
  // device.
  struct HierRow {
    int ng = 0;
    int nodes = 1;
    double flat_sim = 0.0;
    double hier_sim = 0.0;
    long long flat_red_net_msgs = 0;
    long long hier_red_net_msgs = 0;
    bool identical = false;
    bool converged = true;
  };
  std::vector<HierRow> hier_rows;
  {
    std::vector<std::pair<int, int>> hshapes = {{8, 2}};
    if (!smoke) hshapes = {{16, 4}, {64, 8}};
    std::printf("\n  hier_reduce (two-stage vs flat fold):\n");
    for (const auto& [hng, hnodes] : hshapes) {
      const core::Problem ph = core::make_problem(
          a, b, hng, graph::parse_ordering(oname), true, 7, hnodes);
      HierRow hr;
      hr.ng = hng;
      hr.nodes = hnodes;
      hr.identical = true;
      std::vector<double> x0;
      bool first = true;
      for (const bool hier : {false, true}) {
        for (const int w : {0, 2}) {
          sim::Machine mh(hng);
          mh.set_topology(hnodes, hng / hnodes);
          mh.set_hier_reduce(hier);
          mh.set_host_workers(w);
          core::SolverOptions so = sopts;
          so.s = smoke ? 5 : opts.get_int("s");
          const core::SolveResult rs = core::ca_gmres(mh, ph, so);
          if (first) {
            x0 = rs.x;
            first = false;
          }
          hr.identical = hr.identical && rs.x == x0;
          hr.converged = hr.converged && rs.stats.converged;
          // Headline charge comparison; workers are charge-invariant.
          if (w == 0) {
            (hier ? hr.hier_sim : hr.flat_sim) = rs.stats.time_total;
          }
        }
      }
      // Per-reduction network message microcount: one bare reduce of ng
      // device partials on an otherwise idle machine.
      for (const bool hier : {false, true}) {
        sim::Machine mh(hng);
        mh.set_topology(hnodes, hng / hnodes);
        mh.set_hier_reduce(hier);
        std::vector<std::vector<double>> parts(
            static_cast<std::size_t>(hng), std::vector<double>(8, 1.0));
        std::vector<double> sum(8, 0.0);
        const std::int64_t before = mh.counters().net_msgs;
        ortho::detail::reduce_to_host(mh, parts, 8, sum.data());
        mh.sync();
        (hier ? hr.hier_red_net_msgs : hr.flat_red_net_msgs) =
            static_cast<long long>(mh.counters().net_msgs - before);
      }
      hier_rows.push_back(hr);
      std::printf(
          "    ng=%-3d %dx%-2d  flat=%9.4fs  hier=%9.4fs  (%.3fx)  "
          "red_net_msgs %lld -> %lld%s%s\n",
          hng, hnodes, hng / hnodes, hr.flat_sim, hr.hier_sim,
          hr.hier_sim > 0.0 ? hr.flat_sim / hr.hier_sim : 0.0,
          hr.flat_red_net_msgs, hr.hier_red_net_msgs,
          hr.converged ? "" : " (nc)",
          hr.identical ? "" : "  RESULTS DIVERGED");
    }
  }

  // --- compress: transfer codec layer (DESIGN.md §14) --------------------
  // The deep 4x4 shape solved with no codec, fp32 demotion on every class,
  // and FRSZ2:16 on the bandwidth-heavy classes. The coded runs carry REAL
  // quantized numerics, so iterations may move; the win is charged seconds
  // and per-tier wire bytes.
  struct CompressRow {
    std::string codec;
    double sim_seconds = 0.0;
    double net_bytes = 0.0, net_logical = 0.0;
    double peer_bytes = 0.0, peer_logical = 0.0;
    double pcie_bytes = 0.0, pcie_logical = 0.0;
    int iterations = 0;
    int restarts = 0;
    bool converged = false;
  };
  std::vector<CompressRow> compress_rows;
  {
    const int cng = smoke ? 8 : 16;
    const int cnodes = smoke ? 2 : 4;
    const core::Problem pc = core::make_problem(
        a, b, cng, graph::parse_ordering(oname), true, 7, cnodes);
    std::printf("\n  compress (transfer codecs, ng=%d %dx%d):\n", cng, cnodes,
                cng / cnodes);
    for (const char* spec :
         {"none", "halo=fp32,reduce=fp32,ckpt=fp32",
          "halo=frsz2:16,reduce=frsz2:16"}) {
      sim::Machine mc(cng);
      mc.set_topology(cnodes, cng / cnodes);
      const sim::CodecConfig cfg = sim::parse_codec_config(
          std::string(spec) == "none" ? "" : spec);
      mc.set_codec(sim::TrafficClass::kHalo, cfg.halo);
      mc.set_codec(sim::TrafficClass::kReduce, cfg.reduce);
      mc.set_codec(sim::TrafficClass::kCkpt, cfg.ckpt);
      core::SolverOptions so = sopts;
      so.s = smoke ? 5 : opts.get_int("s");
      const core::SolveResult rc = core::ca_gmres(mc, pc, so);
      CompressRow cr;
      cr.codec = spec;
      cr.sim_seconds = rc.stats.time_total;
      const sim::Counters& cc = mc.counters();
      cr.net_bytes = cc.net_bytes;
      cr.net_logical = cc.net_logical_bytes;
      cr.peer_bytes = cc.peer_bytes;
      cr.peer_logical = cc.peer_logical_bytes;
      cr.pcie_bytes = cc.d2h_bytes + cc.h2d_bytes;
      cr.pcie_logical = cc.d2h_logical_bytes + cc.h2d_logical_bytes;
      cr.iterations = rc.stats.iterations;
      cr.restarts = rc.stats.restarts;
      cr.converged = rc.stats.converged;
      compress_rows.push_back(cr);
      const auto ratio = [](double logical, double wire) {
        return (wire > 0.0 && logical > 0.0) ? logical / wire : 1.0;
      };
      std::printf(
          "    %-30s sim=%9.4fs  net=%10.3g B (x%.2f)  pcie=%10.3g B "
          "(x%.2f)  it=%d%s\n",
          spec, cr.sim_seconds, cr.net_bytes, ratio(cr.net_logical,
          cr.net_bytes), cr.pcie_bytes, ratio(cr.pcie_logical, cr.pcie_bytes),
          cr.iterations, cr.converged ? "" : " (nc)");
    }
  }

  // --- precond: none vs ILU(0) vs ILU(1) ---------------------------------
  // The ROADMAP's preconditioning item made concrete: the cant-like and
  // circuit-like analogs under GMRES(30) with a 1200-iteration budget
  // (m=30 x 40 restarts), unpreconditioned vs the right-preconditioned
  // ILU(k) handle subsystem (src/precond/). The circuit shape exhausts its
  // budget raw; ILU must converge it in fewer iterations AND fewer total
  // charged seconds (setup + solve) — that is the perf gate bench.sh
  // --compare enforces.
  struct PrecondRow {
    std::string matrix;
    std::string precond;  // none | ilu0 | ilu1
    int iterations = 0;
    int restarts = 0;
    double setup_sim_seconds = 0.0;
    double solve_sim_seconds = 0.0;
    double total_sim_seconds = 0.0;
    std::int64_t fill_nnz = 0;
    int max_levels = 0;
    bool converged = false;
  };
  std::vector<PrecondRow> precond_rows;
  {
    const double pscale = smoke ? 0.15 : 0.5;
    std::printf("\n  precond (gmres m=30, budget 1200 iterations):\n");
    for (const char* pname : {"cant", "g3_circuit"}) {
      const sparse::CsrMatrix am = sparse::make_paper_matrix(pname, pscale);
      const std::vector<double> bm =
          bench::make_rhs(am.n_rows, opts.get_int("seed"));
      const core::Problem pm = core::make_problem(
          am, bm, ng, graph::parse_ordering(bench::default_ordering(pname)),
          true, 7);
      core::SolverOptions po;
      po.m = 30;
      po.max_restarts = 40;  // 1200-iteration budget
      po.tol = opts.get_double("tol");
      for (const auto& [which, spec] :
           {std::pair{"none", "none"}, std::pair{"ilu0", "ilu:k=0"},
            std::pair{"ilu1", "ilu:k=1"}}) {
        sim::Machine mp(ng);
        PrecondRow row;
        row.matrix = pname;
        row.precond = which;
        precond::PrecondHandle handle(precond::parse_precond_spec(spec));
        core::SolverOptions hpo = po;
        if (handle.armed()) hpo.precond = &handle;
        const core::SolveResult r = core::gmres(mp, pm, hpo);
        const precond::PrecondStats& ps = handle.stats();
        row.iterations = r.stats.iterations;
        row.restarts = r.stats.restarts;
        row.setup_sim_seconds = ps.setup_seconds;
        row.solve_sim_seconds = r.stats.time_total - ps.setup_seconds;
        row.fill_nnz = ps.fill_nnz;
        row.max_levels = std::max(ps.max_levels_l, ps.max_levels_u);
        row.converged = r.stats.converged;
        row.total_sim_seconds = row.setup_sim_seconds + row.solve_sim_seconds;
        precond_rows.push_back(row);
        std::printf(
            "    %-10s %-5s it=%-5d setup=%8.4fs  solve=%9.4fs  "
            "total=%9.4fs%s\n",
            pname, which, row.iterations, row.setup_sim_seconds,
            row.solve_sim_seconds, row.total_sim_seconds,
            row.converged ? "" : " (nc)");
      }
    }
  }

  // --- microbench: blocked vs naive, single thread -----------------------
#ifdef _OPENMP
  omp_set_num_threads(1);
#endif
  Rng rng(9);
  blas::DMat v(gram_rows, gram_cols), w(gram_rows, gram_cols);
  for (int j = 0; j < gram_cols; ++j) {
    for (int i = 0; i < gram_rows; ++i) {
      v(i, j) = rng.normal();
      w(i, j) = rng.normal();
    }
  }
  blas::DMat g(gram_cols, gram_cols), g_ref(gram_cols, gram_cols);
  const double t_gram_naive = best_of(reps, [&] {
    gram_naive(gram_rows, gram_cols, v.data(), v.ld(), w.data(), w.ld(),
               g_ref.data(), g_ref.ld());
  });
  const double t_gram_blocked = best_of(reps, [&] {
    blas::gemm(blas::Trans::T, blas::Trans::N, gram_cols, gram_cols,
               gram_rows, 1.0, v.data(), v.ld(), w.data(), w.ld(), 0.0,
               g.data(), g.ld());
  });

  blas::DMat upd1 = v, upd2 = v;
  const double t_panel_naive = best_of(reps, [&] {
    panel_update_naive(gram_rows, gram_cols, w.data(), w.ld(), g.data(),
                       g.ld(), upd1.data(), upd1.ld());
  });
  const double t_panel_blocked = best_of(reps, [&] {
    blas::gemm(blas::Trans::N, blas::Trans::N, gram_rows, gram_cols,
               gram_cols, -1.0, w.data(), w.ld(), g.data(), g.ld(), 1.0,
               upd2.data(), upd2.ld());
  });

  const double gram_speedup = t_gram_naive / t_gram_blocked;
  const double panel_speedup = t_panel_naive / t_panel_blocked;
  std::printf("\n  gram  %d x %d: naive %.4fs, blocked %.4fs  (%.2fx)\n",
              gram_rows, gram_cols, t_gram_naive, t_gram_blocked,
              gram_speedup);
  std::printf("  panel %d x %d: naive %.4fs, blocked %.4fs  (%.2fx)\n",
              gram_rows, gram_cols, t_panel_naive, t_panel_blocked,
              panel_speedup);

  // --- JSON --------------------------------------------------------------
  std::ofstream out(opts.get("out"));
  out << "{\n";
  out << "  \"bench\": \"wallclock\",\n";
  out << "  \"matrix\": \"" << matrix_name << "\",\n";
  out << "  \"n\": " << a.n_rows << ",\n";
  out << "  \"ng\": " << ng << ",\n";
#ifdef _OPENMP
  out << "  \"openmp\": true,\n";
#else
  out << "  \"openmp\": false,\n";
#endif
  out << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n";
  out << "  \"smoke\": " << json_bool(smoke) << ",\n";
  out << "  \"solver_sweep\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    out << "    {\"solver\": \"" << r.solver << "\", \"workers\": "
        << r.workers << ", \"wall_seconds\": " << r.wall_seconds
        << ", \"sim_seconds\": " << r.sim_seconds << ", \"iterations\": "
        << r.iterations << ", \"converged\": " << json_bool(r.converged)
        << ", \"identical_to_serial\": "
        << json_bool(r.identical_to_serial) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"scale_sweep\": [\n";
  for (std::size_t i = 0; i < scale_rows.size(); ++i) {
    const auto& r = scale_rows[i];
    out << "    {\"ng\": " << r.ng << ", \"nodes\": " << r.nodes
        << ", \"sim_seconds\": " << r.sim_seconds << ", \"net_bytes\": "
        << r.net_bytes << ", \"peer_bytes\": " << r.peer_bytes
        << ", \"iterations\": " << r.iterations << ", \"converged\": "
        << json_bool(r.converged) << "}"
        << (i + 1 < scale_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"hier_reduce\": [\n";
  for (std::size_t i = 0; i < hier_rows.size(); ++i) {
    const auto& r = hier_rows[i];
    out << "    {\"ng\": " << r.ng << ", \"nodes\": " << r.nodes
        << ", \"flat_sim_seconds\": " << r.flat_sim
        << ", \"hier_sim_seconds\": " << r.hier_sim << ", \"speedup\": "
        << (r.hier_sim > 0.0 ? r.flat_sim / r.hier_sim : 0.0)
        << ", \"flat_reduction_net_msgs\": " << r.flat_red_net_msgs
        << ", \"hier_reduction_net_msgs\": " << r.hier_red_net_msgs
        << ", \"hier_cheaper\": " << json_bool(r.hier_sim < r.flat_sim)
        << ", \"at_most_one_msg_per_node\": "
        << json_bool(r.hier_red_net_msgs <= r.nodes)
        << ", \"identical_results\": " << json_bool(r.identical)
        << ", \"converged\": " << json_bool(r.converged) << "}"
        << (i + 1 < hier_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"node_kill_recovery\": [\n";
  for (std::size_t i = 0; i < kill_rows.size(); i += 2) {
    const auto& rp = kill_rows[i];      // partner_checkpoint = true
    const auto& rh = kill_rows[i + 1];  // flat host-checkpoint path
    out << "    {\"ng\": " << rp.ng << ", \"nodes\": " << rp.nodes
        << ", \"partner_sim_seconds\": " << rp.sim_seconds
        << ", \"host_sim_seconds\": " << rh.sim_seconds
        << ", \"partner_time_lost\": " << rp.time_lost
        << ", \"host_time_lost\": " << rh.time_lost
        << ", \"partner_restores\": " << rp.partner_restores
        << ", \"node_failures\": " << rp.node_failures
        << ", \"both_converged\": "
        << json_bool(rp.converged && rh.converged)
        << ", \"partner_cheaper\": "
        << json_bool(rp.sim_seconds < rh.sim_seconds) << "}"
        << (i + 2 < kill_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"compress\": [\n";
  for (std::size_t i = 0; i < compress_rows.size(); ++i) {
    const auto& r = compress_rows[i];
    out << "    {\"codec\": \"" << r.codec << "\", \"sim_seconds\": "
        << r.sim_seconds << ", \"net_bytes\": " << r.net_bytes
        << ", \"net_logical_bytes\": " << r.net_logical
        << ", \"peer_bytes\": " << r.peer_bytes
        << ", \"peer_logical_bytes\": " << r.peer_logical
        << ", \"pcie_bytes\": " << r.pcie_bytes
        << ", \"pcie_logical_bytes\": " << r.pcie_logical
        << ", \"iterations\": " << r.iterations << ", \"restarts\": "
        << r.restarts << ", \"converged\": " << json_bool(r.converged)
        << "}" << (i + 1 < compress_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"precond\": [\n";
  for (std::size_t i = 0; i < precond_rows.size(); ++i) {
    const auto& r = precond_rows[i];
    out << "    {\"matrix\": \"" << r.matrix << "\", \"precond\": \""
        << r.precond << "\", \"iterations\": " << r.iterations
        << ", \"restarts\": " << r.restarts << ", \"setup_sim_seconds\": "
        << r.setup_sim_seconds << ", \"solve_sim_seconds\": "
        << r.solve_sim_seconds << ", \"total_sim_seconds\": "
        << r.total_sim_seconds << ", \"fill_nnz\": " << r.fill_nnz
        << ", \"max_levels\": " << r.max_levels << ", \"converged\": "
        << json_bool(r.converged) << "}"
        << (i + 1 < precond_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"gram_microbench\": {\n";
  out << "    \"rows\": " << gram_rows << ", \"cols\": " << gram_cols
      << ",\n";
  out << "    \"gram_naive_seconds\": " << t_gram_naive
      << ", \"gram_blocked_seconds\": " << t_gram_blocked
      << ", \"gram_speedup\": " << gram_speedup << ",\n";
  out << "    \"panel_naive_seconds\": " << t_panel_naive
      << ", \"panel_blocked_seconds\": " << t_panel_blocked
      << ", \"panel_speedup\": " << panel_speedup << "\n";
  out << "  }\n";
  out << "}\n";
  std::printf("\n  wrote %s\n", opts.get("out").c_str());
  return 0;
}
