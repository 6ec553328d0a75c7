#include "workloads.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cagmres.hpp"
#include "core/gmres.hpp"
#include "sim/fault.hpp"

namespace perfbench {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = [] {
    std::vector<Workload> t;

    // Wide restart: BOrth's projection (blas::gemm) dominates.
    Workload kkt;
    kkt.name = "kkt_ca_m120";
    kkt.matrix = "nlpkkt";
    kkt.scale = 0.35;
    kkt.s = 15;
    kkt.m = 120;
    kkt.tol = 1e-6;
    kkt.check_tol = 1e-5;
    kkt.rhs_noise = 0.3;
    t.push_back(kkt);

    // GMRES(CGS) with right ILU(0): level-scheduled trisolves, no MPK
    // apply, BOrth or TSQR.
    Workload cant;
    cant.name = "cant_ilu0_gmres";
    cant.matrix = "cant";
    cant.scale = 0.4;
    cant.ordering = graph::Ordering::kNatural;
    cant.ca = false;
    cant.m = 60;
    cant.tol = 1e-8;
    cant.check_tol = 1e-6;
    // GMRES stops at single-iteration granularity and cant's last cycle
    // length swings with the rhs: even this perturbation moves it by +-3%.
    cant.rhs_noise = 0.003;
    cant.precond = "ilu:k=0";
    t.push_back(cant);

    // Paper Fig. 14 solver configuration (g3, CA-GMRES(15, 30), Newton),
    // MPK-dominated, on 4 nodes x 4 devices: the network tier, partner
    // checkpoints and recovery.
    Workload f;
    f.name = "g3_ca_4x4_faults";
    f.matrix = "g3_circuit";
    f.scale = 0.2;
    f.ng = 16;
    f.nodes = 4;
    f.s = 15;
    f.m = 30;
    f.tol = 1e-4;
    f.check_tol = 1e-3;
    f.rhs_noise = 0.03;
    f.faults =
        "nodekill:n2@t=20ms;corrupt:p=0.001;stall:p=0.001;nan:p=0.00002";
    t.push_back(f);
    return t;
  }();
  return table;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw Error("unknown workload: " + name);
}

std::vector<double> make_rhs(int n, std::uint64_t seed, double noise) {
  std::vector<double> b(static_cast<std::size_t>(n));
  Rng base(0x5eedba5eULL), pert(seed);
  for (double& e : b) e = base.normal() + noise * pert.normal();
  return b;
}

std::unique_ptr<sim::Machine> make_machine(const Workload& w,
                                           std::uint64_t seed) {
  auto m = std::make_unique<sim::Machine>(w.ng);
  if (w.nodes > 1) m->set_topology(w.nodes, w.ng / w.nodes);
  m->set_sync_mode(sim::SyncMode::kEvent);
  m->set_hier_reduce(true);
  m->set_host_workers(0);
  if (!w.faults.empty()) {
    sim::parse_fault_spec("seed=" + std::to_string(seed) + ";" + w.faults,
                          m->fault_injector());
  }
  return m;
}

Prepared prepare(const Workload& w, const sparse::CsrMatrix& a,
                 const std::vector<double>& b, double* make_problem_s,
                 double* build_s) {
  Prepared p;
  const double t0 = now_s();
  p.problem = core::make_problem(a, b, w.ng, w.ordering, /*balance=*/true,
                                 /*seed=*/7, w.nodes);
  const double t1 = now_s();
  if (!w.precond.empty()) {
    sim::Machine scratch(w.ng);
    scratch.set_host_workers(0);
    p.pc = std::make_unique<precond::PrecondHandle>(
        precond::parse_precond_spec(w.precond));
    p.pc->build(scratch, p.problem.a, p.problem.offsets);
  }
  const double t2 = now_s();
  if (make_problem_s != nullptr) *make_problem_s = t1 - t0;
  if (build_s != nullptr) *build_s = t2 - t1;
  return p;
}

core::SolverOptions solver_options(const Workload& w, const Prepared& p) {
  core::SolverOptions o;
  o.m = w.m;
  o.s = w.s;
  o.tol = w.tol;
  o.max_restarts = 40;  // missing this budget fails the solve
  o.precond = p.pc.get();
  return o;
}

core::SolveResult solve(const Workload& w, sim::Machine& machine,
                        const Prepared& p) {
  const core::SolverOptions o = solver_options(w, p);
  return w.ca ? core::ca_gmres(machine, p.problem, o)
              : core::gmres(machine, p.problem, o);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
