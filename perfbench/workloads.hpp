// Workload table and the shared solve path of the time-to-solution
// benchmark: how each workload's matrix, machine, problem and solver are
// configured, so the untraced driver and the traced layer replay build
// exactly the same thing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/solver_common.hpp"
#include "graph/partition.hpp"
#include "precond/precond.hpp"
#include "sim/machine.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

using namespace cagmres;

/// One benchmark workload: a paper matrix analog, a simulated machine shape
/// and a solver configuration that converges after several restarts.
struct Workload {
  std::string name;
  std::string matrix;  ///< sparse::make_paper_matrix analog name
  double scale = 1.0;
  int ng = 3;          ///< simulated devices
  int nodes = 1;       ///< > 1: ng / nodes devices per node
  graph::Ordering ordering = graph::Ordering::kKway;
  bool ca = true;      ///< CA-GMRES (true) or GMRES(CGS)
  int s = 15;
  int m = 30;
  double tol = 1e-6;       ///< solver's relative residual target
  /// Bound on ||b - A x|| / ||b|| in the ORIGINAL system (the solver's own
  /// test runs on the permuted, balanced one).
  double check_tol = 1e-5;
  /// Size of the seeded part of the rhs relative to its fixed part (see
  /// make_rhs).
  double rhs_noise = 0.1;
  std::string precond;  ///< precond spec ("" = none)
  /// Fault schedule (sim::parse_fault_spec syntax, without the seed, which
  /// comes from the benchmark seed). "" = fault-free.
  std::string faults;
};

/// All workloads, in BENCHMARK.json order.
const std::vector<Workload>& workloads();
/// The workload named `name`; throws cagmres::Error when there is none.
const Workload& find_workload(const std::string& name);

/// Seeded right-hand side: a fixed standard-normal base vector plus a
/// seeded standard-normal perturbation scaled by `noise`. Every seed gives
/// another rhs (other bits in x, and a restart cycle that ends a block or
/// a few iterations earlier or later), while the convergence history stays
/// close to the base's, so the work a solve does barely moves with the
/// seed.
std::vector<double> make_rhs(int n, std::uint64_t seed, double noise);

/// A fresh simulated machine for one solve: the workload's topology, event
/// sync, hierarchical reductions, inline host execution (0 workers) and,
/// when the workload has one, its fault schedule seeded from `seed`.
std::unique_ptr<sim::Machine> make_machine(const Workload& w,
                                           std::uint64_t seed);

/// What set-up produces: the prepared problem plus, where the workload arms
/// one, the built preconditioner handle.
struct Prepared {
  core::Problem problem;
  std::unique_ptr<precond::PrecondHandle> pc;
};

/// Set-up: core::make_problem, then PrecondHandle::build on a scratch
/// machine when a preconditioner is armed. Wall seconds of each part are
/// returned through the pointers.
Prepared prepare(const Workload& w, const sparse::CsrMatrix& a,
                 const std::vector<double>& b, double* make_problem_s,
                 double* build_s);

/// Solver options for the workload (precond handle attached when armed).
core::SolverOptions solver_options(const Workload& w, const Prepared& p);

/// One solve on `machine`: CA-GMRES or GMRES per the workload.
core::SolveResult solve(const Workload& w, sim::Machine& machine,
                        const Prepared& p);

/// Monotonic wall clock in seconds.
double now_s();

/// Nearest-rank quantile (0 <= q <= 1) of `v`: always one of the measured
/// values (0 when `v` is empty).
double quantile(std::vector<double> v, double q);

}  // namespace perfbench
