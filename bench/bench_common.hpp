// Shared helpers for the paper-figure bench binaries.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/solver_common.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"
#include "sparse/io.hpp"
#include "sparse/stats.hpp"

namespace cagmres::bench {

/// Registers the matrix-selection options every figure bench shares.
inline void add_matrix_options(Options& opts, const std::string& default_name,
                               const std::string& default_scale = "1.0") {
  opts.add("matrix", default_name,
           "paper matrix analog (cant|g3_circuit|dielfilter|nlpkkt) or a "
           "path to a MatrixMarket .mtx file");
  opts.add("scale", default_scale,
           "linear scale factor for the synthetic analogs (1.0 = default "
           "bench size; ~4.0 reaches the paper's sizes)");
  opts.add("seed", "1234", "rhs RNG seed");
}

/// Loads the selected matrix (generator analog or .mtx file).
inline sparse::CsrMatrix load_matrix(const Options& opts) {
  const std::string name = opts.get("matrix");
  if (name.size() > 4 && name.substr(name.size() - 4) == ".mtx") {
    return sparse::read_matrix_market(name);
  }
  return sparse::make_paper_matrix(name, opts.get_double("scale"));
}

/// Standard random right-hand side.
inline std::vector<double> make_rhs(int n, std::uint64_t seed) {
  std::vector<double> b(static_cast<std::size_t>(n));
  Rng rng(seed);
  for (auto& e : b) e = rng.normal();
  return b;
}

/// The paper's per-matrix restart length (Fig. 14 setups).
inline int default_m(const std::string& name) {
  if (name == "cant") return 60;
  if (name == "g3" || name == "g3_circuit") return 30;
  if (name == "dielfilter" || name == "dielFilterV2real") return 180;
  if (name == "nlpkkt" || name == "nlpkkt120") return 120;
  return 60;
}

/// The paper's per-matrix row distribution scheme (Fig. 14 setups).
inline std::string default_ordering(const std::string& name) {
  if (name == "cant") return "natural";
  return "kway";
}

/// Prints the standard bench header: what ran, on which matrix.
inline void print_header(const std::string& title,
                         const sparse::CsrMatrix& a) {
  const sparse::MatrixStats st = sparse::compute_stats(a);
  std::printf("== %s ==\n   matrix: %s\n\n", title.c_str(),
              sparse::to_string(st).c_str());
}

/// Milliseconds with 1 decimal, as the paper's tables print times.
inline std::string ms(double seconds) { return Table::fmt(seconds * 1e3, 1); }

/// Speedup cell: the baseline's charged time to solution over `run`'s,
/// shown only when both converged ("" when the baseline did not, or is
/// null; "(nc)" when `run` did not). A ratio of per-restart averages would
/// credit a short restart (the Newton shift harvest) as a full one.
inline std::string speedup_to_solution(const core::SolveStats* base,
                                       const core::SolveStats& run) {
  if (!run.converged) return "(nc)";
  if (base == nullptr || !base->converged) return "";
  return Table::fmt(base->time_total / run.time_total, 2);
}

}  // namespace cagmres::bench
