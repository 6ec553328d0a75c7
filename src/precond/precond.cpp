#include "precond/precond.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "precond/trisolve.hpp"

namespace cagmres::precond {

std::string PrecondSpec::to_string() const {
  return armed() ? "ilu" : "none";
}

PrecondSpec parse_precond_spec(const std::string& text) {
  if (text.empty() || text == "none" || text == "off" || text == "0") {
    return PrecondSpec{};
  }
  if (text == "ilu" || text == "ilu:k=0") {
    return PrecondSpec{PrecondKind::kIlu};
  }
  // Any other ilu option is a key of the removed ILU(k) grammar (fill
  // level k >= 1, its `level` alias, the Jacobi-margin keys): name it, so a
  // spec written for that grammar fails loudly instead of running ILU(0).
  if (text.rfind("ilu:", 0) == 0) {
    std::size_t pos = 4;
    while (pos < text.size()) {
      std::size_t comma = text.find(',', pos);
      if (comma == std::string::npos) comma = text.size();
      const std::string entry = text.substr(pos, comma - pos);
      if (entry != "k=0") {
        throw Error("precond spec: key '" + entry.substr(0, entry.find('=')) +
                    "' in '" + text + "' is not supported: the ILU(k) "
                    "options were removed and block ILU(0) takes none "
                    "(want ilu or ilu:k=0)");
      }
      pos = comma + 1;
    }
  }
  throw Error("precond spec: want none|off|0|ilu|ilu:k=0: " + text);
}

DeviceFactor* PrecondHandle::factor_for(sim::Machine& m,
                                        const sparse::CsrMatrix& a, int row0,
                                        int row1, bool reuse_cache) {
  const auto key = std::make_pair(row0, row1);
  if (reuse_cache) {
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++stats_.device_reuses;
      return it->second.get();
    }
  }
  auto f = std::make_unique<DeviceFactor>();
  ilu_symbolic(a, row0, row1, *f);
  ++stats_.symbolic_builds;
  const double fill = static_cast<double>(f->fill_nnz());
  // Symbolic analysis is host-side graph work: the pattern scan and the
  // dependency depths touch index data proportional to the fill.
  m.charge_host(sim::Kernel::kSmall, fill, 12.0 * fill);
  ilu_numeric(a, *f);
  ++stats_.numeric_builds;
  DeviceFactor* out = f.get();
  cache_[key] = std::move(f);
  return out;
}

void PrecondHandle::refresh_aggregate_stats() {
  stats_.pivot_fallbacks = 0;
  stats_.fill_nnz = 0;
  stats_.max_levels_l = 0;
  stats_.max_levels_u = 0;
  for (const DeviceFactor* f : active_) {
    stats_.pivot_fallbacks += f->pivot_fallbacks;
    stats_.fill_nnz += f->fill_nnz();
    stats_.max_levels_l = std::max(stats_.max_levels_l, f->l_solve.depth);
    stats_.max_levels_u = std::max(stats_.max_levels_u, f->u_solve.depth);
  }
}

void PrecondHandle::build(sim::Machine& m, const sparse::CsrMatrix& a,
                          const std::vector<int>& offsets) {
  CAGMRES_REQUIRE(armed(), "PrecondHandle::build on an unarmed handle");
  CAGMRES_REQUIRE(offsets.size() >= 2 && offsets.front() == 0 &&
                      offsets.back() == a.n_rows,
                  "precond: bad device offsets");
  sim::PhaseScope phase(m, "precond_setup");
  const double t0 = m.phases().get("precond_setup");
  // Fresh matrix values: every cached numeric factor is stale.
  cache_.clear();
  active_.clear();
  const int nd = static_cast<int>(offsets.size()) - 1;
  for (int d = 0; d < nd; ++d) {
    DeviceFactor* f = factor_for(m, a, offsets[static_cast<std::size_t>(d)],
                                 offsets[static_cast<std::size_t>(d) + 1],
                                 /*reuse_cache=*/false);
    // The numeric sweep is modeled as one device kernel. Deliberately no
    // consume_kernel_fault here: a transient NaN injection landing on this
    // charge stays latched and poisons the NEXT apply kernel instead of
    // the cached factor, so the health scrub heals it by replaying one
    // step rather than solving against a permanently poisoned M.
    m.charge_device(d, sim::Kernel::kSpmvCsr, f->numeric_flops,
                    20.0 * static_cast<double>(f->fill_nnz()));
    active_.push_back(f);
  }
  refresh_aggregate_stats();
  stats_.setup_seconds += m.phases().get("precond_setup") - t0;
}

void PrecondHandle::rebuild(sim::Machine& m, const sparse::CsrMatrix& a,
                            const std::vector<int>& offsets) {
  CAGMRES_REQUIRE(armed(), "PrecondHandle::rebuild on an unarmed handle");
  CAGMRES_REQUIRE(offsets.size() >= 2 && offsets.front() == 0 &&
                      offsets.back() == a.n_rows,
                  "precond: bad device offsets");
  sim::PhaseScope phase(m, "precond_setup");
  const double t0 = m.phases().get("precond_setup");
  active_.clear();
  const int nd = static_cast<int>(offsets.size()) - 1;
  for (int d = 0; d < nd; ++d) {
    const int row0 = offsets[static_cast<std::size_t>(d)];
    const int row1 = offsets[static_cast<std::size_t>(d) + 1];
    const bool cached = cache_.count(std::make_pair(row0, row1)) != 0;
    DeviceFactor* f = factor_for(m, a, row0, row1, /*reuse_cache=*/true);
    if (!cached) {
      ++stats_.device_rebuilds;
      m.charge_device(d, sim::Kernel::kSpmvCsr, f->numeric_flops,
                      20.0 * static_cast<double>(f->fill_nnz()));
    }
    active_.push_back(f);
  }
  refresh_aggregate_stats();
  stats_.setup_seconds += m.phases().get("precond_setup") - t0;
}

bool PrecondHandle::matches(const std::vector<int>& offsets) const {
  if (active_.empty() || active_.size() + 1 != offsets.size()) return false;
  for (std::size_t d = 0; d < active_.size(); ++d) {
    if (active_[d]->row0 != offsets[d] || active_[d]->row1 != offsets[d + 1])
      return false;
  }
  return true;
}

void PrecondHandle::apply(sim::Machine& m, const sim::DistMultiVec& in,
                          int incol, sim::DistMultiVec& out, int outcol) {
  const int nd = n_devices();
  CAGMRES_REQUIRE(nd > 0, "PrecondHandle::apply before build");
  CAGMRES_REQUIRE(in.n_parts() == nd && out.n_parts() == nd,
                  "precond: multivector split does not match the handle");
  sim::PhaseScope phase(m, "precond");
  for (int d = 0; d < nd; ++d) {
    const DeviceFactor& f = *active_[static_cast<std::size_t>(d)];
    CAGMRES_REQUIRE(in.local_rows(d) == f.n() && out.local_rows(d) == f.n(),
                    "precond: multivector rows do not match the factor");
    trisolve(m, d, f, in.col(d, incol), out.col(d, outcol));
  }
  ++stats_.applies;
}

}  // namespace cagmres::precond
