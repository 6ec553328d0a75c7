#include "precond/precond.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "precond/trisolve.hpp"

namespace cagmres::precond {

std::string PrecondSpec::to_string() const {
  if (!armed()) return "none";
  std::string out = "ilu:k=" + std::to_string(level);
  if (underlap > 0) out += ",underlap=" + std::to_string(underlap);
  return out;
}

PrecondSpec parse_precond_spec(const std::string& text) {
  PrecondSpec spec;
  if (text.empty() || text == "none" || text == "off" || text == "0")
    return spec;
  std::string body;
  if (text == "ilu") {
    spec.kind = PrecondKind::kIlu;
    return spec;
  }
  if (text.rfind("ilu:", 0) == 0) {
    spec.kind = PrecondKind::kIlu;
    body = text.substr(4);
  } else {
    throw Error("precond spec: unknown preconditioner "
                "(want none|ilu[:k=K,underlap=U]): " + text);
  }
  std::size_t pos = 0;
  while (pos <= body.size()) {
    std::size_t comma = body.find(',', pos);
    if (comma == std::string::npos) comma = body.size();
    const std::string entry = body.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos)
      throw Error("precond spec: want key=value: " + entry);
    const std::string key = entry.substr(0, eq);
    int value = 0;
    try {
      value = std::stoi(entry.substr(eq + 1));
    } catch (const std::exception&) {
      throw Error("precond spec: bad integer in: " + entry);
    }
    if (value < 0) throw Error("precond spec: negative value in: " + entry);
    if (key == "k" || key == "level") {
      spec.level = value;
    } else if (key == "underlap" || key == "u") {
      spec.underlap = value;
    } else {
      throw Error("precond spec: unknown key (want k|level|underlap|u): " +
                  key);
    }
  }
  return spec;
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
  ilu_symbolic(a, row0, row1, spec_.level, spec_.underlap, *f);
  ++stats_.symbolic_builds;
  const double fill = static_cast<double>(f->fill_nnz());
  // Symbolic analysis is host-side graph work: the pattern merge touches
  // index data proportional to the fill.
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
    stats_.max_levels_l = std::max(stats_.max_levels_l, f->l_sched.levels());
    stats_.max_levels_u = std::max(stats_.max_levels_u, f->u_sched.levels());
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
    level_trisolve(m, d, f, in.col(d, incol), out.col(d, outcol));
  }
  ++stats_.applies;
}

}  // namespace cagmres::precond
