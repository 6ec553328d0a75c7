#include "core/solver_common.hpp"

#include <cmath>
#include <cstdio>

#include "blas/blas1.hpp"
#include "common/error.hpp"

namespace cagmres::core {

Basis parse_basis(const std::string& name) {
  if (name == "monomial") return Basis::kMonomial;
  if (name == "newton") return Basis::kNewton;
  throw Error("unknown basis: " + name + " (expected monomial|newton)");
}

std::string to_string(Basis b) {
  return b == Basis::kMonomial ? "monomial" : "newton";
}

TierTraffic tier_traffic(const sim::Counters& before,
                         const sim::Counters& after) {
  TierTraffic t;
  t.peer_bytes = after.peer_bytes - before.peer_bytes;
  t.peer_msgs = after.peer_msgs - before.peer_msgs;
  t.pcie_bytes = (after.d2h_bytes + after.h2d_bytes) -
                 (before.d2h_bytes + before.h2d_bytes);
  t.pcie_msgs =
      (after.d2h_msgs + after.h2d_msgs) - (before.d2h_msgs + before.h2d_msgs);
  t.net_bytes = after.net_bytes - before.net_bytes;
  t.net_msgs = after.net_msgs - before.net_msgs;
  t.peer_logical_bytes = after.peer_logical_bytes - before.peer_logical_bytes;
  t.pcie_logical_bytes =
      (after.d2h_logical_bytes + after.h2d_logical_bytes) -
      (before.d2h_logical_bytes + before.h2d_logical_bytes);
  t.net_logical_bytes = after.net_logical_bytes - before.net_logical_bytes;
  return t;
}

TierTraffic& TierTraffic::operator+=(const TierTraffic& o) {
  peer_bytes += o.peer_bytes;
  peer_msgs += o.peer_msgs;
  pcie_bytes += o.pcie_bytes;
  pcie_msgs += o.pcie_msgs;
  net_bytes += o.net_bytes;
  net_msgs += o.net_msgs;
  peer_logical_bytes += o.peer_logical_bytes;
  pcie_logical_bytes += o.pcie_logical_bytes;
  net_logical_bytes += o.net_logical_bytes;
  return *this;
}

void finalize_phase_times(SolveStats& st, const sim::PhaseTimers& before,
                          const sim::PhaseTimers& after) {
  const auto delta = [&](const char* label) {
    return after.get(label) - before.get(label);
  };
  st.time_spmv = delta("spmv");
  st.time_mpk = delta("mpk");
  st.time_orth = delta("orth");
  st.time_borth = delta("borth");
  st.time_tsqr = delta("tsqr");
  // One left-to-right sum of the four terms, not a sum of two deltas:
  // the rounding differs when both labels moved.
  st.time_precond = after.get("precond") - before.get("precond") +
                    after.get("precond_setup") - before.get("precond_setup");
  st.time_other = st.time_total - st.time_spmv - st.time_mpk - st.time_orth -
                  st.time_borth - st.time_tsqr - st.time_precond;
}

void trace_tier_traffic(sim::Machine& machine, const sim::Counters& before) {
  if (!machine.tracing()) return;
  const TierTraffic t = tier_traffic(before, machine.counters());
  const bool compressed = t.compressed();
  const auto fmt = [compressed](double bytes, std::int64_t msgs,
                                double ratio) {
    char buf[80];
    if (compressed) {
      std::snprintf(buf, sizeof(buf), "%.1fKB/%lld(x%.2f)", bytes / 1024.0,
                    static_cast<long long>(msgs), ratio);
    } else {
      std::snprintf(buf, sizeof(buf), "%.1fKB/%lld", bytes / 1024.0,
                    static_cast<long long>(msgs));
    }
    return std::string(buf);
  };
  machine.trace_instant(
      "traffic:peer=" + fmt(t.peer_bytes, t.peer_msgs, t.peer_ratio()) +
          ":pcie=" + fmt(t.pcie_bytes, t.pcie_msgs, t.pcie_ratio()) +
          ":net=" + fmt(t.net_bytes, t.net_msgs, t.net_ratio()),
      "other");
}

std::vector<int> Problem::rows_per_device() const {
  std::vector<int> rows;
  rows.reserve(offsets.size() - 1);
  for (std::size_t d = 0; d + 1 < offsets.size(); ++d) {
    rows.push_back(offsets[d + 1] - offsets[d]);
  }
  return rows;
}

Problem make_problem(const sparse::CsrMatrix& a, const std::vector<double>& b,
                     int n_devices, graph::Ordering ordering, bool balance,
                     std::uint64_t seed, int n_nodes) {
  CAGMRES_REQUIRE(a.n_rows == a.n_cols, "need a square system");
  CAGMRES_REQUIRE(static_cast<int>(b.size()) == a.n_rows, "rhs size mismatch");
  Problem p;
  const graph::Partition part =
      graph::make_partition(a, n_devices, ordering, seed, n_nodes);
  p.perm = part.perm;
  p.offsets = part.offsets;
  p.a = sparse::permute_symmetric(a, p.perm);
  p.b.resize(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    p.b[i] = b[static_cast<std::size_t>(p.perm[i])];
  }
  p.balanced = balance;
  if (balance) {
    p.scaling = sparse::balance(p.a);
    sparse::scale_rhs(p.scaling, p.b);
  } else {
    p.scaling.row.assign(b.size(), 1.0);
    p.scaling.col.assign(b.size(), 1.0);
  }
  p.b_norm = blas::nrm2(static_cast<int>(p.b.size()), p.b.data());
  return p;
}

Problem repartition_problem(const Problem& p, int n_devices) {
  CAGMRES_REQUIRE(n_devices >= 1, "need at least one device");
  Problem q = p;
  const graph::Partition part =
      graph::make_partition(q.a, n_devices, graph::Ordering::kNatural);
  q.offsets = part.offsets;
  return q;
}

std::vector<double> recover_solution(const Problem& p,
                                     const std::vector<double>& x_prepared) {
  CAGMRES_REQUIRE(x_prepared.size() == p.perm.size(), "solution size mismatch");
  std::vector<double> x(x_prepared.size());
  for (std::size_t i = 0; i < x_prepared.size(); ++i) {
    x[static_cast<std::size_t>(p.perm[i])] = p.scaling.col[i] * x_prepared[i];
  }
  return x;
}

double true_residual(const sparse::CsrMatrix& a_orig,
                     const std::vector<double>& b_orig,
                     const std::vector<double>& x_orig) {
  std::vector<double> ax(b_orig.size(), 0.0);
  sparse::spmv(a_orig, x_orig.data(), ax.data());
  double acc = 0.0;
  for (std::size_t i = 0; i < b_orig.size(); ++i) {
    const double r = b_orig[i] - ax[i];
    acc += r * r;
  }
  return std::sqrt(acc);
}

}  // namespace cagmres::core
