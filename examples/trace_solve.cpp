// Example: record a simulated-timeline trace of one CA-GMRES solve and
// write it as Chrome trace-event JSON.
//
//   $ ./trace_solve --out solve_trace.json
//   # then open chrome://tracing (or https://ui.perfetto.dev) and load it
//
// The trace makes the communication-avoiding structure visible: the three
// device rows compute concurrently, the MPK phase shows one pack/d2h/h2d
// burst per s basis vectors, and the CholQR TSQR appears as one gemm +
// one trsm per block instead of GMRES's per-iteration reduction ladders.
//
// The per-buffer event markers (DESIGN.md §10) show the sync schedule:
// "event:record" on the producing device row, "event:stream_wait" on the
// waiting device row, and "event:host_wait" on the host row — the halo
// expand rides behind stream waits on only the senders each device reads.
#include <cstdio>
#include <fstream>

#include "common/error.hpp"
#include "common/options.hpp"
#include "core/cagmres.hpp"
#include "precond/precond.hpp"
#include "sparse/generators.hpp"

int main(int argc, char** argv) {
  using namespace cagmres;
  Options opts("trace_solve — dump a Chrome trace of a CA-GMRES solve");
  opts.add("out", "solve_trace.json", "output JSON path");
  opts.add("ng", "3", "simulated GPUs");
  opts.add("s", "10", "CA-GMRES block size");
  opts.add("m", "40", "restart length");
  opts.add("max_restarts", "3", "restart cap (keeps the trace readable)");
  opts.add("faults", "",
           "fault schedule, e.g. \"seed=42;kill:d1@t=5ms;nan:p=0.001;"
           "corrupt:p=0.01\" (kinds: kill nan corrupt stall; one-shot "
           "triggers d<i>|*@t=<time>|op=<n>, rates kind:p=<prob>)");
  opts.add("health", "0",
           "arm the numerical health monitors (condition, false-convergence "
           "guard, stagnation watchdog) and the escalation ladder");
  opts.add("deadline", "0",
           "simulated-milliseconds watchdog on the machine clock; 0 = "
           "unlimited (overrun aborts the solve and still writes the "
           "partial trace); --max_restarts caps the work");
  opts.add("precond", "",
           "right-preconditioner spec: ilu (block ILU(0), DESIGN.md §15); "
           "empty or \"none\" runs unpreconditioned. Each apply shows "
           "up as two kSpmvCsr kernels per device (the L and U solves) "
           "inside the \"precond\" phase rows of the trace");
  if (!opts.parse(argc, argv)) return 0;

  const sparse::CsrMatrix a = sparse::make_cant_like(0.5);
  const std::vector<double> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const int ng = opts.get_int("ng");
  const core::Problem p =
      core::make_problem(a, b, ng, graph::Ordering::kNatural, true, 1);

  sim::Machine machine(ng);
  machine.enable_trace();
  machine.set_deadline(opts.get_double("deadline") * 1e-3);
  if (!opts.get("faults").empty()) {
    sim::parse_fault_spec(opts.get("faults"), machine.fault_injector());
  }
  core::SolverOptions so;
  so.m = opts.get_int("m");
  so.s = opts.get_int("s");
  so.max_restarts = opts.get_int("max_restarts");
  if (opts.get_bool("health")) {
    so.health.monitor_condition = true;
    so.health.monitor_residual_gap = true;
    so.health.monitor_stagnation = true;
  }

  // --precond arms a cached ILU(0) handle on the options so the solve runs
  // right-preconditioned.
  const precond::PrecondSpec pspec =
      precond::parse_precond_spec(opts.get("precond"));
  precond::PrecondHandle handle(pspec);
  if (pspec.armed()) so.precond = &handle;

  core::SolveResult res;
  try {
    res = core::ca_gmres(machine, p, so);
  } catch (const Error& e) {
    if (e.code() != ErrorCode::kDeadlineExceeded) throw;
    // The trace (ending in the watchdog:deadline instant, or the health:*
    // instants of an exhausted ladder) is still worth keeping.
    std::ofstream out(opts.get("out"));
    machine.trace().write_chrome_json(out);
    std::printf("solve aborted: %s\n", e.what());
    std::printf("partial trace (%zu events, %.2f simulated ms) -> %s\n",
                machine.trace().events().size(),
                machine.clock().elapsed() * 1e3, opts.get("out").c_str());
    return 1;
  }

  std::ofstream out(opts.get("out"));
  machine.trace().write_chrome_json(out);
  std::printf(
      "recorded %zu events over %.2f simulated ms (%d restarts) -> %s\n",
      machine.trace().events().size(), machine.clock().elapsed() * 1e3,
      res.stats.restarts, opts.get("out").c_str());
  std::printf("open chrome://tracing or ui.perfetto.dev and load the file;\n"
              "tid 0 is the host, tid 1..%d are the GPUs.\n\n", ng);

  // With --precond, the per-phase split shows where the preconditioner's
  // charged time went: "precond_setup" is the one-time symbolic + numeric
  // factorization, "precond" is the sync-free trisolves riding every basis
  // vector. Both phases also label their slices in the trace. The levels
  // printed are the factors' dependency depths, which each trisolve kernel
  // waits through.
  if (pspec.armed()) {
    const auto& ps = handle.stats();
    std::printf("precond %s: %d symbolic + %d numeric builds, "
                "%lld applies, fill %lld nnz, %d+%d levels (L+U)\n",
                pspec.to_string().c_str(), ps.symbolic_builds,
                ps.numeric_builds, static_cast<long long>(ps.applies),
                static_cast<long long>(ps.fill_nnz), ps.max_levels_l,
                ps.max_levels_u);
    std::printf("  phase timings: precond_setup %.3f ms, precond (apply) "
                "%.3f ms of %.3f ms total (time_precond %.3f ms)\n\n",
                machine.phases().get("precond_setup") * 1e3,
                machine.phases().get("precond") * 1e3,
                machine.clock().elapsed() * 1e3,
                res.stats.time_precond * 1e3);
  }

  // With --faults, every injection appears as an instant event on the
  // victim's timeline ("fault:kill", "fault:nan", ...) and the recovery
  // work the solver did shows up here and in the trace.
  const auto& rec = res.stats.recovery;
  if (machine.faults_armed()) {
    std::printf("faults injected: %lld (%d device failures, %lld NaN "
                "kernels, %lld corrupt + %lld stalled transfers)\n",
                static_cast<long long>(rec.faults_injected),
                rec.device_failures,
                static_cast<long long>(rec.kernel_faults),
                static_cast<long long>(rec.transfer_corruptions),
                static_cast<long long>(rec.transfer_stalls));
    std::printf("recovery: %lld transfer retries, %d block replays, %d "
                "rollbacks, %d repartitions, %.3f ms simulated time lost; "
                "%d of %d devices still alive, converged=%s\n\n",
                static_cast<long long>(rec.transfer_retries),
                rec.blocks_replayed, rec.rollbacks, rec.repartitions,
                rec.time_lost * 1e3, machine.n_devices(),
                machine.n_physical_devices(),
                res.stats.converged ? "yes" : "no");
  }

  // With --health, every monitor trip and escalation-ladder action is an
  // instant event on the host timeline ("health:...") and logged here.
  const auto& hev = res.stats.health_events;
  if (!hev.empty() || res.stats.ladder_steps > 0) {
    std::printf("health: %zu events, %d ladder steps taken\n", hev.size(),
                res.stats.ladder_steps);
    for (const auto& e : hev) {
      std::printf("  [%8.3f ms] restart %d iter %d: %s", e.time * 1e3,
                  e.restart, e.iteration, core::to_string(e.kind).c_str());
      if (e.action != core::EscalationStep::kNone) {
        std::printf(" -> %s", core::to_string(e.action).c_str());
      }
      if (!e.detail.empty()) std::printf(" (%s)", e.detail.c_str());
      std::printf("\n");
    }
  }
  if (res.stats.recurrence_residual >= 0.0 && res.stats.residual_gap > 0.0) {
    std::printf("residuals at exit: true %.3e, recurrence %.3e; "
                "true/recurrence gap at last restart check %.2fx "
                "(worst %.2fx)\n\n",
                res.stats.final_residual, res.stats.recurrence_residual,
                res.stats.residual_gap, res.stats.residual_gap_max);
  }

  // Where communication went, by interconnect tier (also emitted into the
  // trace as one "traffic:..." instant per restart on the host row). With a
  // transfer codec armed (CAGMRES_COMPRESS) the achieved per-tier
  // compression ratio rides along.
  const auto& tt = res.stats.traffic;
  if (tt.compressed()) {
    std::printf(
        "traffic: peer %.1f KB / %lld msgs (x%.2f), pcie %.1f KB / %lld "
        "msgs (x%.2f), net %.1f KB / %lld msgs (x%.2f)\n",
        tt.peer_bytes / 1024.0, static_cast<long long>(tt.peer_msgs),
        tt.peer_ratio(), tt.pcie_bytes / 1024.0,
        static_cast<long long>(tt.pcie_msgs), tt.pcie_ratio(),
        tt.net_bytes / 1024.0, static_cast<long long>(tt.net_msgs),
        tt.net_ratio());
    std::printf("codec: %s\n\n", sim::to_string(machine.halo_codec()).c_str());
  } else {
    std::printf(
        "traffic: peer %.1f KB / %lld msgs, pcie %.1f KB / %lld msgs, "
        "net %.1f KB / %lld msgs\n\n",
        tt.peer_bytes / 1024.0, static_cast<long long>(tt.peer_msgs),
        tt.pcie_bytes / 1024.0, static_cast<long long>(tt.pcie_msgs),
        tt.net_bytes / 1024.0, static_cast<long long>(tt.net_msgs));
  }

  // Per-kernel-class breakdown of the device work (the counters behind the
  // trace): effective rate = flops / simulated kernel time.
  std::printf("%-10s %10s %12s %12s\n", "kernel", "calls", "Mflop",
              "GF/s eff");
  const auto& c = machine.counters();
  for (int k = 0; k < sim::kKernelClasses; ++k) {
    const auto ki = static_cast<std::size_t>(k);
    if (c.kernel_count[ki] == 0) continue;
    std::printf("%-10s %10lld %12.2f %12.1f\n",
                sim::kernel_name(static_cast<sim::Kernel>(k)).c_str(),
                static_cast<long long>(c.kernel_count[ki]),
                c.kernel_flops[ki] / 1e6,
                c.kernel_seconds[ki] > 0.0
                    ? c.kernel_flops[ki] / c.kernel_seconds[ki] / 1e9
                    : 0.0);
  }
  return 0;
}
