#include "sim/perf_model.hpp"

#include <algorithm>

namespace cagmres::sim {

double PerfModel::device_peak(Kernel k) const {
  const bool opt = (profile == KernelProfile::kOptimized);
  switch (k) {
    case Kernel::kDot:
      return dot_peak;
    case Kernel::kAxpy:
    case Kernel::kScal:
    case Kernel::kCopy:
      return dev_mem_bw;  // pure streaming; flops negligible
    case Kernel::kGemv:
      return opt ? gemv_peak_opt : gemv_peak_std;
    case Kernel::kGemm:
      return opt ? gemm_peak_opt : gemm_peak_std;
    case Kernel::kTrsm:
      return trsm_peak;
    case Kernel::kGeqrf:
      return geqrf_peak;
    case Kernel::kSpmvEll:
    case Kernel::kSpmvCsr:
    case Kernel::kPack:
      return spmv_bw;  // memory bound
    case Kernel::kSmall:
      return 1e9;
    case Kernel::kCodec:
      return codec_bw;  // bandwidth bound by construction
  }
  return 1e9;
}

double PerfModel::device_seconds(Kernel k, double flops, double bytes) const {
  // kCodec is launch-free: (de)compression is fused into the pack/DMA
  // pipeline, so compressing a tiny message can never lose to shipping it
  // raw through a fixed dispatch cost the fused path does not pay.
  if (k == Kernel::kCodec) return bytes / codec_bw;
  double t = kernel_launch_s;
  switch (k) {
    case Kernel::kDot:
      t += flops / dot_peak + bytes / dev_mem_bw;
      break;
    case Kernel::kAxpy:
    case Kernel::kScal:
    case Kernel::kCopy:
    case Kernel::kPack:
      t += bytes / dev_mem_bw;
      break;
    case Kernel::kSpmvEll:
      t += bytes / spmv_bw;
      break;
    case Kernel::kSpmvCsr:
      t += kCsrUncoalesced * bytes / spmv_bw;
      break;
    case Kernel::kGemv:
    case Kernel::kGemm:
    case Kernel::kTrsm:
    case Kernel::kGeqrf:
      t += flops / device_peak(k) + bytes / dev_mem_bw;
      break;
    case Kernel::kSmall:
      t += flops / device_peak(k);
      break;
    case Kernel::kCodec:
      break;  // handled above
  }
  return t;
}

double PerfModel::host_seconds(Kernel k, double flops, double bytes) const {
  double t = cpu_small_op_s;
  switch (k) {
    case Kernel::kGemm:
    case Kernel::kTrsm:
      t += flops / cpu_gemm_peak + bytes / cpu_mem_bw;
      break;
    case Kernel::kSpmvCsr:
    case Kernel::kSpmvEll:
      t += bytes / cpu_spmv_bw;
      break;
    case Kernel::kGeqrf:
      t += flops / (cpu_blas12_peak * 2.0) + bytes / cpu_mem_bw;
      break;
    default:
      t += flops / cpu_blas12_peak + bytes / cpu_mem_bw;
      break;
  }
  return t;
}

double PerfModel::transfer_seconds(double bytes) const {
  return pcie_latency_s + bytes / pcie_bw;
}

double PerfModel::net_seconds(double bytes) const {
  return net_latency_s + bytes / net_bw;
}

double PerfModel::peer_seconds(double bytes) const {
  return peer_latency_s + bytes / peer_bw;
}

}  // namespace cagmres::sim
