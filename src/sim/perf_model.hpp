// Calibrated performance model for the simulated multi-GPU node.
//
// The paper's testbed is one Keeneland node: two 8-core Sandy Bridge CPUs
// and three NVIDIA M2090 (Fermi) GPUs on PCIe gen2, CUDA/CUBLAS 4.2 with
// MAGMA/batched kernel optimizations. No GPU exists in this environment, so
// every device operation and every host<->device transfer is *charged*
// against this model instead of timed. The numerics still execute for real;
// only the clock is synthetic.
//
// Cost of one kernel:   t = launch + flops / peak(kernel) + bytes / mem_bw
// Cost of one transfer: t = pcie_latency + bytes / pcie_bandwidth
//
// The additive form naturally reproduces the paper's Fig. 11 curves: small
// inputs are launch/latency bound (low effective GFlop/s), large inputs
// saturate at the kernel-class peak, and BLAS-1 kernels stay memory bound.
//
// Two profiles mirror the paper's before/after kernel study:
//  - kStandard:  CUBLAS 4.2 rates (poor on tall-skinny shapes),
//  - kOptimized: MAGMA tall-skinny DGEMV + batched DGEMM rates.
#pragma once

namespace cagmres::sim {

/// Device kernel classes with distinct throughput characteristics.
enum class Kernel {
  kDot,         ///< BLAS-1 reduction (DDOT/DNRM2)
  kAxpy,        ///< BLAS-1 update
  kScal,
  kCopy,
  kGemv,        ///< BLAS-2 tall-skinny matrix-vector
  kGemm,        ///< BLAS-3 tall-skinny matrix-matrix (Gram, block updates)
  kTrsm,        ///< triangular solve against a tall panel
  kGeqrf,       ///< local Householder QR (BLAS-1/2 bound; CAQR leaf)
  kSpmvEll,     ///< sparse matrix-vector, ELLPACK layout
  kSpmvCsr,     ///< sparse matrix-vector, CSR layout
  kPack,        ///< gather/scatter of indexed vector elements
  kSmall,       ///< tiny O(s^2)-O(s^3) device work (norm fixups etc.)
  kCodec,       ///< transfer payload (de)compression (DESIGN.md §14)
};

/// Time multiplier of a device CSR SpMV over the coalesced ELLPACK stream:
/// CSR on the device suffers uncoalesced row traversal, which is why the
/// paper uses ELLPACK on GPUs.
inline constexpr double kCsrUncoalesced = 1.8;

/// Kernel implementation generation (paper §V-F).
enum class KernelProfile {
  kStandard,   ///< CUBLAS 4.2 as shipped
  kOptimized,  ///< MAGMA tall-skinny DGEMV + batched DGEMM (the paper's)
};

/// Rate tables. Defaults are calibrated to the paper's M2090 numbers.
struct PerfModel {
  KernelProfile profile = KernelProfile::kOptimized;

  // --- device (calibrated to the paper's Fig. 11 M2090 measurements) ---
  double kernel_launch_s = 7e-6;       ///< per kernel launch
  /// Per-level dependency wait inside one sync-free triangular solve
  /// kernel (DESIGN.md §15): a row whose producer sits one level up waits
  /// for two dependent global-memory round trips, the producer's fenced
  /// counter store and then its own poll plus the read of x_j. The CUDA C
  /// Programming Guide (v4.x, Performance Guidelines, "Multiprocessor
  /// Level") puts an off-chip access on compute capability 2.x at 400-800
  /// clock cycles, 0.3-0.6 us at the M2090's 1.3 GHz shader clock: ~0.5 us
  /// per round trip, ~1 us per level.
  double sptrsv_level_s = 1e-6;
  double dev_mem_bw = 170e9;           ///< B/s streaming (M2090 ~177 peak)
  double gemm_peak_std = 25e9;         ///< CUBLAS 4.2 tall-skinny DGEMM
  double gemm_peak_opt = 140e9;        ///< batched DGEMM (~110 GF/s effective)
  double gemv_peak_std = 10e9;         ///< CUBLAS 4.2 DGEMV
  double gemv_peak_opt = 500e9;        ///< MAGMA DGEMV: bandwidth bound
                                       ///< (~44 GF/s effective at 0.25 f/B)
  double dot_peak = 30e9;              ///< DDOT (bandwidth bound in practice)
  double trsm_peak = 40e9;             ///< MAGMA DTRSM on tall panels
  double geqrf_peak = 9e9;             ///< panel QR (BLAS-1/2 bound)
  double spmv_bw = 120e9;              ///< effective ELLPACK SpMV streaming

  // --- host (two 8-core Sandy Bridge + MKL, Fig. 11's MKL curves) ---
  double cpu_gemm_peak = 70e9;         ///< MKL tall-skinny DGEMM flop/s
  double cpu_blas12_peak = 12e9;       ///< memory-bound BLAS-1/2 flop/s
  double cpu_mem_bw = 50e9;            ///< B/s
  double cpu_spmv_bw = 25e9;           ///< effective CSR SpMV streaming B/s
  double cpu_small_op_s = 1e-6;        ///< fixed cost of tiny host ops

  // --- interconnect (PCIe gen2 x16) ---
  // Latency includes the cudaMemcpyAsync/driver overhead of the era, which
  // dominated small transfers (calibrated against Fig. 8's s=1 -> s=4 gain).
  double pcie_latency_s = 25e-6;       ///< per message
  double pcie_bw = 5.5e9;              ///< B/s per direction per device

  // --- inter-node network (QDR InfiniBand class, for the multi-node
  // projection the paper's conclusion asks for) ---
  double net_latency_s = 15e-6;        ///< per MPI message (incl. stack)
  double net_bw = 3.2e9;               ///< B/s per link

  // --- intra-node peer link (NVLink-class, for the two-level hierarchy) ---
  // Devices on the same non-coordinating node exchange checkpoint shards and
  // node-local halo traffic at these rates instead of paying PCIe + network.
  double peer_latency_s = 8e-6;        ///< per peer message
  double peer_bw = 20e9;               ///< B/s per direction

  // --- halo transfer codec (DESIGN.md §14) ---
  // fp32 (de)compression is bandwidth bound and far above every link rate;
  // charged launch-free because it is modeled as fused into the pack/DMA
  // pipeline rather than as a separate kernel dispatch.
  double codec_bw = 100e9;             ///< B/s touched per (de)compress pass

  /// Seconds one device kernel takes under this model.
  double device_seconds(Kernel k, double flops, double bytes) const;

  /// Seconds the same class of work takes on the 16-core host.
  double host_seconds(Kernel k, double flops, double bytes) const;

  /// Seconds for one host<->device message of `bytes`.
  double transfer_seconds(double bytes) const;

  /// Seconds for one inter-node network message of `bytes`.
  double net_seconds(double bytes) const;

  /// Seconds for one intra-node (NVLink-class) peer message of `bytes`.
  double peer_seconds(double bytes) const;

  /// The flop/s rate this model uses for a device kernel class (peak, before
  /// launch/memory effects) — exposed for the Fig. 11 rate-curve bench.
  double device_peak(Kernel k) const;
};

}  // namespace cagmres::sim
