// Charged device kernels: each function executes the real numerics on the
// corresponding device-resident block AND charges the simulated clock with
// the kernel's cost under the machine's PerfModel.
//
// These are the building blocks Fig. 9's pseudocodes are written in; the
// orthogonalization and MPK modules orchestrate them per device exactly as
// the paper's host code orchestrates CUDA kernels.
#pragma once

#include <vector>

#include "blas/matrix.hpp"
#include "sim/machine.hpp"
#include "sparse/csr.hpp"
#include "sparse/ell.hpp"

namespace cagmres::sim {

/// Local dot product on device d. The result conceptually stays on the
/// device; callers charge the d2h transfer when they reduce it on the host.
double dev_dot(Machine& m, int d, int n, const double* x, const double* y);

/// out[j] := a(:, j)^T a(:, j) for the k columns of an m x k panel on
/// device d: every squared column norm in one DOT-class launch (the
/// recovery layer's block scrub). Synchronous like dev_dot; a fault on the
/// launch NaN-poisons all k results.
void dev_col_sqnorms(Machine& m, int d, int rows, int k, const double* a,
                     int lda, double* out);

/// y := alpha*x + y on device d.
void dev_axpy(Machine& m, int d, int n, double alpha, const double* x,
              double* y);

/// x := alpha*x on device d.
void dev_scal(Machine& m, int d, int n, double alpha, double* x);

/// y := x on device d.
void dev_copy(Machine& m, int d, int n, const double* x, double* y);

/// y := A^T x for a tall-skinny m x k panel on device d (the CGS projection
/// kernel; rate depends on the machine's KernelProfile).
void dev_gemv_t(Machine& m, int d, int rows, int k, const double* a, int lda,
                const double* x, double* y);

/// y := y - A r for a tall-skinny m x k panel on device d (the CGS update).
void dev_gemv_n_sub(Machine& m, int d, int rows, int k, const double* a,
                    int lda, const double* r, double* y);

/// y := y + A r for a tall-skinny m x k panel on device d (the solution
/// update x += V y at the end of a restart cycle).
void dev_gemv_n_acc(Machine& m, int d, int rows, int k, const double* a,
                    int lda, const double* r, double* y);

/// B := B - x * c^T rank-1 update of an m x k panel (the MGS-based BOrth
/// update; BLAS-2 rate).
void dev_ger_sub(Machine& m, int d, int rows, int k, const double* x,
                 const double* c, double* b, int ldb);

/// C := A^T A (k x k Gram matrix of an m x k panel) on device d. BLAS-3;
/// under the Standard profile this is the slow CUBLAS DGEMM, under
/// Optimized it is the paper's batched DGEMM.
void dev_gram(Machine& m, int d, int rows, int k, const double* a, int lda,
              double* c, int ldc);

/// Mixed-precision Gram matrix: the panel is demoted to single precision
/// and C := A^T A is accumulated in float, then promoted back to double
/// (the paper's reference [23] scheme). Runs at twice the batched-DGEMM
/// rate with half the memory traffic; the result carries float rounding.
void dev_gram_float(Machine& m, int d, int rows, int k, const double* a,
                    int lda, double* c, int ldc);

/// C := A^T B for tall-skinny panels A (m x ka) and B (m x kb) on device d
/// (the BOrth projection).
void dev_gemm_tn(Machine& m, int d, int rows, int ka, int kb, const double* a,
                 int lda, const double* b, int ldb, double* c, int ldc);

/// B := B - A C for tall panels (the BOrth update): A is m x ka, C is
/// ka x kb, B is m x kb.
void dev_gemm_nn_sub(Machine& m, int d, int rows, int ka, int kb,
                     const double* a, int lda, const double* c, int ldc,
                     double* b, int ldb);

/// B := A * C for a tall m x ka panel A and small ka x kb C, overwriting the
/// m x kb panel B (the CAQR Q-update V := V_local_Q * Q_reduced).
void dev_gemm_nn(Machine& m, int d, int rows, int ka, int kb, const double* a,
                 int lda, const double* c, int ldc, double* b, int ldb);

/// B := B * R^{-1} for an m x k panel and upper-triangular k x k R on
/// device d (the CholQR orthogonalization step; MAGMA DTRSM in the paper).
void dev_trsm(Machine& m, int d, int rows, int k, const double* r, int ldr,
              double* b, int ldb);

/// Explicit thin QR of an m x k panel on device d (the CAQR leaf): returns
/// Q (m x k) and R (k x k). Charged at the BLAS-1/2 bound geqrf rate with
/// the 4 m k^2 flops of factor+form-Q (paper Fig. 10, CAQR row).
void dev_qr_explicit(Machine& m, int d, const blas::DMat& v, blas::DMat& q,
                     blas::DMat& r);

/// y := A x for a device-resident ELLPACK block.
void dev_spmv_ell(Machine& m, int d, const sparse::EllMatrix& a,
                  const double* x, double* y);

/// Charge half of one fused matrix-powers step on device d, the one kernel
/// per (step, device) of MpkExecutor::apply: the owned-row ELL SpMV, the
/// first `brows` rows of the `boundary` CSR block, the Newton shift
/// epilogue on every computed row (`shift_terms` = 0 for none, 1 for a
/// real shift, 2 for the second member of a complex pair) and the store of
/// the owned rows into the basis. Flops are the sum of the parts; bytes
/// are the local SpMV's as dev_spmv_ell charges them, the boundary rows'
/// times kCsrUncoalesced (CSR-traversed inside an ELL-classed kernel), 8 B
/// per computed row per shift term and 8 B per owned row for the store.
/// Classed kSpmvEll. Consumes device d's fault latch and returns whether
/// it was hit; the caller runs the numerics later and poisons everything
/// the step wrote on a hit.
bool charge_mpk_step(Machine& m, int d, const sparse::EllMatrix& ell,
                     const sparse::CsrMatrix& boundary, int brows,
                     int shift_terms);

/// out[i] := x[idx[i]] — gather (compress) kernel used by MPK and the
/// reduction paths to pack boundary elements into a contiguous send buffer.
void dev_pack(Machine& m, int d, const std::vector<int>& idx, const double* x,
              double* out);

/// x[idx[i]] := in[i] — scatter (expand) kernel.
void dev_unpack(Machine& m, int d, const std::vector<int>& idx,
                const double* in, double* x);

}  // namespace cagmres::sim
