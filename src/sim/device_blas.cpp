#include "sim/device_blas.hpp"

#include <limits>
#include <vector>

#include "blas/blas1.hpp"
#include "blas/blas2.hpp"
#include "blas/blas3.hpp"
#include "blas/lapack.hpp"

// Execution model (see DESIGN.md §9): every wrapper charges the simulated
// clock, polls/latches injected faults, and bumps counters on the CALLING
// host thread, in program order — then hands the pure numerical body to the
// machine's host pool as a closure on device d's in-order stream. Operands
// that live in device-owned blocks are captured by pointer (disjoint per
// stream); small host-side operands that the caller may overwrite before
// the worker runs (reduction coefficients, R factors) are copied by value
// into the closure. dev_dot and dev_qr_explicit stay synchronous: their
// results feed immediately into host control flow.

namespace cagmres::sim {

namespace {

constexpr double kW = 8.0;  // bytes per double word

/// Injected transient kernel fault: overwrite the op's output with NaN.
/// The recovery layer detects the poison at the next block-norm / finite
/// check and replays the tainted block.
void poison(double* p, int n) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < n; ++i) p[i] = nan;
}

void poison_panel(double* p, int rows, int cols, int ld) {
  for (int j = 0; j < cols; ++j) {
    poison(p + static_cast<std::size_t>(j) * ld, rows);
  }
}

/// Copies `n` doubles starting at `p` for closure capture.
std::vector<double> snap(const double* p, int n) {
  return std::vector<double>(p, p + n);
}

/// Copies a rows x cols panel (leading dimension ld) into a dense column-
/// major copy with leading dimension `rows`, for closure capture.
std::vector<double> snap_panel(const double* p, int rows, int cols, int ld) {
  std::vector<double> out(static_cast<std::size_t>(rows) * cols);
  for (int j = 0; j < cols; ++j) {
    const double* src = p + static_cast<std::size_t>(j) * ld;
    std::copy(src, src + rows,
              out.begin() + static_cast<std::ptrdiff_t>(j) * rows);
  }
  return out;
}

/// Charged flops and bytes of one device kernel.
struct KernelCost {
  double flops = 0.0;
  double bytes = 0.0;
};

KernelCost spmv_ell_cost(const sparse::EllMatrix& a) {
  const double slots = static_cast<double>(a.stored_slots());
  // 8B value + 4B index + 8B gathered x per slot, plus the result vector.
  return {2.0 * slots, slots * 20.0 + kW * a.n_rows};
}

/// CSR SpMV over the first `rows` rows of `a`.
KernelCost spmv_csr_cost(const sparse::CsrMatrix& a, int rows) {
  const double nnz =
      rows > 0 ? static_cast<double>(a.row_ptr[static_cast<std::size_t>(rows)])
               : 0.0;
  return {2.0 * nnz, nnz * 20.0 + 12.0 * rows};
}

}  // namespace

double dev_dot(Machine& m, int d, int n, const double* x, const double* y) {
  // Synchronous: the caller consumes the scalar immediately (norms,
  // convergence checks), so drain the stream and compute on this thread.
  m.charge_device(d, Kernel::kDot, 2.0 * n, 2.0 * kW * n);
  const bool hit = m.consume_kernel_fault(d);
  m.drain_device(d);
  const double out = blas::dot(n, x, y);
  if (hit) return std::numeric_limits<double>::quiet_NaN();
  return out;
}

void dev_col_sqnorms(Machine& m, int d, int rows, int k, const double* a,
                     int lda, double* out) {
  const double elems = static_cast<double>(rows) * k;
  m.charge_device(d, Kernel::kDot, 2.0 * elems, kW * elems);
  const bool hit = m.consume_kernel_fault(d);
  m.drain_device(d);
  for (int j = 0; j < k; ++j) {
    const double* col = a + static_cast<std::size_t>(j) * lda;
    out[j] = hit ? std::numeric_limits<double>::quiet_NaN()
                 : blas::dot(rows, col, col);
  }
}

void dev_axpy(Machine& m, int d, int n, double alpha, const double* x,
              double* y) {
  m.charge_device(d, Kernel::kAxpy, 2.0 * n, 3.0 * kW * n);
  const bool hit = m.consume_kernel_fault(d);
  m.run_on_device(d, [=] {
    blas::axpy(n, alpha, x, y);
    if (hit) poison(y, n);
  });
}

void dev_scal(Machine& m, int d, int n, double alpha, double* x) {
  m.charge_device(d, Kernel::kScal, 1.0 * n, 2.0 * kW * n);
  const bool hit = m.consume_kernel_fault(d);
  m.run_on_device(d, [=] {
    blas::scal(n, alpha, x);
    if (hit) poison(x, n);
  });
}

void dev_copy(Machine& m, int d, int n, const double* x, double* y) {
  m.charge_device(d, Kernel::kCopy, 0.0, 2.0 * kW * n);
  const bool hit = m.consume_kernel_fault(d);
  m.run_on_device(d, [=] {
    blas::copy(n, x, y);
    if (hit) poison(y, n);
  });
}

void dev_gemv_t(Machine& m, int d, int rows, int k, const double* a, int lda,
                const double* x, double* y) {
  m.charge_device(d, Kernel::kGemv, 2.0 * rows * k,
                  kW * (static_cast<double>(rows) * k + rows + k));
  const bool hit = m.consume_kernel_fault(d);
  m.run_on_device(d, [=] {
    blas::gemv_t(rows, k, 1.0, a, lda, x, 0.0, y);
    if (hit) poison(y, k);
  });
}

void dev_gemv_n_sub(Machine& m, int d, int rows, int k, const double* a,
                    int lda, const double* r, double* y) {
  m.charge_device(d, Kernel::kGemv, 2.0 * rows * k,
                  kW * (static_cast<double>(rows) * k + 2.0 * rows + k));
  const bool hit = m.consume_kernel_fault(d);
  // r is a host-side coefficient vector the caller reuses next iteration.
  m.run_on_device(d, [=, rc = snap(r, k)] {
    blas::gemv_n(rows, k, -1.0, a, lda, rc.data(), 1.0, y);
    if (hit) poison(y, rows);
  });
}

void dev_gemv_n_acc(Machine& m, int d, int rows, int k, const double* a,
                    int lda, const double* r, double* y) {
  m.charge_device(d, Kernel::kGemv, 2.0 * static_cast<double>(rows) * k,
                  kW * (static_cast<double>(rows) * k + 2.0 * rows + k));
  const bool hit = m.consume_kernel_fault(d);
  m.run_on_device(d, [=, rc = snap(r, k)] {
    blas::gemv_n(rows, k, 1.0, a, lda, rc.data(), 1.0, y);
    if (hit) poison(y, rows);
  });
}

void dev_ger_sub(Machine& m, int d, int rows, int k, const double* x,
                 const double* c, double* b, int ldb) {
  m.charge_device(d, Kernel::kGemv, 2.0 * static_cast<double>(rows) * k,
                  kW * (2.0 * static_cast<double>(rows) * k + rows + k));
  const bool hit = m.consume_kernel_fault(d);
  m.run_on_device(d, [=, cc = snap(c, k)] {
    blas::ger(rows, k, -1.0, x, cc.data(), b, ldb);
    if (hit) poison_panel(b, rows, k, ldb);
  });
}

void dev_gram(Machine& m, int d, int rows, int k, const double* a, int lda,
              double* c, int ldc) {
  // Symmetric rank-k: k(k+1)/2 dot products of length `rows`.
  m.charge_device(d, Kernel::kGemm,
                  static_cast<double>(rows) * k * (k + 1),
                  kW * (static_cast<double>(rows) * k + static_cast<double>(k) * k));
  const bool hit = m.consume_kernel_fault(d);
  m.run_on_device(d, [=] {
    blas::syrk_tn(rows, k, a, lda, c, ldc);
    if (hit) poison_panel(c, k, k, ldc);
  });
}

void dev_gram_float(Machine& m, int d, int rows, int k, const double* a,
                    int lda, double* c, int ldc) {
  // SGEMM runs at ~2x the DGEMM rate and moves half the bytes; model that
  // by halving both terms of the standard Gram charge.
  m.charge_device(d, Kernel::kGemm,
                  0.5 * static_cast<double>(rows) * k * (k + 1),
                  0.5 * kW *
                      (static_cast<double>(rows) * k +
                       static_cast<double>(k) * k));
  const bool hit = m.consume_kernel_fault(d);
  m.run_on_device(d, [=] {
    // Real float numerics: demote the panel column-by-column, accumulate
    // the Gram products in float, promote the result.
    std::vector<float> fa(static_cast<std::size_t>(rows) *
                          static_cast<std::size_t>(k));
    for (int j = 0; j < k; ++j) {
      const double* col = a + static_cast<std::size_t>(j) * lda;
      float* fcol = fa.data() + static_cast<std::size_t>(j) * rows;
      for (int i = 0; i < rows; ++i) fcol[i] = static_cast<float>(col[i]);
    }
    for (int j = 0; j < k; ++j) {
      const float* fj = fa.data() + static_cast<std::size_t>(j) * rows;
      for (int i = 0; i <= j; ++i) {
        const float* fi = fa.data() + static_cast<std::size_t>(i) * rows;
        float acc = 0.0f;
        for (int p = 0; p < rows; ++p) acc += fi[p] * fj[p];
        c[static_cast<std::size_t>(j) * ldc + i] = static_cast<double>(acc);
        c[static_cast<std::size_t>(i) * ldc + j] = static_cast<double>(acc);
      }
    }
    if (hit) poison_panel(c, k, k, ldc);
  });
}

void dev_gemm_tn(Machine& m, int d, int rows, int ka, int kb, const double* a,
                 int lda, const double* b, int ldb, double* c, int ldc) {
  m.charge_device(d, Kernel::kGemm,
                  2.0 * static_cast<double>(rows) * ka * kb,
                  kW * (static_cast<double>(rows) * (ka + kb) +
                        static_cast<double>(ka) * kb));
  const bool hit = m.consume_kernel_fault(d);
  m.run_on_device(d, [=] {
    blas::gemm(blas::Trans::T, blas::Trans::N, ka, kb, rows, 1.0, a, lda, b,
               ldb, 0.0, c, ldc);
    if (hit) poison_panel(c, ka, kb, ldc);
  });
}

void dev_gemm_nn_sub(Machine& m, int d, int rows, int ka, int kb,
                     const double* a, int lda, const double* c, int ldc,
                     double* b, int ldb) {
  m.charge_device(d, Kernel::kGemm,
                  2.0 * static_cast<double>(rows) * ka * kb,
                  kW * (static_cast<double>(rows) * (ka + 2.0 * kb) +
                        static_cast<double>(ka) * kb));
  const bool hit = m.consume_kernel_fault(d);
  // c is the broadcast host-side coefficient block; callers reuse it.
  m.run_on_device(d, [=, cc = snap_panel(c, ka, kb, ldc)] {
    blas::gemm(blas::Trans::N, blas::Trans::N, rows, kb, ka, -1.0, a, lda,
               cc.data(), ka, 1.0, b, ldb);
    if (hit) poison_panel(b, rows, kb, ldb);
  });
}

void dev_gemm_nn(Machine& m, int d, int rows, int ka, int kb, const double* a,
                 int lda, const double* c, int ldc, double* b, int ldb) {
  m.charge_device(d, Kernel::kGemm,
                  2.0 * static_cast<double>(rows) * ka * kb,
                  kW * (static_cast<double>(rows) * (ka + kb) +
                        static_cast<double>(ka) * kb));
  const bool hit = m.consume_kernel_fault(d);
  m.run_on_device(d, [=, cc = snap_panel(c, ka, kb, ldc)] {
    blas::gemm(blas::Trans::N, blas::Trans::N, rows, kb, ka, 1.0, a, lda,
               cc.data(), ka, 0.0, b, ldb);
    if (hit) poison_panel(b, rows, kb, ldb);
  });
}

void dev_trsm(Machine& m, int d, int rows, int k, const double* r, int ldr,
              double* b, int ldb) {
  m.charge_device(d, Kernel::kTrsm,
                  static_cast<double>(rows) * k * k,
                  kW * (2.0 * static_cast<double>(rows) * k +
                        0.5 * static_cast<double>(k) * k));
  const bool hit = m.consume_kernel_fault(d);
  m.run_on_device(d, [=, rc = snap_panel(r, k, k, ldr)] {
    blas::trsm_right_upper(rows, k, rc.data(), k, b, ldb);
    if (hit) poison_panel(b, rows, k, ldb);
  });
}

void dev_qr_explicit(Machine& m, int d, const blas::DMat& v, blas::DMat& q,
                     blas::DMat& r) {
  const double rows = v.rows();
  const double k = v.cols();
  // geqrf ~ 2 m k^2 plus orgqr ~ 2 m k^2 (paper Fig. 10: 4 n s^2, xGEQR2).
  m.charge_device(d, Kernel::kGeqrf, 4.0 * rows * k * k,
                  kW * 4.0 * rows * k);
  const bool hit = m.consume_kernel_fault(d);
  // Synchronous: callers pass loop-local panels and read q/r right away.
  m.drain_device(d);
  blas::qr_explicit(v, q, r);
  if (hit) poison_panel(q.data(), q.rows(), q.cols(), q.ld());
}

void dev_spmv_ell(Machine& m, int d, const sparse::EllMatrix& a,
                  const double* x, double* y) {
  const KernelCost c = spmv_ell_cost(a);
  m.charge_device(d, Kernel::kSpmvEll, c.flops, c.bytes);
  const bool hit = m.consume_kernel_fault(d);
  const sparse::EllMatrix* ap = &a;
  m.run_on_device(d, [=] {
    sparse::spmv(*ap, x, y);
    if (hit) poison(y, ap->n_rows);
  });
}

void dev_spmv_csr(Machine& m, int d, const sparse::CsrMatrix& a,
                  const double* x, double* y) {
  const KernelCost c = spmv_csr_cost(a, a.n_rows);
  m.charge_device(d, Kernel::kSpmvCsr, c.flops, c.bytes);
  const bool hit = m.consume_kernel_fault(d);
  const sparse::CsrMatrix* ap = &a;
  m.run_on_device(d, [=] {
    sparse::spmv(*ap, x, y);
    if (hit) poison(y, ap->n_rows);
  });
}

bool charge_mpk_step(Machine& m, int d, const sparse::EllMatrix* ell,
                     const sparse::CsrMatrix& csr,
                     const sparse::CsrMatrix& boundary, int brows,
                     int shift_terms) {
  const int owned = ell != nullptr ? ell->n_rows : csr.n_rows;
  KernelCost c = ell != nullptr ? spmv_ell_cost(*ell)
                                : spmv_csr_cost(csr, csr.n_rows);
  // The boundary rows are CSR-traversed, so inside an ELL-classed kernel
  // their bytes carry the uncoalesced penalty.
  const KernelCost b = spmv_csr_cost(boundary, brows);
  c.flops += b.flops;
  c.bytes += (ell != nullptr ? kCsrUncoalesced : 1.0) * b.bytes;
  // The shift epilogue reads z_{k-1} (and z_{k-2} for a pair) on every
  // computed row; the result is still in registers, so the store of the
  // owned rows is one write.
  const double rows = static_cast<double>(owned + brows);
  c.flops += 2.0 * shift_terms * rows;
  c.bytes += kW * shift_terms * rows + kW * owned;
  m.charge_device(d, ell != nullptr ? Kernel::kSpmvEll : Kernel::kSpmvCsr,
                  c.flops, c.bytes);
  return m.consume_kernel_fault(d);
}

void dev_pack(Machine& m, int d, const std::vector<int>& idx, const double* x,
              double* out) {
  const double cnt = static_cast<double>(idx.size());
  m.charge_device(d, Kernel::kPack, 0.0, cnt * 20.0);
  const bool hit = m.consume_kernel_fault(d);
  const std::vector<int>* ip = &idx;  // plan-owned, outlives the solve
  m.run_on_device(d, [=] {
    for (std::size_t i = 0; i < ip->size(); ++i) out[i] = x[(*ip)[i]];
    if (hit) poison(out, static_cast<int>(ip->size()));
  });
}

void dev_unpack(Machine& m, int d, const std::vector<int>& idx,
                const double* in, double* x) {
  const double cnt = static_cast<double>(idx.size());
  m.charge_device(d, Kernel::kPack, 0.0, cnt * 20.0);
  const bool hit = m.consume_kernel_fault(d);
  const std::vector<int>* ip = &idx;
  m.run_on_device(d, [=] {
    for (std::size_t i = 0; i < ip->size(); ++i) x[(*ip)[i]] = in[i];
    if (hit) {
      const double nan = std::numeric_limits<double>::quiet_NaN();
      for (const int i : *ip) x[i] = nan;
    }
  });
}

}  // namespace cagmres::sim
