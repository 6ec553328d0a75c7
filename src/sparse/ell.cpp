#include "sparse/ell.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>

#include "common/error.hpp"
#include "common/isa.hpp"

#ifdef CAGMRES_AVX2_BUILD
#include <immintrin.h>
#endif

// The row-blocked kernels (DESIGN.md §17) live in ell_kernels.inc and are
// compiled once per instruction-set variant: at the baseline (two-lane
// vectors, column gathers as two scalar loads) and, on x86-64 under GCC,
// with AVX2 enabled (four lanes, one vgatherdpd per register, no FMA). A
// block of rows keeps one accumulator lane per row, so every row still adds
// its slots one at a time in slot order: the result is the scalar row
// loop's, bit for bit, in every build.

namespace cagmres::sparse {

namespace {

namespace base {
constexpr int kVec = 2;
using Vec = double __attribute__((vector_size(kVec * sizeof(double))));
inline Vec gather(const double* x, const int* c) {
  return Vec{x[c[0]], x[c[1]]};
}
#include "sparse/ell_kernels.inc"
}  // namespace base

#ifdef CAGMRES_AVX2_BUILD
#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {
constexpr int kVec = 4;
using Vec = double __attribute__((vector_size(kVec * sizeof(double))));
inline Vec gather(const double* x, const int* c) {
  // The masked form with a zero source: the unmasked one reads an
  // uninitialized register that g++ warns about.
  return Vec(_mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), x,
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(c)),
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8));
}
#include "sparse/ell_kernels.inc"
}  // namespace avx2
#pragma GCC pop_options
#endif

constexpr detail::EllKernels kVariants[] = {
    {"baseline", base::spmv, base::mpk_step},
#ifdef CAGMRES_AVX2_BUILD
    {"avx2", avx2::spmv, avx2::mpk_step},
#endif
};

}  // namespace

std::span<const detail::EllKernels> detail::variants() {
  // kVariants is ordered by width, and this CPU runs a prefix of it.
  return {kVariants, runnable_isa_builds()};
}

void spmv(const EllMatrix& a, const double* x, double* y) {
  detail::variants().back().spmv(a, x, y);
}

bool mpk_step(const EllMatrix& a, const double* x, const double* x2,
              const StepShift& sh, double* z, double* out) {
  return detail::variants().back().mpk_step(a, x, x2, sh, z, out);
}

EllMatrix to_ell(const CsrMatrix& a) {
  EllMatrix out;
  out.n_rows = a.n_rows;
  out.n_cols = a.n_cols;
  int width = 0;
  for (int i = 0; i < a.n_rows; ++i) width = std::max(width, a.row_nnz(i));
  out.width = width;
  const std::size_t slots =
      static_cast<std::size_t>(a.n_rows) * static_cast<std::size_t>(width);
  out.col_idx.resize(slots);
  out.vals.assign(slots, 0.0);
  for (int i = 0; i < a.n_rows; ++i) {
    const auto lo = a.row_ptr[static_cast<std::size_t>(i)];
    const int len = a.row_nnz(i);
    for (int k = 0; k < width; ++k) {
      const std::size_t dst =
          static_cast<std::size_t>(k) * a.n_rows + static_cast<std::size_t>(i);
      if (k < len) {
        out.col_idx[dst] = a.col_idx[static_cast<std::size_t>(lo) + k];
        out.vals[dst] = a.vals[static_cast<std::size_t>(lo) + k];
      } else {
        // Pad with a self-reference and zero value: always a safe read.
        out.col_idx[dst] = std::min(i, a.n_cols - 1);
      }
    }
  }
  return out;
}

double padding_ratio(const EllMatrix& a, std::int64_t nnz) {
  if (a.stored_slots() == 0) return 0.0;
  return 1.0 - static_cast<double>(nnz) / static_cast<double>(a.stored_slots());
}

}  // namespace cagmres::sparse
