// Instruction-set builds of the host vector kernels (DESIGN.md §17).
//
// blas3.cpp and ell.cpp compile their kernels once at the baseline and,
// where CAGMRES_AVX2_BUILD is defined (x86-64 under GCC), once more with
// AVX2 enabled. Every build gives the same bits, so the widest one the CPU
// runs is used; there is nothing for a caller to choose.
#pragma once

#include <cstddef>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define CAGMRES_AVX2_BUILD 1
#endif

namespace cagmres {

/// How many kernel builds, ordered by width, this CPU can run: 2 when the
/// AVX2 build exists and the CPU (and OS) support AVX2, else 1.
inline std::size_t runnable_isa_builds() {
#ifdef CAGMRES_AVX2_BUILD
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2 ? 2 : 1;
#else
  return 1;
#endif
}

}  // namespace cagmres
