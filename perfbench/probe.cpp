#include <cstddef>
#include <vector>

#include "blas/blas3.hpp"
#include "measure.hpp"

namespace perfbench {

MetricList run_host_probe(double llc_bytes) {
  // Triad: a = b + q c over three arrays totalling >= 4x the LLC, so every
  // pass streams from DRAM whatever a neighbour keeps in the shared cache.
  const std::size_t n = static_cast<std::size_t>(4.0 * llc_bytes / 24.0) + 1;
  std::vector<double> a(n), b(n), c(n);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  const double q = 3.0;
  std::vector<double> gbs;
  for (int rep = 0; rep < 7; ++rep) {
    const double t0 = now_s();
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
      a[i] = b[i] + q * c[i];
    }
    const double t1 = now_s();
    gbs.push_back(24.0 * static_cast<double>(n) / (t1 - t0) * 1e-9);
  }

  // gemm: one fixed square shape, the library's own blocked kernel.
  const int k = 384;
  std::vector<double> x(static_cast<std::size_t>(k) * k, 0.5);
  std::vector<double> y(static_cast<std::size_t>(k) * k, 0.25);
  std::vector<double> z(static_cast<std::size_t>(k) * k, 0.0);
  std::vector<double> gf;
  for (int rep = 0; rep < 7; ++rep) {
    const double t0 = now_s();
    blas::gemm(blas::Trans::N, blas::Trans::N, k, k, k, 1.0, x.data(), k,
               y.data(), k, 0.0, z.data(), k);
    const double t1 = now_s();
    gf.push_back(2.0 * k * k * static_cast<double>(k) / (t1 - t0) * 1e-9);
  }
  return {{"host.triad_gbs", quantile(gbs, 0.5)},
          {"host.gemm_gflops", quantile(gf, 0.5)},
          {"host.triad_array_mb", 3.0 * 8.0 * static_cast<double>(n) / 1e6}};
}

}  // namespace perfbench
