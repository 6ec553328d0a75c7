#include "blas/blas2.hpp"

#include <cstddef>
#include <memory>

#include "blas/blas3.hpp"

namespace cagmres::blas {

void gemv_n(int m, int n, double alpha, const double* a, int lda,
            const double* x, double beta, double* y) {
  if (beta == 0.0) {
    for (int i = 0; i < m; ++i) y[i] = 0.0;
  } else if (beta != 1.0) {
    for (int i = 0; i < m; ++i) y[i] *= beta;
  }
  // Column-sweep order keeps the inner loop unit-stride over A.
  for (int j = 0; j < n; ++j) {
    const double t = alpha * x[j];
    const double* col = a + static_cast<std::size_t>(j) * lda;
    for (int i = 0; i < m; ++i) y[i] += t * col[i];
  }
}

void gemv_t(int m, int n, double alpha, const double* a, int lda,
            const double* x, double beta, double* y) {
  // The n = 1 case of the T,N dot tiles: each y(j) is a serial dot product
  // of column j with x, so the result is thread-count independent. Its
  // tiles are scalar chains at any vector width, and the AVX2 build packs
  // them into shuffles that measured 1.4x slower, so gemv_t always runs
  // the baseline build (DESIGN.md §17).
  const std::unique_ptr<double[]> acc(new double[n]);
  detail::variants().front().dot_tiles(n, 1, m, a, lda, Trans::N, x, m, false,
                                       acc.get(), n);
  for (int j = 0; j < n; ++j) {
    y[j] = alpha * acc[j] + (beta == 0.0 ? 0.0 : beta * y[j]);
  }
}

void ger(int m, int n, double alpha, const double* x, const double* y,
         double* a, int lda) {
  for (int j = 0; j < n; ++j) {
    const double t = alpha * y[j];
    double* col = a + static_cast<std::size_t>(j) * lda;
    for (int i = 0; i < m; ++i) col[i] += t * x[i];
  }
}

}  // namespace cagmres::blas
