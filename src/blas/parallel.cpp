#include "blas/parallel.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/syrk.hpp"
#include "runtime/thread_pool.hpp"

namespace atalib::blas::par {

template <typename T>
void gemm_tn(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, MatrixView<T> c, int threads,
             runtime::Executor& exec) {
  const int stripes = std::max(1, std::min<int>(threads, static_cast<int>(c.cols)));
  if (stripes == 1) {
    blas::gemm_tn(alpha, a, b, c);
    return;
  }
  exec.run(
      stripes,
      [&](int t, runtime::TaskContext&) {
        const index_t j0 = c.cols * t / stripes;
        const index_t j1 = c.cols * (t + 1) / stripes;
        if (j1 > j0) {
          blas::gemm_tn(alpha, a, b.block(0, j0, b.rows, j1 - j0),
                        c.block(0, j0, c.rows, j1 - j0));
        }
      },
      threads);
}

template <typename T>
void gemm_tn(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, MatrixView<T> c, int threads) {
  gemm_tn(alpha, a, b, c, threads, runtime::ThreadPool::global());
}

template <typename T>
void syrk_ln(T alpha, ConstMatrixView<T> a, MatrixView<T> c, int threads,
             runtime::Executor& exec) {
  const index_t n = c.rows;
  const int stripes = std::max(1, std::min<int>(threads, static_cast<int>(n)));
  if (stripes == 1) {
    blas::syrk_ln(alpha, a, c);
    return;
  }
  // Equal-area row stripes: the lower-triangle area below row r is r^2/2, so
  // boundaries at n*sqrt(k/P) give each stripe the same flop count.
  std::vector<index_t> bound(static_cast<std::size_t>(stripes) + 1);
  bound[0] = 0;
  for (int k = 1; k <= stripes; ++k) {
    bound[static_cast<std::size_t>(k)] = static_cast<index_t>(
        std::llround(static_cast<double>(n) * std::sqrt(static_cast<double>(k) / stripes)));
  }
  bound[static_cast<std::size_t>(stripes)] = n;
  for (int k = 1; k <= stripes; ++k) {
    bound[static_cast<std::size_t>(k)] =
        std::max(bound[static_cast<std::size_t>(k)], bound[static_cast<std::size_t>(k - 1)]);
  }

  exec.run(
      stripes,
      [&](int t, runtime::TaskContext&) {
        const index_t r0 = bound[static_cast<std::size_t>(t)];
        const index_t r1 = bound[static_cast<std::size_t>(t) + 1];
        if (r1 <= r0) return;
        // Rectangle [r0:r1) x [0:r0) plus the diagonal triangle [r0:r1)^2.
        if (r0 > 0) {
          blas::gemm_tn(alpha, a.block(0, r0, a.rows, r1 - r0), a.block(0, 0, a.rows, r0),
                        c.block(r0, 0, r1 - r0, r0));
        }
        blas::syrk_ln(alpha, a.block(0, r0, a.rows, r1 - r0),
                      c.block(r0, r0, r1 - r0, r1 - r0));
      },
      threads);
}

template <typename T>
void syrk_ln(T alpha, ConstMatrixView<T> a, MatrixView<T> c, int threads) {
  syrk_ln(alpha, a, c, threads, runtime::ThreadPool::global());
}

#define ATALIB_BLAS_PAR_INSTANTIATE(T)                                                   \
  template void gemm_tn<T>(T, ConstMatrixView<T>, ConstMatrixView<T>, MatrixView<T>,     \
                           int);                                                         \
  template void gemm_tn<T>(T, ConstMatrixView<T>, ConstMatrixView<T>, MatrixView<T>,     \
                           int, runtime::Executor&);                                     \
  template void syrk_ln<T>(T, ConstMatrixView<T>, MatrixView<T>, int);                   \
  template void syrk_ln<T>(T, ConstMatrixView<T>, MatrixView<T>, int, runtime::Executor&)
ATALIB_BLAS_PAR_INSTANTIATE(float);
ATALIB_BLAS_PAR_INSTANTIATE(double);
#undef ATALIB_BLAS_PAR_INSTANTIATE

}  // namespace atalib::blas::par
