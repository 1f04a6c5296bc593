#pragma once
// Executor-parallel gemm / syrk.
//
// Substitute for multi-threaded MKL (the Fig. 5 baseline). Parallelization
// is over disjoint output stripes — each stripe is one runtime task running
// the serial blocked kernel on its own C region, so no synchronization is
// needed beyond batch completion, mirroring how AtA-S parallelizes its own
// work. Stripes run on the global work-stealing pool unless the caller
// passes an explicit Executor.

#include "matrix/view.hpp"

namespace atalib {

namespace runtime {
class Executor;
}

namespace blas::par {

/// C += alpha * A^T B using `threads` column stripes of C.
template <typename T>
void gemm_tn(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, MatrixView<T> c, int threads);
template <typename T>
void gemm_tn(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, MatrixView<T> c, int threads,
             runtime::Executor& exec);

/// lower(C) += alpha * A^T A using `threads` stripes. Row stripes of C are
/// sized so each stripe owns an equal *area* of the lower triangle
/// (boundaries at n * sqrt(k / P)).
template <typename T>
void syrk_ln(T alpha, ConstMatrixView<T> a, MatrixView<T> c, int threads);
template <typename T>
void syrk_ln(T alpha, ConstMatrixView<T> a, MatrixView<T> c, int threads,
             runtime::Executor& exec);

#define ATALIB_BLAS_PAR_EXTERN(T)                                                         \
  extern template void gemm_tn<T>(T, ConstMatrixView<T>, ConstMatrixView<T>,              \
                                  MatrixView<T>, int);                                    \
  extern template void gemm_tn<T>(T, ConstMatrixView<T>, ConstMatrixView<T>,              \
                                  MatrixView<T>, int, runtime::Executor&);                \
  extern template void syrk_ln<T>(T, ConstMatrixView<T>, MatrixView<T>, int);             \
  extern template void syrk_ln<T>(T, ConstMatrixView<T>, MatrixView<T>, int,              \
                                  runtime::Executor&)
ATALIB_BLAS_PAR_EXTERN(float);
ATALIB_BLAS_PAR_EXTERN(double);
#undef ATALIB_BLAS_PAR_EXTERN

}  // namespace blas::par
}  // namespace atalib
