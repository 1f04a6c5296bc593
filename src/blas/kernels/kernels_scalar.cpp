// Portable scalar microkernel: the universal fallback and the reference
// every SIMD tier is tested bitwise against (tests/test_kernels.cpp). The
// 4x8 tile is the seed kernel unchanged — small enough that the accumulator
// stays in registers for both precisions under plain auto-vectorization.

#include "blas/kernels/microkernel.hpp"

namespace atalib::blas::kernels {
namespace {

constexpr index_t kMR = 4;
constexpr index_t kNR = 8;

template <typename T>
void scalar_microkernel(index_t kc, T alpha, const T* ap, index_t a_step, const T* bp,
                        index_t b_step, T* c, index_t ldc, index_t mr, index_t nr) {
  T acc[kMR][kNR] = {};
  for (index_t k = 0; k < kc; ++k) {
    const T* a = ap + k * a_step;
    const T* b = bp + k * b_step;
    for (index_t r = 0; r < kMR; ++r) {
      const T ar = a[r];
      for (index_t cidx = 0; cidx < kNR; ++cidx) acc[r][cidx] += ar * b[cidx];
    }
  }
  for (index_t r = 0; r < mr; ++r) {
    for (index_t cidx = 0; cidx < nr; ++cidx) c[r * ldc + cidx] += alpha * acc[r][cidx];
  }
}

bool always_supported() { return true; }

// Fused level-1 row kernels, plain loops at the baseline ISA: the reference
// the SIMD tiers are tested bitwise against, and the fallback when no SIMD
// TU was compiled for this architecture.
template <typename T>
void scalar_row_add(index_t n, const T* a, const T* b, T* dst) {
  for (index_t i = 0; i < n; ++i) dst[i] = a[i] + b[i];
}
template <typename T>
void scalar_row_sub(index_t n, const T* a, const T* b, T* dst) {
  for (index_t i = 0; i < n; ++i) dst[i] = a[i] - b[i];
}
template <typename T>
void scalar_row_axpy(index_t n, T alpha, const T* x, T* y) {
  for (index_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

template <typename T>
constexpr TileOps<T> scalar_tileops() {
  return TileOps<T>{&scalar_row_add<T>, &scalar_row_sub<T>, &scalar_row_axpy<T>};
}

}  // namespace

const KernelEntry& scalar_kernel_entry() {
  static const KernelEntry entry{Isa::kScalar,
                                 &always_supported,
                                 Microkernel<float>{kMR, kNR, &scalar_microkernel<float>},
                                 Microkernel<double>{kMR, kNR, &scalar_microkernel<double>},
                                 scalar_tileops<float>(),
                                 scalar_tileops<double>()};
  return entry;
}

}  // namespace atalib::blas::kernels
