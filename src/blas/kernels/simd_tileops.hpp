#pragma once
// Generic fused level-1 row kernels over GCC/Clang vector extensions.
//
// Included ONLY by the per-ISA kernel translation units (like
// simd_microkernel.hpp): the same templates compiled under -mavx2,
// -mavx512f, or aarch64 NEON emit native-width code, so one source serves
// every tier. VL is the vector length in elements. The main loop runs two
// vectors per iteration to keep the load/store pipes busy on these
// bandwidth-bound ops; the tail falls back to scalar lanes. Every element
// is computed by one independent add/sub (and at most one multiply), so no
// reassociation or width-dependent rounding is possible — vector and scalar
// tiers agree bitwise whenever the per-element arithmetic is exact.
// Loads/stores go through memcpy so rows need no alignment.

#include "matrix/view.hpp"

namespace atalib::blas::kernels {

template <typename T, int VL, typename Op>
inline void simd_row_combine(index_t n, const T* a, const T* b, T* dst, Op op) {
  typedef T V __attribute__((vector_size(VL * sizeof(T))));
  const auto load = [](const T* p) {
    V v;
    __builtin_memcpy(&v, p, sizeof(V));
    return v;
  };
  index_t i = 0;
  for (; i + 2 * VL <= n; i += 2 * VL) {
    const V r0 = op(load(a + i), load(b + i));
    const V r1 = op(load(a + i + VL), load(b + i + VL));
    __builtin_memcpy(dst + i, &r0, sizeof(V));
    __builtin_memcpy(dst + i + VL, &r1, sizeof(V));
  }
  for (; i + VL <= n; i += VL) {
    const V r = op(load(a + i), load(b + i));
    __builtin_memcpy(dst + i, &r, sizeof(V));
  }
  for (; i < n; ++i) dst[i] = op(a[i], b[i]);
}

template <typename T, int VL>
void simd_row_add(index_t n, const T* a, const T* b, T* dst) {
  simd_row_combine<T, VL>(n, a, b, dst, [](auto x, auto y) { return x + y; });
}

template <typename T, int VL>
void simd_row_sub(index_t n, const T* a, const T* b, T* dst) {
  simd_row_combine<T, VL>(n, a, b, dst, [](auto x, auto y) { return x - y; });
}

template <typename T, int VL>
void simd_row_axpy(index_t n, T alpha, const T* x, T* y) {
  typedef T V __attribute__((vector_size(VL * sizeof(T))));
  const auto load = [](const T* p) {
    V v;
    __builtin_memcpy(&v, p, sizeof(V));
    return v;
  };
  V va;
  for (int l = 0; l < VL; ++l) va[l] = alpha;
  index_t i = 0;
  for (; i + 2 * VL <= n; i += 2 * VL) {
    const V r0 = load(y + i) + va * load(x + i);
    const V r1 = load(y + i + VL) + va * load(x + i + VL);
    __builtin_memcpy(y + i, &r0, sizeof(V));
    __builtin_memcpy(y + i + VL, &r1, sizeof(V));
  }
  for (; i + VL <= n; i += VL) {
    const V r = load(y + i) + va * load(x + i);
    __builtin_memcpy(y + i, &r, sizeof(V));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

/// TileOps table for one (T, VL) instantiation — what each per-ISA TU hands
/// to its KernelEntry.
template <typename T, int VL>
constexpr TileOps<T> simd_tileops() {
  return TileOps<T>{&simd_row_add<T, VL>, &simd_row_sub<T, VL>, &simd_row_axpy<T, VL>};
}

}  // namespace atalib::blas::kernels
