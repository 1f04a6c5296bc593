#pragma once
// Generic SIMD microkernel over GCC/Clang vector extensions.
//
// Included ONLY by the per-ISA kernel translation units: the same template
// compiled under -mavx2, -mavx512f, or aarch64 NEON yields the matching
// machine code, so one source serves every tier. VL is the vector length in
// elements, MR the tile rows, NV the vectors per row (NR = VL * NV). The
// k-loop keeps MR*NV vector accumulators live and issues NV loads of B plus
// one broadcast-from-memory of each A value per step, then advances A by
// the runtime a_step and B by the runtime b_step (MR / NR for packed
// panels; NR for A when syrk_ln reads it out of the packed B panel; the
// operand's row stride when a cache-resident operand is read in place —
// see microkernel.hpp); with -mfma / -ffp-contract=fast the multiply-add
// contracts to FMA. Loads/stores go through memcpy so panels, in-place
// operands and C rows need no alignment and no aliasing blessing.
//
// Codegen rules (DESIGN.md §2, checked by tools/check_microkernel_asm.py):
// - A enters each FMA as a scalar (`a[r] * bv[j]`), so the compiler emits a
//   load-port broadcast (`vbroadcastsd mem` / an embedded `{1to8}`) rather
//   than one vector load of all MR values plus a per-row shuffle, which would
//   compete with FMA for the shuffle port.
// - `acc` is only ever indexed by compile-time constants in fully unrolled
//   loops, so it lives in registers for the whole call: no zeroing through
//   memory, no spill around the writeback. The ragged writeback copies it to
//   a local tile first, inside its own branch, so the runtime-indexed scalar
//   loop never forces the accumulators into memory.
// Arithmetic per lane: acc = fma(a, b, acc) in k order, then
// c = fma(alpha, acc, c) — the same on every tier and every tile shape.

#include "matrix/view.hpp"

namespace atalib::blas::kernels {

template <typename T, int VL, int MR, int NV>
void simd_microkernel(index_t kc, T alpha, const T* ap, index_t a_step, const T* bp,
                      index_t b_step, T* c, index_t ldc, index_t mr, index_t nr) {
  constexpr int NR = VL * NV;
  typedef T V __attribute__((vector_size(VL * sizeof(T))));
  const auto load = [](const T* p) {
    V v;
    __builtin_memcpy(&v, p, sizeof(V));
    return v;
  };

  V acc[MR][NV];
#pragma GCC unroll 64
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 64
    for (int j = 0; j < NV; ++j) acc[r][j] = V{};
  }
  const T* a = ap;
  const T* b = bp;
  for (index_t k = 0; k < kc; ++k, a += a_step, b += b_step) {
    V bv[NV];
#pragma GCC unroll 64
    for (int j = 0; j < NV; ++j) bv[j] = load(b + j * VL);
#pragma GCC unroll 64
    for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 64
      for (int j = 0; j < NV; ++j) acc[r][j] += a[r] * bv[j];
    }
  }

  if (mr == MR && nr == NR) {
#pragma GCC unroll 64
    for (int r = 0; r < MR; ++r) {
      T* crow = c + r * ldc;
#pragma GCC unroll 64
      for (int j = 0; j < NV; ++j) {
        V cv = load(crow + j * VL);
        cv += alpha * acc[r][j];
        __builtin_memcpy(crow + j * VL, &cv, sizeof(V));
      }
    }
  } else {
    T tile[MR * NR];
#pragma GCC unroll 64
    for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 64
      for (int j = 0; j < NV; ++j) __builtin_memcpy(tile + r * NR + j * VL, &acc[r][j], sizeof(V));
    }
    for (index_t r = 0; r < mr; ++r) {
      for (index_t j = 0; j < nr; ++j) c[r * ldc + j] += alpha * tile[r * NR + j];
    }
  }
}

}  // namespace atalib::blas::kernels
