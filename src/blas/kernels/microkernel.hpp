#pragma once
// ISA-specific register-tile microkernels (see DESIGN.md §2).
//
// A microkernel computes C[0:mr, 0:nr] += alpha * A * B over one
// micro-panel pair: A is an MR x kc panel whose MR values for depth k sit
// contiguously at ap[k * a_step], B a kc x NR panel whose NR values for
// depth k sit contiguously at bp[k * b_step]. The accumulator always spans
// the full MR x NR register tile and only the valid mr x nr corner is
// stored back, so every MR x kc / kc x NR element the tile reads must be
// readable memory. Packed callers pass a_step = MR (a pack_a micro-panel,
// rows past the tile zero-padded) and b_step = NR (a pack_b micro-panel,
// columns past the tile zero-padded); syrk_ln passes a_step = NR to read
// A's rows out of the packed B panel of the same columns. When a leaf
// operand's k-panel is cache-resident, gemm_tn and syrk_ln hand full tiles
// the operand itself: a_step / b_step = its row stride (DESIGN.md §2).
// Each ISA variant lives in its own translation unit compiled with its own
// -m flags (CMake per-file options), and surfaces itself as one
// KernelEntry; registry.hpp picks the best supported entry at runtime via
// cpuid.

#include "matrix/view.hpp"

namespace atalib::blas::kernels {

/// Dispatchable instruction-set tiers. Numeric order is not preference
/// order — the registry dispatches best-first per architecture.
enum class Isa { kScalar = 0, kNeon = 1, kAvx2 = 2, kAvx512 = 3 };
inline constexpr int kIsaCount = 4;

/// Largest register tile any compiled kernel declares; sized for the
/// packed-SYRK diagonal scratch tile, which lives on the stack.
inline constexpr index_t kMaxMR = 16;
inline constexpr index_t kMaxNR = 32;

/// One register-tile microkernel for one scalar type.
template <typename T>
struct Microkernel {
  index_t mr = 0;
  index_t nr = 0;
  void (*fn)(index_t kc, T alpha, const T* ap, index_t a_step, const T* bp, index_t b_step,
             T* c, index_t ldc, index_t mr, index_t nr) = nullptr;
};

/// Fused level-1 row kernels for one scalar type — the Strassen block-sum /
/// accumulate primitives, compiled per-ISA alongside the GEMM tile so the
/// seven-term add/sub combinations run at native vector width instead of the
/// baseline-ISA scalar loop. Contract (all over contiguous rows of length n):
///   add:   dst[i] = a[i] + b[i]
///   sub:   dst[i] = a[i] - b[i]
///   axpy:  y[i]  += alpha * x[i]          (the C-quadrant accumulate)
/// Each element is produced by independent per-lane arithmetic (no
/// reassociation), so vector and scalar variants agree bitwise on inputs
/// whose sums/products are exact (the integer-input test convention).
template <typename T>
struct TileOps {
  void (*add)(index_t n, const T* a, const T* b, T* dst) = nullptr;
  void (*sub)(index_t n, const T* a, const T* b, T* dst) = nullptr;
  void (*axpy)(index_t n, T alpha, const T* x, T* y) = nullptr;
};

/// A compiled-in ISA variant: float + double GEMM tiles and fused level-1
/// row kernels, plus a runtime support probe. Exactly one static instance
/// per kernel translation unit.
struct KernelEntry {
  Isa isa;
  bool (*supported)();
  Microkernel<float> f32;
  Microkernel<double> f64;
  TileOps<float> f32_ops;
  TileOps<double> f64_ops;
};

/// Per-TU entry accessors. Only the scalar one always exists; the others
/// are compiled (and referenced by the registry) when CMake defines the
/// matching ATALIB_KERNELS_* macro for this architecture.
const KernelEntry& scalar_kernel_entry();
const KernelEntry& avx2_kernel_entry();
const KernelEntry& avx512_kernel_entry();
const KernelEntry& neon_kernel_entry();

}  // namespace atalib::blas::kernels
