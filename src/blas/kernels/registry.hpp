#pragma once
// Runtime microkernel dispatch and blocking-parameter selection
// (see DESIGN.md §2).
//
// One binary carries every ISA variant CMake compiled for this
// architecture; the registry picks the best CPU-supported one at first use
// (AVX-512 > AVX2 > NEON > scalar) and derives the gemm/syrk cache blocking
// (MC/KC/NC) from the selected register tile plus common/cacheinfo. The
// ATALIB_FORCE_SCALAR_KERNELS environment variable (read once, at first
// dispatch) pins the whole process to the scalar tile — the ctest
// forced-scalar leg; set_forced_isa() is the programmatic version tests and
// benches use to measure a specific tier.

#include <cstddef>
#include <optional>
#include <vector>

#include "blas/kernels/microkernel.hpp"

namespace atalib::blas::kernels {

const char* isa_name(Isa isa);

/// Cache blocking derived from a register tile and probe_cache_info():
/// kc — one MR x kc A micro-panel plus one kc x NR B micro-panel stay in L1
/// during a microkernel sweep; mc x kc of packed A targets half of L2;
/// kc x nc of packed B targets half of L3 (capped so per-thread pack
/// buffers stay a few MB). mc and nc are multiples of the tile.
/// resident_bytes — 3/16 of L2: the largest k-panel (kc rows of a
/// row-major operand, row stride included) a leaf reads in place instead
/// of packing (DESIGN.md §2). Measured on a 2 MiB-L2 AVX-512 host with
/// four workers busy: k-panels of L2/8 ran faster in place, L2/4 slower.
struct BlockSizes {
  index_t mc = 0;
  index_t kc = 0;
  index_t nc = 0;
  index_t resident_bytes = 0;
};

/// Everything the gemm/syrk drivers need for one dtype on one ISA.
template <typename T>
struct KernelConfig {
  Isa isa = Isa::kScalar;
  const char* name = "";
  Microkernel<T> uk;
  BlockSizes blocks;

  /// True when the k-panels of a row-major operand with row stride `ld`,
  /// at most `kc` rows deep, are cache-resident: gemm_tn and syrk_ln then
  /// read its full micro-panels in place (a_step / b_step = ld).
  bool reads_in_place(index_t kc, index_t ld) const {
    return kc * ld * static_cast<index_t>(sizeof(T)) <= blocks.resident_bytes;
  }
};

/// Packed-panel element counts one gemm/syrk call needs for an m x n output
/// with contraction depth k (a = A panels, b = B panels).
struct PackExtents {
  index_t a = 0;
  index_t b = 0;
};

/// All kernels compiled into this binary, dispatch-preference first
/// (the scalar entry is always last and always present).
const std::vector<const KernelEntry*>& compiled_kernels();

/// The compiled kernels whose supported() probe passes on this CPU.
std::vector<const KernelEntry*> available_kernels();

/// Override dispatch for tests/benches: a concrete Isa pins every
/// subsequent gemm/syrk call to that kernel; nullopt returns to automatic
/// (cpuid best, or scalar when ATALIB_FORCE_SCALAR_KERNELS was set).
/// Throws std::invalid_argument if `isa` is not compiled in or not
/// supported on this CPU. Process-wide; not meant to race in-flight calls.
void set_forced_isa(std::optional<Isa> isa);
std::optional<Isa> forced_isa();

/// The config gemm/syrk dispatch to right now for dtype T.
template <typename T>
const KernelConfig<T>& active_config();

/// The fused level-1 row kernels (add/sub/axpy) the current dispatch
/// selects for dtype T. Follows the same forced-ISA / env pinning as
/// active_config(), so the forced-scalar leg runs the scalar row loops
/// everywhere.
template <typename T>
const TileOps<T>& active_tileops();

/// Config for a specific ISA; throws std::invalid_argument if unavailable.
template <typename T>
const KernelConfig<T>& config_for(Isa isa);

/// Shape-tightened pack-buffer need for one config.
template <typename T>
PackExtents pack_extents(const KernelConfig<T>& cfg, index_t m, index_t n, index_t k);

/// Arena elements a gemm/syrk call may draw for its pack buffers: the max
/// over every *available* ISA, so a cached workspace bound stays valid
/// across set_forced_isa toggles.
template <typename T>
index_t pack_bound(index_t m, index_t n, index_t k);

#define ATALIB_KERNELS_EXTERN(T)                                                      \
  extern template const KernelConfig<T>& active_config<T>();                          \
  extern template const TileOps<T>& active_tileops<T>();                              \
  extern template const KernelConfig<T>& config_for<T>(Isa);                          \
  extern template PackExtents pack_extents<T>(const KernelConfig<T>&, index_t,        \
                                              index_t, index_t);                      \
  extern template index_t pack_bound<T>(index_t, index_t, index_t)
ATALIB_KERNELS_EXTERN(float);
ATALIB_KERNELS_EXTERN(double);
#undef ATALIB_KERNELS_EXTERN

}  // namespace atalib::blas::kernels
