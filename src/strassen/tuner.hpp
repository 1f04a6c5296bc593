#pragma once
// The Strassen base-case cut-off per (ISA, dtype) (DESIGN.md §6).
//
// RecurseOptions::base_case_elements == 0 means "auto". Auto resolves to the
// entry for the dispatched ISA and dtype in the read-only cache file named
// by ATALIB_TUNING_CACHE (lines "<isa> <f32|f64> <elements>"), else to the
// static cache probe (half of L2). Nothing is measured: on the reference
// host a timing ladder found no size where one Strassen level beats the
// registry gemm and fell back to the probe (DESIGN.md §6). The file is
// parsed once at construction and never written; lookups read an
// immutable table.
//
// Only kStrassen requests resolve a cut-off. Classical (kBlas) plan keys
// carry none, so the serving default never consults this class.

#include <array>
#include <cstddef>
#include <string>

#include "blas/kernels/microkernel.hpp"
#include "matrix/view.hpp"

namespace atalib::strassen {

class Tuner {
 public:
  /// Cut-offs read from `cache_path` ("" = no file: every value is the
  /// static probe).
  explicit Tuner(const std::string& cache_path);

  /// Base-case threshold (elements) for scalars of `elem_bytes` bytes on the
  /// currently dispatched ISA: the cache file's entry, else the probe.
  index_t base_case_elements(std::size_t elem_bytes) const;

  /// The cache file's "<isa> <dtype>-ts" entry, else 2. Nothing in the
  /// library reads it; it remains for tools that check the pinned cache.
  index_t tall_skinny_ratio(std::size_t elem_bytes) const;

  /// Process-wide tuner; cache path read once from ATALIB_TUNING_CACHE.
  static Tuner& global();

 private:
  /// One slot per (ISA tier, dtype).
  using Table = std::array<index_t, 2 * blas::kernels::kIsaCount>;

  Table base_{};
  Table ratio_{};
};

}  // namespace atalib::strassen
