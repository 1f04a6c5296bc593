#pragma once
// Runtime cache-size probe.
//
// AtA's base-case condition is "the sub-problem fits in cache" (Algorithm 1,
// line 2). The algorithm is cache-oblivious — the threshold only decides
// where recursion hands off to the leaf BLAS kernel — but picking it near
// the actual cache size is what makes the leaf kernel efficient, so we read
// the hierarchy from the OS when available and fall back to common values.

#include <cstddef>

namespace atalib {

struct CacheInfo {
  std::size_t l1_data_bytes;
  std::size_t l2_bytes;
  std::size_t l3_bytes;
};

/// Probe L1d/L2/L3 sizes via sysconf; zero entries are replaced by
/// conservative defaults (32 KiB / 256 KiB / 8 MiB).
CacheInfo probe_cache_info();

/// Default AtA/Strassen base-case threshold in *elements* for element size
/// `elem_bytes`: the number of scalars that fit in half the L2 cache
/// (operands of the leaf multiply should fit concurrently).
std::size_t default_base_case_elements(std::size_t elem_bytes);

}  // namespace atalib
