#pragma once
// Tuning knobs shared by Strassen and AtA.

#include <cstddef>
#include <stdexcept>
#include <string>

#include "common/cacheinfo.hpp"
#include "matrix/view.hpp"

namespace atalib {

/// Auto base-case threshold for scalars of `elem_bytes` bytes on the
/// dispatched ISA (strassen/tuner.cpp): the ATALIB_TUNING_CACHE entry when
/// there is one, else the static cache probe.
index_t tuned_base_case_elements(std::size_t elem_bytes);

/// Recursion cut-off options. The algorithms are cache-oblivious: these
/// thresholds only pick the hand-off point to the leaf BLAS kernel
/// (Algorithm 1 line 2: "if m x n <= cache size").
struct RecurseOptions {
  /// Base-case threshold in *elements*: recursion stops when the operand
  /// footprint (m*n for AtA, m*n + m*k for gemm-type per Algorithm 2) is at
  /// most this many scalars.
  index_t base_case_elements = 0;  // 0 = probe cache at first use

  /// Hard floor on any dimension; below this, recursion never pays for the
  /// extra block sums regardless of cache footprint.
  index_t min_dim = 8;

  /// Resolve base_case_elements. 0 = auto: the tuning-cache entry for this
  /// ISA/dtype, else the static cache probe. Strassen plan keys store the
  /// *resolved* value so a cached plan's workspace bounds can never drift
  /// from the cut-off the leaves actually run with.
  index_t resolved_base_elements(std::size_t elem_bytes) const {
    if (base_case_elements > 0) return base_case_elements;
    return tuned_base_case_elements(elem_bytes);
  }
};

/// Throw std::invalid_argument on nonsensical cut-offs. `scope` names the
/// enclosing options struct in the message (e.g. "SharedOptions").
inline void validate(const RecurseOptions& opts, const char* scope) {
  if (opts.base_case_elements < 0) {
    throw std::invalid_argument(std::string(scope) +
                                ".recurse.base_case_elements must be >= 0 (0 = probe), got " +
                                std::to_string(opts.base_case_elements));
  }
  if (opts.min_dim < 1) {
    throw std::invalid_argument(std::string(scope) + ".recurse.min_dim must be >= 1, got " +
                                std::to_string(opts.min_dim));
  }
}

}  // namespace atalib
