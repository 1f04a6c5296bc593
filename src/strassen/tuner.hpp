#pragma once
// Measured auto-tuning of the Strassen base-case cut-off (DESIGN.md §6).
//
// RecurseOptions::base_case_elements == 0 means "auto". Historically that
// resolved to a static cache-probe heuristic (half of L2); the Tuner replaces
// it with a measurement: on first use it times the registry gemm against one
// Strassen level across a small square-size ladder and converts the observed
// crossover n* into the footprint threshold 2*n*^2 - 1 (the largest base
// budget that still makes an n* x n* x n* product recurse). The result is
// memoized per (active ISA, dtype) for the process lifetime and persisted to
// an optional cache file so later processes skip the measurement entirely.
// Once a value is resolved it is served from an atomic memo slot: the plan
// lookup on every served request reads it with one load, no lock, no string
// key and no getenv.
//
// The measurement runs with explicit non-zero cut-offs, so it can never
// re-enter the tuner, and it happens at plan-build / first-call time in the
// caller's thread — never inside a pool worker's warm path.

#include <array>
#include <atomic>
#include <cstddef>
#include <string>
#include <utility>

#include "blas/kernels/microkernel.hpp"
#include "common/thread_annotations.hpp"
#include "matrix/view.hpp"

namespace atalib::strassen {

class Tuner {
 public:
  /// Tuner persisting to `cache_path` ("" = in-memory only). Tests use this
  /// to seed a temp file and check determinism.
  explicit Tuner(std::string cache_path) : cache_path_(std::move(cache_path)) {}

  /// Base-case threshold (elements) for scalars of `elem_bytes` bytes on the
  /// currently dispatched ISA. Order of resolution: process memo -> cache
  /// file -> ladder measurement (which then populates both). Falls back to
  /// the static cache-probe default when the measurement finds no crossover
  /// or when ATALIB_FORCE_SCALAR_KERNELS pins the process to the scalar
  /// tier (that CI leg must not depend on machine-speed measurements).
  index_t base_case_elements(std::size_t elem_bytes);

  /// Tall-skinny crossover ratio for the shape-aware planner (DESIGN.md
  /// §8): the smallest m/n at which the blocked syrk (the kBlas engine)
  /// beats the Strassen recursion on this (ISA, dtype). Same resolution order
  /// and cache file as base_case_elements (lines "<isa> <f32|f64>-ts
  /// <ratio>"); falls back to a static default of 8 when the ladder finds
  /// no crossover or under ATALIB_FORCE_SCALAR_KERNELS. Plans built with
  /// SharedOptions::tall_skinny_ratio == 0 route through this and store
  /// the resolved ratio in their cache key.
  index_t tall_skinny_ratio(std::size_t elem_bytes);

  /// Process-wide tuner; cache path read once from ATALIB_TUNING_CACHE.
  static Tuner& global();

 private:
  /// One memo slot per (ISA tier, dtype); 0 = not resolved yet.
  using Memo = std::array<std::atomic<index_t>, 2 * blas::kernels::kIsaCount>;

  /// Slow paths: resolve `isa`'s value under mu_ (cache file, then
  /// measurement) and publish it into its memo slot.
  index_t resolve_base(blas::kernels::Isa isa, std::size_t elem_bytes);
  index_t resolve_ratio(blas::kernels::Isa isa, std::size_t elem_bytes);
  index_t load_cached(const std::string& key) const ATALIB_REQUIRES(mu_);
  void store(const std::string& key, index_t value) const ATALIB_REQUIRES(mu_);

  /// Serializes resolution: the cache file is read and rewritten there,
  /// and concurrent measurements for the same key must not interleave
  /// their writes.
  mutable Mutex mu_;
  std::string cache_path_;  ///< immutable after construction
  /// Resolved values, written once under mu_ and read lock-free.
  Memo base_{};
  Memo ratio_{};
};

}  // namespace atalib::strassen
