#pragma once
// Thread-safe LRU cache of AtaPlans — the handle-style amortization that
// turns repeated traffic malloc- and replanning-free.
//
// get_or_build() returns the cached plan on a hit (promoting it to
// most-recently-used) and builds it exactly once on a miss, even when many
// client threads request the same cold key concurrently: the first caller
// inserts a shared_future and builds outside the lock, later callers block
// on that future instead of replanning. Eviction is strict LRU by entry
// count; a plan evicted while executions still hold its shared_ptr stays
// alive until they drop it (plans are immutable, so this is safe).
//
// One mutex guards one LRU list, one map and the counters. It only ever
// covers a hash find plus a list splice (hit) or insert plus eviction scan
// (miss) — never a build — so a single lock serves the front-end's traffic
// (DESIGN.md §10), and stats() is a consistent snapshot.

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <unordered_map>

#include "api/plan.hpp"
#include "common/thread_annotations.hpp"

namespace atalib::api {

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;     ///< builds started (including failed ones)
  std::uint64_t evictions = 0;  ///< entries dropped by the LRU capacity bound
  std::size_t size = 0;
  std::size_t capacity = 0;
};

class PlanCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;

  /// `capacity` is the maximum number of cached plans (>= 1; 0 is clamped).
  /// An entry still building is never evicted, so concurrent cold builds
  /// may transiently overshoot it by at most one entry per in-flight build;
  /// the overshoot is reclaimed on the next miss.
  explicit PlanCache(std::size_t capacity = kDefaultCapacity);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The plan for `key`: cached (hit) or built exactly once (miss; builds
  /// run outside the lock, concurrent requesters for the same key wait on
  /// the builder). Rethrows the build error to every waiter and forgets the
  /// entry, so a later request retries.
  std::shared_ptr<const AtaPlan> get_or_build(const PlanKey& key);

  /// True if `key` is resident right now. Does not touch LRU order.
  bool contains(const PlanKey& key) const;

  /// A consistent snapshot, taken under the cache lock.
  PlanCacheStats stats() const;

  /// The process-wide cache used by the ata_shared / ata_dist wrappers.
  static PlanCache& global();

 private:
  using Future = std::shared_future<std::shared_ptr<const AtaPlan>>;
  using Lru = std::list<PlanKey>;  // front = most recently used

  struct Entry {
    Future plan;
    Lru::iterator lru_it;
    /// Set once the build published its value; lets the eviction scan test
    /// eligibility with a plain bool instead of a future-state probe per
    /// entry while holding the lock.
    bool ready = false;
  };

  const std::size_t capacity_;
  mutable Mutex mu_;
  Lru lru_ ATALIB_GUARDED_BY(mu_);
  std::unordered_map<PlanKey, Entry, PlanKeyHash> map_ ATALIB_GUARDED_BY(mu_);
  std::uint64_t hits_ ATALIB_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ ATALIB_GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ ATALIB_GUARDED_BY(mu_) = 0;
};

}  // namespace atalib::api
