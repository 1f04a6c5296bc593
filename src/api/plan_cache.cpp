#include "api/plan_cache.hpp"

#include <algorithm>
#include <optional>

namespace atalib::api {

PlanCache::PlanCache(std::size_t capacity) : capacity_(std::max<std::size_t>(1, capacity)) {}

PlanCache& PlanCache::global() {
  static PlanCache cache;
  return cache;
}

std::shared_ptr<const AtaPlan> PlanCache::get_or_build(const PlanKey& key) {
  Future fut;
  // Deferred: the hot hit path must not pay the promise's shared-state
  // allocation — it is only materialized on a miss.
  std::optional<std::promise<std::shared_ptr<const AtaPlan>>> prom;
  {
    MutexLock lk(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // promote to MRU
      fut = it->second.plan;
    } else {
      ++misses_;
      prom.emplace();
      fut = prom->get_future().share();
      lru_.push_front(key);
      map_.emplace(key, Entry{fut, lru_.begin()});
      // Evict the coldest ready entries down to the capacity. An in-flight
      // entry must survive — dropping it would let a concurrent request for
      // the same key start a duplicate build — so the scan skips entries
      // still building and stops when only those remain over the capacity.
      for (auto lit = lru_.end(); map_.size() > capacity_ && lit != lru_.begin();) {
        auto victim = map_.find(*--lit);
        if (!victim->second.ready) continue;
        map_.erase(victim);
        lit = lru_.erase(lit);
        ++evictions_;
      }
    }
  }
  if (prom) {
    // Only this builder removes its entry while it is in flight (eviction
    // skips it), so the key still maps to it when the build finishes.
    try {
      prom->set_value(AtaPlan::build(key));
      MutexLock lk(mu_);
      map_.find(key)->second.ready = true;  // now evictable
    } catch (...) {
      {
        // Forget the failed entry so the next request retries.
        MutexLock lk(mu_);
        auto it = map_.find(key);
        lru_.erase(it->second.lru_it);
        map_.erase(it);
      }
      prom->set_exception(std::current_exception());
    }
  }
  return fut.get();  // blocks on a concurrent builder; rethrows build errors
}

bool PlanCache::contains(const PlanKey& key) const {
  MutexLock lk(mu_);
  return map_.find(key) != map_.end();
}

PlanCacheStats PlanCache::stats() const {
  MutexLock lk(mu_);
  return PlanCacheStats{hits_, misses_, evictions_, map_.size(), capacity_};
}

}  // namespace atalib::api
