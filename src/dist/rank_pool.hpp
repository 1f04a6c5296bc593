#pragma once
// The process-wide rank pool: the runtime::ThreadPool that mpisim rank
// bodies run on.
//
// Ranks block on recv, so a batch of R rank bodies needs R truly
// concurrent slots — more than the hardware-sized global pool offers for
// large P. The rank pool is a dedicated persistent ThreadPool grown to
// the largest rank count ever requested: repeated distributed runs reuse
// parked workers (no thread creation) and their per-slot Workspace arenas
// (no leaf-compute mallocs once warm), exactly like the shared-memory
// layer. See the blocking-batch invariant note in runtime/thread_pool.hpp.

#include <mutex>

#include "common/thread_annotations.hpp"
#include "runtime/thread_pool.hpp"

namespace atalib::dist {

/// Exclusive lease on the rank pool, sized to at least `ranks` slots.
/// Distributed runs hold one for their whole communicator batch: slot
/// workspaces are rank-exclusive only while a single run is in flight, so
/// concurrent distributed calls from independent threads serialize here.
class RankPoolLease {
 public:
  explicit RankPoolLease(int ranks);

  RankPoolLease(const RankPoolLease&) = delete;
  RankPoolLease& operator=(const RankPoolLease&) = delete;

  /// Pool with >= `ranks` slots, valid while the lease is held.
  runtime::ThreadPool& pool();

 private:
  /// Holds the rank-pool mutex (an annotated atalib::Mutex) for the lease's
  /// lifetime; see rank_pool.cpp for the analysis-escape rationale.
  std::unique_lock<Mutex> lock_;
};

}  // namespace atalib::dist
