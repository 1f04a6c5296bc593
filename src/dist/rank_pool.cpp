#include "dist/rank_pool.hpp"

#include <memory>
#include <stdexcept>

#include "common/thread_annotations.hpp"
#include "runtime/thread_pool.hpp"

namespace atalib::dist {
namespace {

/// Guards the pool slot below. Held for a lease's whole lifetime: recreation
/// must not race a batch, and slot workspaces are rank-exclusive only while
/// a single run is in flight.
Mutex g_pool_mu;

/// The pool itself, created lazily and regrown (recreated) when a larger
/// rank count arrives. Function-local static for init-order safety; callers
/// must hold g_pool_mu (a constexpr-constructible namespace static, so it
/// is valid before and after the pool's own lifetime).
std::unique_ptr<runtime::ThreadPool>& pool_slot() ATALIB_REQUIRES(g_pool_mu) {
  static std::unique_ptr<runtime::ThreadPool> pool;
  return pool;
}

}  // namespace

// The lease holds g_pool_mu from constructor to destructor — an object
// lifetime, not a lexical scope, which the clang analysis cannot model
// (DESIGN.md §9); hence the no-analysis escapes with the discipline stated
// here: ctor acquires, pool() requires, the std::unique_lock member
// releases on destruction.
RankPoolLease::RankPoolLease(int ranks) ATALIB_NO_THREAD_SAFETY_ANALYSIS {
  if (ranks < 1) throw std::invalid_argument("RankPoolLease needs >= 1 rank");
  // Refuse nested acquisition BEFORE touching the mutex: a distributed
  // entry point called from inside a pool task (including another
  // run's rank body, which holds this very lease) would self-deadlock on
  // g_pool_mu, and even if it didn't, a nested batch executes inline-serial.
  if (runtime::ThreadPool::current_thread_in_task()) {
    throw std::logic_error(
        "distributed entry points cannot run inside a pool task (the "
        "rank-pool lease is held by the enclosing run, and a nested batch "
        "would execute inline-serial)");
  }
  lock_ = std::unique_lock<Mutex>(g_pool_mu);
  auto& pool = pool_slot();
  if (!pool || pool->concurrency() < ranks) {
    pool.reset();  // join the old workers before spawning the wider pool
    pool = std::make_unique<runtime::ThreadPool>(ranks);
  }
}

runtime::ThreadPool& RankPoolLease::pool() ATALIB_NO_THREAD_SAFETY_ANALYSIS {
  // Valid by construction: the lease's lock_ holds g_pool_mu.
  return *pool_slot();
}

}  // namespace atalib::dist
