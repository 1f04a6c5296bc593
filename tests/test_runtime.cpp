// Tests for the persistent task-pool runtime: exactly-once execution under
// stealing (the Snippet-1-style integrity property), block placement and
// the rotation of small queued batches (the per-slot scheduled-count
// oracle), workspace reuse, re-entrancy, error propagation, the over-decomposed AtA-S schedule,
// bitwise agreement of pool-executed AtA-S with the serial engines for any
// plan thread count, inline execution of P = 1 plans, and the recycling of
// retired batches and of the futures' shared states (BlockRecycler).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <latch>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/execute.hpp"
#include "api/plan_cache.hpp"
#include "api/server.hpp"
#include "ata/ata.hpp"
#include "blas/reference.hpp"
#include "blas/syrk.hpp"
#include "matrix/compare.hpp"
#include "matrix/generate.hpp"
#include "parallel/ata_shared.hpp"
#include "runtime/recycler.hpp"
#include "runtime/thread_pool.hpp"
#include "sched/shared_schedule.hpp"

namespace atalib {
namespace {

// ---- Pool integrity ---------------------------------------------------

TEST(ThreadPool, EveryTaskRunsExactlyOnce) {
  runtime::ThreadPool pool(4);
  ASSERT_EQ(pool.concurrency(), 4);
  const int ntasks = 20000;
  // One buffer per slot; a slot is driven by exactly one thread during a
  // batch, so the buffers need no locking — same shape as the tasksys
  // integrity test.
  std::vector<std::vector<int>> buffers(static_cast<std::size_t>(pool.concurrency()));
  for (int batch = 0; batch < 3; ++batch) {
    for (auto& b : buffers) b.clear();
    pool.run(ntasks, [&](int t, runtime::TaskContext& ctx) {
      buffers[static_cast<std::size_t>(ctx.worker)].push_back(t);
    });
    std::set<int> seen;
    for (const auto& b : buffers) {
      for (int t : b) {
        EXPECT_TRUE(seen.insert(t).second) << "duplicate task " << t;
      }
    }
    EXPECT_EQ(static_cast<int>(seen.size()), ntasks) << "dropped tasks";
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), ntasks - 1);
  }
  EXPECT_EQ(pool.batches(), 3u);
}

TEST(ThreadPool, AssortedBatchSizesSumCorrectly) {
  runtime::ThreadPool pool(3);
  for (int n : {1, 2, 3, 7, 64, 1000}) {
    std::atomic<long long> sum{0};
    pool.run(n, [&](int t, runtime::TaskContext&) {
      sum.fetch_add(t, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), static_cast<long long>(n) * (n - 1) / 2) << "n=" << n;
  }
}

TEST(ThreadPool, ReentrantSubmissionExecutesInline) {
  runtime::ThreadPool pool(2);
  std::atomic<int> inner{0};
  pool.run(4, [&](int, runtime::TaskContext&) {
    pool.run(8, [&](int, runtime::TaskContext&) {
      inner.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner.load(), 4 * 8);
}

TEST(ThreadPool, TaskExceptionPropagatesAndPoolSurvives) {
  runtime::ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.run(16,
                        [&](int t, runtime::TaskContext&) {
                          ran.fetch_add(1, std::memory_order_relaxed);
                          if (t == 3) throw std::runtime_error("task 3 failed");
                        }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 16) << "batch must drain even after a failure";
  std::atomic<int> after{0};
  pool.run(8, [&](int, runtime::TaskContext&) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 8);
}

// ---- Queued multi-batch admission --------------------------------------

TEST(ThreadPoolMultiBatch, SubmitReturnsFuturesAndRunsEveryTask) {
  runtime::ThreadPool pool(4);
  std::atomic<long long> sums[3] = {{0}, {0}, {0}};
  std::future<void> futs[3];
  for (int b = 0; b < 3; ++b) {
    futs[b] = pool.submit(100 + b, [&sums, b](int t, runtime::TaskContext&) {
      sums[b].fetch_add(t, std::memory_order_relaxed);
    });
  }
  for (int b = 0; b < 3; ++b) {
    futs[b].get();
    const long long n = 100 + b;
    EXPECT_EQ(sums[b].load(), n * (n - 1) / 2) << "batch " << b;
  }
  EXPECT_GE(pool.batches(), 3u);
}

TEST(ThreadPoolMultiBatch, BatchesFromIndependentClientsOverlap) {
  // Batch 1 parks one task on a gate; batch 2 must run to completion while
  // batch 1 is still in flight — the queued-admission property the serving
  // front-end relies on. (The old pool serialized clients at run().)
  runtime::ThreadPool pool(4);
  std::promise<void> gate;
  std::shared_future<void> gate_f = gate.get_future().share();
  auto f1 = pool.submit(1, [gate_f](int, runtime::TaskContext&) { gate_f.wait(); });

  std::atomic<int> ran{0};
  auto f2 = pool.submit(16, [&ran](int, runtime::TaskContext&) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  f2.get();  // completes even though batch 1 holds a slot
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(f1.wait_for(std::chrono::seconds(0)), std::future_status::timeout)
      << "batch 1 must still be blocked when batch 2 finishes";
  gate.set_value();
  f1.get();
}

TEST(ThreadPoolMultiBatch, ConcurrentRunClientsBothComplete) {
  runtime::ThreadPool pool(4);
  std::atomic<long long> sum1{0}, sum2{0};
  std::thread c1([&] {
    pool.run(2000, [&](int t, runtime::TaskContext&) {
      sum1.fetch_add(t, std::memory_order_relaxed);
    });
  });
  std::thread c2([&] {
    pool.run(2000, [&](int t, runtime::TaskContext&) {
      sum2.fetch_add(t, std::memory_order_relaxed);
    });
  });
  c1.join();
  c2.join();
  EXPECT_EQ(sum1.load(), 2000LL * 1999 / 2);
  EXPECT_EQ(sum2.load(), 2000LL * 1999 / 2);
}

TEST(ThreadPoolMultiBatch, SubmitExceptionSurfacesOnFutureAndPoolSurvives) {
  runtime::ThreadPool pool(3);
  std::atomic<int> ran{0};
  auto f = pool.submit(12, [&ran](int t, runtime::TaskContext&) {
    ran.fetch_add(1, std::memory_order_relaxed);
    if (t == 5) throw std::runtime_error("task 5 failed");
  });
  EXPECT_THROW(f.get(), std::runtime_error);
  EXPECT_EQ(ran.load(), 12) << "batch must drain even after a failure";
  auto f2 = pool.submit(8, [](int, runtime::TaskContext&) {});
  f2.get();
}

TEST(ThreadPoolMultiBatch, SubmitFromInsideATaskExecutesInline) {
  runtime::ThreadPool pool(2);
  std::atomic<int> inner{0};
  pool.run(3, [&](int, runtime::TaskContext&) {
    auto f = pool.submit(5, [&](int, runtime::TaskContext&) {
      inner.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "nested submit must complete before returning";
  });
  EXPECT_EQ(inner.load(), 3 * 5);
}

TEST(ThreadPoolMultiBatch, WarmWaitsForQuiescenceThenGrows) {
  runtime::ThreadPool pool(3);
  pool.warm_workspaces(0, 512);
  auto f = pool.submit(64, [](int, runtime::TaskContext& ctx) {
    Arena<double>& arena = ctx.arena<double>(256);
    arena.allocate(16)[0] = 1.0;
  });
  // Larger than the warmed mark: must wait until the batch above retires,
  // then grow every slot — never while tasks could touch the arenas. The
  // batch deregisters (waking the warm) just before its promise is
  // fulfilled, so the future may trail the warm's return by an
  // instruction or two — assert with a bounded wait, not wait_for(0).
  pool.warm_workspaces(0, 4096);
  EXPECT_EQ(f.wait_for(std::chrono::seconds(5)), std::future_status::ready)
      << "a growing warm must have waited for the in-flight batch";
  f.get();
  std::size_t grows_after_warm = 0;
  for (int s = 0; s < pool.concurrency(); ++s) {
    grows_after_warm += pool.workspace(s).grow_count();
  }
  auto f2 = pool.submit(64, [](int, runtime::TaskContext& ctx) {
    Arena<double>& arena = ctx.arena<double>(4096);
    arena.allocate(64)[0] = 2.0;
  });
  f2.get();
  std::size_t grows_after_batch = 0;
  for (int s = 0; s < pool.concurrency(); ++s) {
    grows_after_batch += pool.workspace(s).grow_count();
  }
  EXPECT_EQ(grows_after_batch, grows_after_warm)
      << "requests at the warmed mark must not allocate";
}

// ---- Placement and stealing (per-slot scheduled-count oracle) -----------

/// Tasks each slot of `pool` has been handed, slot 0 first.
std::vector<std::uint64_t> scheduled(const runtime::ThreadPool& pool) {
  std::vector<std::uint64_t> counts;
  for (int s = 0; s < pool.concurrency(); ++s) counts.push_back(pool.scheduled_on_slot(s));
  return counts;
}

const auto noop = [](int, runtime::TaskContext&) {};

TEST(ThreadPoolPlacement, RunBlockDistributesOverEverySlot) {
  runtime::ThreadPool pool(8);
  std::atomic<int> ran{0};
  pool.run(16, [&](int, runtime::TaskContext&) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16);
  // Assignment-time counts do not depend on stealing: 2 tasks per slot.
  EXPECT_EQ(scheduled(pool), std::vector<std::uint64_t>(8, 2));

  runtime::ThreadPool uneven(8);
  uneven.run(10, noop);  // 10 = 8 + 2: two slots get a second task
  std::uint64_t total = 0;
  for (const std::uint64_t count : scheduled(uneven)) {
    EXPECT_GE(count, 1u);
    EXPECT_LE(count, 2u);
    total += count;
  }
  EXPECT_EQ(total, 10u);
}

TEST(ThreadPoolPlacement, SmallQueuedBatchesRotateOverWorkerSlotsOnly) {
  // Slot 3 is the caller slot: submit() never places on it, run() does.
  runtime::ThreadPool pool(4);

  // One-task batches rotate over the three worker slots: a third each.
  for (int i = 0; i < 300; ++i) pool.submit(1, noop).get();
  EXPECT_EQ(scheduled(pool), (std::vector<std::uint64_t>{100, 100, 100, 0}));

  // A two-task batch puts one task on each of two worker slots (the block
  // split of 2 over 3 leaves the home slot, here slot 0, empty).
  pool.submit(2, noop).get();
  EXPECT_EQ(scheduled(pool), (std::vector<std::uint64_t>{100, 101, 101, 0}));

  // run() does not rotate and spreads over every slot, the caller's too.
  pool.run(8, noop);
  EXPECT_EQ(scheduled(pool), (std::vector<std::uint64_t>{102, 103, 103, 2}));
}

TEST(ThreadPoolPlacement, BalancedOneTaskPerSlotBatchHasZeroSteals) {
  // One task per slot, latch-gated so no task finishes until every slot
  // has popped its own: no slot is ever idle with work queued elsewhere,
  // so steals() == 0 is deterministic even on an oversubscribed host.
  runtime::ThreadPool pool(4);
  std::latch all_started(4);
  pool.run(4, [&](int, runtime::TaskContext&) { all_started.arrive_and_wait(); });
  EXPECT_EQ(pool.steals(), 0u);
  EXPECT_EQ(scheduled(pool), (std::vector<std::uint64_t>{1, 1, 1, 1}));
}

TEST(ThreadPoolPlacement, WarmGrowsEverySlotThenBatchAllocatesNothing) {
  runtime::ThreadPool pool(4);
  const std::size_t floats = 3000, doubles = 5000;
  pool.warm_workspaces(floats, doubles);
  std::vector<std::size_t> grows_before;
  for (int s = 0; s < pool.concurrency(); ++s) {
    EXPECT_GE(pool.workspace(s).bytes(), floats * sizeof(float) + doubles * sizeof(double))
        << "slot " << s;
    grows_before.push_back(pool.workspace(s).grow_count());
  }
  // A batch fitting the warmed bound allocates nothing on any slot.
  pool.run(8, [&](int, runtime::TaskContext& ctx) {
    Arena<double>& arena = ctx.arena<double>(doubles);
    arena.allocate(doubles);
  });
  for (int s = 0; s < pool.concurrency(); ++s) {
    EXPECT_EQ(pool.workspace(s).grow_count(), grows_before[static_cast<std::size_t>(s)])
        << "slot " << s;
  }
}

// A queued batch of k < 3 tasks from home slot h is split blockwise over
// the 3 worker slots starting at h, so its tasks take the *last* k of
// slots h, h+1, h+2 (mod 3); the next home is h + k.

TEST(ThreadPoolPlacement, WideQueuedBatchesDoNotAdvanceTheRotation) {
  runtime::ThreadPool pool(4);
  pool.submit(1, noop).get();  // home 0: slot 2; the next home is 1
  EXPECT_EQ(scheduled(pool), (std::vector<std::uint64_t>{0, 0, 1, 0}));
  pool.submit(3, noop).get();  // as wide as the worker slots: no rotation
  EXPECT_EQ(scheduled(pool), (std::vector<std::uint64_t>{1, 1, 2, 0}));
  pool.submit(1, noop).get();  // still home 1: slot 0
  EXPECT_EQ(scheduled(pool), (std::vector<std::uint64_t>{2, 1, 2, 0}));
}

TEST(ThreadPoolPlacement, RotationWrapsAroundTheWorkerSlots) {
  runtime::ThreadPool pool(4);
  pool.submit(1, noop).get();  // home 0: slot 2
  pool.submit(1, noop).get();  // home 1: slot 0
  EXPECT_EQ(scheduled(pool), (std::vector<std::uint64_t>{1, 0, 1, 0}));
  pool.submit(2, noop).get();  // home 2: slots 0 and 1, wrapping around
  EXPECT_EQ(scheduled(pool), (std::vector<std::uint64_t>{2, 1, 1, 0}));
  pool.submit(1, noop).get();  // home (2 + 2) % 3 = 1: slot 0
  EXPECT_EQ(scheduled(pool), (std::vector<std::uint64_t>{3, 1, 1, 0}));
}

TEST(ThreadPoolPlacement, NarrowRunGivesEveryTaskItsOwnSlot) {
  // The blocking-batch invariant (thread_pool.hpp): ntasks <= concurrency()
  // puts at most one task on a slot, the caller slot included.
  runtime::ThreadPool pool(8);
  pool.run(3, noop);
  EXPECT_EQ(scheduled(pool), (std::vector<std::uint64_t>{0, 0, 1, 0, 0, 1, 0, 1}));
  // So tasks that wait for each other cannot deadlock at that width.
  std::latch all_started(5);
  pool.run(5, [&](int, runtime::TaskContext&) { all_started.arrive_and_wait(); });
  std::uint64_t total = 0;
  for (const std::uint64_t count : scheduled(pool)) {
    EXPECT_LE(count, 2u);
    total += count;
  }
  EXPECT_EQ(total, 8u);
}

TEST(ThreadPoolPlacement, InlineExecutionSchedulesNothing) {
  runtime::ThreadPool pool(4);
  pool.run(1, noop);  // one-task batch: inline on the caller
  // Nested submissions run inline inside the outer task.
  pool.run(4, [&](int, runtime::TaskContext&) {
    pool.run(8, noop);
    pool.submit(3, noop).get();
  });
  EXPECT_EQ(scheduled(pool), (std::vector<std::uint64_t>{1, 1, 1, 1}));
  EXPECT_EQ(pool.batches(), 1u);

  runtime::ThreadPool workerless(1);
  auto f = workerless.submit(5, noop);
  EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  f.get();
  workerless.run(5, noop);
  EXPECT_EQ(workerless.scheduled_on_slot(0), 0u);
  EXPECT_EQ(workerless.batches(), 0u);
  EXPECT_EQ(workerless.steals(), 0u);
}

TEST(ThreadPoolPlacement, TasksQueuedBehindABlockedTaskAreStolen) {
  // Slot 0 holds tasks 0 and 1; task 0 cannot finish until tasks 1-7 have,
  // so task 1 (or task 0 itself) must run on a slot that stole it.
  runtime::ThreadPool pool(4);
  std::latch others_done(7);
  std::vector<int> ran_on(8, -1);
  pool.run(8, [&](int t, runtime::TaskContext& ctx) {
    ran_on[static_cast<std::size_t>(t)] = ctx.worker;
    if (t == 0) {
      others_done.wait();
    } else {
      others_done.count_down();
    }
  });
  EXPECT_GE(pool.steals(), 1u);
  EXPECT_LE(pool.steals(), 7u);
  for (int t = 0; t < 8; ++t) EXPECT_GE(ran_on[static_cast<std::size_t>(t)], 0) << "task " << t;
  // Placement is assignment-time: stealing does not move the counts.
  EXPECT_EQ(scheduled(pool), (std::vector<std::uint64_t>{2, 2, 2, 2}));
  // A flat pool has no remote victims; perfbench's two counters read
  // steals() and 0.
  EXPECT_EQ(pool.local_steals(), pool.steals());
  EXPECT_EQ(pool.remote_steals(), 0u);
}

TEST(ThreadPoolPlacement, QueueDepthCountsTasksNotYetTaken) {
  // Two slots: one worker, and a caller slot nobody drains on the submit()
  // path. With the worker held inside a task, later tasks stay queued.
  runtime::ThreadPool pool(2);
  std::latch started(1);
  std::latch release(1);
  auto held = pool.submit(1, [&](int, runtime::TaskContext&) {
    started.count_down();
    release.wait();
  });
  started.wait();
  EXPECT_EQ(pool.queue_depth(), 0u);
  auto queued = pool.submit(3, noop);
  EXPECT_EQ(pool.queue_depth(), 3u);
  release.count_down();
  held.get();
  queued.get();
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(scheduled(pool), (std::vector<std::uint64_t>{4, 0}));
}

TEST(ThreadPoolPlacement, RunCallerStealsTheColdEndAndStopsWhenItsBatchIsDone) {
  // Two slots: worker 0, held inside a task, and the caller slot.
  runtime::ThreadPool pool(2);
  std::latch started(1);
  std::latch release(1);
  auto held = pool.submit(1, [&](int, runtime::TaskContext&) {
    started.count_down();
    release.wait();
  });
  started.wait();
  auto queued = pool.submit(3, noop);  // behind the held task on slot 0
  // run(2) puts task 0 on slot 0 behind the queued batch and task 1 on the
  // caller slot. The caller runs its own task, then steals slot 0's cold
  // end, which is its own task 0, and returns without touching the older
  // batch: it is not drafted into foreign work once its batch is done.
  std::vector<int> ran;
  pool.run(2, [&](int t, runtime::TaskContext& ctx) {
    EXPECT_EQ(ctx.worker, 1) << "task " << t;
    ran.push_back(t);
  });
  EXPECT_EQ(ran, (std::vector<int>{1, 0}));
  EXPECT_EQ(pool.steals(), 1u);
  EXPECT_EQ(pool.queue_depth(), 3u);
  release.count_down();
  held.get();
  queued.get();
  EXPECT_EQ(pool.steals(), 1u);
}

TEST(ThreadPoolPlacement, ThievesTryVictimsInRotationFromTheNextSlot) {
  // Three slots: workers 0 and 1, both held, and the caller slot 2. The
  // caller drains its own task, then steals from victims 2+1 = 0 and then
  // 2+2 = 1 (mod 3), in that order.
  runtime::ThreadPool pool(3);
  std::latch started(2);
  std::latch release(1);
  auto held = pool.submit(2, [&](int, runtime::TaskContext&) {
    started.count_down();
    release.wait();
  });
  started.wait();
  std::vector<int> ran;
  pool.run(3, [&](int t, runtime::TaskContext& ctx) {
    EXPECT_EQ(ctx.worker, 2) << "task " << t;
    ran.push_back(t);
  });
  release.count_down();
  held.get();
  EXPECT_EQ(ran, (std::vector<int>{2, 0, 1}));
  EXPECT_EQ(pool.steals(), 2u);
}

TEST(ThreadPoolPlacement, TaskContextNamesTheExecutingSlotAndItsWorkspace) {
  runtime::ThreadPool pool(4);
  std::atomic<int> mismatches{0};
  std::atomic<int> ran{0};
  for (int rep = 0; rep < 20; ++rep) {
    pool.run(64, [&](int, runtime::TaskContext& ctx) {
      if (ctx.worker < 0 || ctx.worker >= pool.concurrency() ||
          ctx.workspace != &pool.workspace(ctx.worker)) {
        mismatches.fetch_add(1);
      }
      ran.fetch_add(1);
    });
  }
  EXPECT_EQ(ran.load(), 20 * 64);
  EXPECT_EQ(mismatches.load(), 0);
  // Inline execution uses a thread-local workspace, never a slot's.
  pool.run(1, [&](int, runtime::TaskContext& ctx) {
    EXPECT_EQ(ctx.worker, 0);
    for (int s = 0; s < pool.concurrency(); ++s) EXPECT_NE(ctx.workspace, &pool.workspace(s));
  });
}

TEST(ThreadPoolWarm, MarkRisesPerTypeAndSmallerWarmsReturnAtOnce) {
  runtime::ThreadPool pool(3);
  const auto grows = [&pool] {
    std::vector<std::size_t> counts;
    for (int s = 0; s < pool.concurrency(); ++s) counts.push_back(pool.workspace(s).grow_count());
    return counts;
  };
  pool.warm_workspaces(1000, 0);
  const auto after_float = grows();
  // A larger double request keeps the float mark: nothing shrinks, and
  // only the double slab grows.
  pool.warm_workspaces(0, 2000);
  const auto after_double = grows();
  for (int s = 0; s < pool.concurrency(); ++s) {
    EXPECT_EQ(after_double[static_cast<std::size_t>(s)],
              after_float[static_cast<std::size_t>(s)] + 1)
        << "slot " << s;
    EXPECT_GE(pool.workspace(s).bytes(), 1000 * sizeof(float) + 2000 * sizeof(double));
  }
  // At or below both marks: the two-load fast path, no growth anywhere.
  pool.warm_workspaces(1000, 2000);
  pool.warm_workspaces(10, 20);
  EXPECT_EQ(grows(), after_double);
}

TEST(ThreadPoolWarm, ConcurrentWarmsSerializeToTheLargestRequest) {
  runtime::ThreadPool pool(4);
  std::vector<std::thread> warmers;
  for (int k = 1; k <= 4; ++k) {
    warmers.emplace_back([&pool, k] {
      pool.warm_workspaces(static_cast<std::size_t>(k) * 1000,
                           static_cast<std::size_t>(5 - k) * 1000);
    });
  }
  for (auto& t : warmers) t.join();
  for (int s = 0; s < pool.concurrency(); ++s) {
    EXPECT_GE(pool.workspace(s).bytes(), 4000 * sizeof(float) + 4000 * sizeof(double))
        << "slot " << s;
  }
  const std::size_t before = pool.workspace(0).grow_count();
  pool.run(8, [](int, runtime::TaskContext& ctx) {
    ctx.arena<float>(4000).allocate(4000)[3999] = 1.0f;
    ctx.arena<double>(4000).allocate(4000)[3999] = 1.0;
  });
  EXPECT_EQ(pool.workspace(0).grow_count(), before);
}

TEST(ThreadPoolWarm, GrowingWarmsInterleavedWithServedBatchesNeverRaceTasks) {
  // A client streams batches whose tasks fill their whole arena while
  // another thread keeps raising the warmed mark. Every growth must land
  // between batches: a slab reallocated under a running task would show
  // up as a wrong read-back here, or under the sanitizers.
  runtime::ThreadPool pool(4);
  std::atomic<int> bad{0};
  std::thread client([&] {
    for (int i = 0; i < 200; ++i) {
      const std::size_t elems = 64 + static_cast<std::size_t>(i % 7) * 32;
      const auto fill = [&, elems](int t, runtime::TaskContext& ctx) {
        double* p = ctx.arena<double>(elems).allocate(elems);
        for (std::size_t j = 0; j < elems; ++j) p[j] = static_cast<double>(t);
        for (std::size_t j = 0; j < elems; ++j) {
          if (p[j] != static_cast<double>(t)) bad.fetch_add(1);
        }
      };
      pool.warm_workspaces(0, elems);
      pool.submit(1 + i % 5, fill).get();
    }
  });
  for (std::size_t mark = 256; mark < 256 + 100 * 64; mark += 64) {
    pool.warm_workspaces(mark, mark);
    std::this_thread::yield();
  }
  client.join();
  EXPECT_EQ(bad.load(), 0);
}

// ---- Batch and shared-state recycling -----------------------------------

TEST(ThreadPoolMultiBatch, RecycledBatchDoesNotCarryAnEarlierError) {
  // Retired batches are reused: a failed batch's error must leave with its
  // own future, never resurface on a later batch's.
  runtime::ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    auto bad = pool.submit(1 + round % 4, [](int, runtime::TaskContext&) {
      throw std::runtime_error("bad batch");
    });
    EXPECT_THROW(bad.get(), std::runtime_error) << "round " << round;
    std::atomic<int> ran{0};
    auto good = pool.submit(1 + round % 5, [&ran](int, runtime::TaskContext&) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_NO_THROW(good.get()) << "round " << round;
    EXPECT_EQ(ran.load(), 1 + round % 5);
    EXPECT_NO_THROW(pool.run(6, [](int, runtime::TaskContext&) {})) << "round " << round;
  }
}

TEST(ThreadPoolMultiBatch, RetiredBatchReleasesItsBodyCaptures) {
  // A batch waiting on the free list must not keep its body's captures
  // alive: they are released before the future becomes ready.
  runtime::ThreadPool pool(3);
  auto token = std::make_shared<int>(7);
  for (int ntasks : {1, 2, 5}) {
    std::atomic<int> seen{0};
    pool.submit(ntasks, [token, &seen](int, runtime::TaskContext&) {
          seen.fetch_add(*token, std::memory_order_relaxed);
        }).get();
    EXPECT_EQ(seen.load(), 7 * ntasks);
    EXPECT_EQ(token.use_count(), 1) << ntasks << " tasks";
  }
}

TEST(ThreadPoolMultiBatch, FuturesOutliveTheirPool) {
  // The futures' shared states come from the pool's block recycler, which
  // must stay alive until the last future is gone.
  std::future<void> ok, failed;
  {
    runtime::ThreadPool pool(2);
    ok = pool.submit(3, [](int, runtime::TaskContext&) {});
    failed = pool.submit(2, [](int, runtime::TaskContext&) {
      throw std::runtime_error("task failed");
    });
    ok.wait();
    failed.wait();
  }
  EXPECT_NO_THROW(ok.get());
  EXPECT_THROW(failed.get(), std::runtime_error);
}

TEST(BlockRecycler, ReturnedBlockIsHandedOutAgain) {
  runtime::BlockRecycler* r = runtime::BlockRecycler::create();
  void* first = r->allocate();
  ASSERT_NE(first, nullptr);
  r->deallocate(first);
  void* again = r->allocate();
  EXPECT_EQ(again, first) << "an idle block must be reused before the heap";
  void* other = r->allocate();
  EXPECT_NE(other, again);
  r->deallocate(again);
  r->deallocate(other);
  r->release();
}

TEST(BlockRecycler, OutlivesOwnerUntilItsLastBlockReturns) {
  // After the owner's release() the blocks still out stay usable; the
  // last deallocate frees the recycler (ASan checks both directions).
  runtime::BlockRecycler* r = runtime::BlockRecycler::create();
  auto* a = static_cast<unsigned char*>(r->allocate());
  auto* b = static_cast<unsigned char*>(r->allocate());
  r->release();
  std::fill(a, a + runtime::BlockRecycler::kBlockBytes, 0xA5);
  std::fill(b, b + runtime::BlockRecycler::kBlockBytes, 0x5A);
  EXPECT_EQ(a[runtime::BlockRecycler::kBlockBytes - 1], 0xA5);
  EXPECT_EQ(b[0], 0x5A);
  r->deallocate(a);
  r->deallocate(b);
}

TEST(BlockRecycler, ConcurrentClientsNeverShareABlock) {
  // Threads take and return blocks concurrently; each writes its own tag
  // over its whole block and checks it before returning it, so a block
  // handed to two holders at once shows as a torn tag.
  runtime::BlockRecycler* r = runtime::BlockRecycler::create();
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  constexpr std::size_t kWords = runtime::BlockRecycler::kBlockBytes / sizeof(std::uint64_t);
  std::atomic<int> torn{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([r, t, &torn] {
      std::vector<std::uint64_t*> held;
      for (int i = 0; i < kRounds; ++i) {
        const std::uint64_t tag = (static_cast<std::uint64_t>(t) << 32) | static_cast<unsigned>(i);
        auto* block = static_cast<std::uint64_t*>(r->allocate());
        std::fill(block, block + kWords, tag);
        held.push_back(block);
        if (held.size() == 3 || i + 1 == kRounds) {
          for (std::uint64_t* h : held) {
            for (std::size_t w = 1; w < kWords; ++w) {
              if (h[w] != h[0]) torn.fetch_add(1, std::memory_order_relaxed);
            }
            if (h[0] >> 32 != static_cast<std::uint64_t>(t)) {
              torn.fetch_add(1, std::memory_order_relaxed);
            }
            r->deallocate(h);
          }
          held.clear();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  r->release();
  EXPECT_EQ(torn.load(), 0);
}

TEST(RecyclingAllocator, OversizedAllocationsBypassTheFreeList) {
  // Requests larger than one block come from the heap and go back to it;
  // they neither take nor leave a recycled block.
  runtime::BlockRecycler* r = runtime::BlockRecycler::create();
  runtime::RecyclingAllocator<char> alloc(r);
  char* small = alloc.allocate(runtime::BlockRecycler::kBlockBytes);
  alloc.deallocate(small, runtime::BlockRecycler::kBlockBytes);
  const std::size_t big_n = 4 * runtime::BlockRecycler::kBlockBytes;
  char* big = alloc.allocate(big_n);
  EXPECT_NE(big, small);
  std::fill(big, big + big_n, 'x');
  EXPECT_EQ(big[big_n - 1], 'x');
  alloc.deallocate(big, big_n);
  char* again = alloc.allocate(runtime::BlockRecycler::kBlockBytes);
  EXPECT_EQ(again, small) << "the idle block must still be the next one handed out";
  alloc.deallocate(again, runtime::BlockRecycler::kBlockBytes);
  // A promise over the allocator round-trips a value.
  {
    std::promise<int> p(std::allocator_arg, alloc);
    std::future<int> f = p.get_future();
    p.set_value(41);
    EXPECT_EQ(f.get(), 41);
  }
  r->release();
}

// ---- Workspace reuse --------------------------------------------------

TEST(Workspace, GrowsMonotonicallyAndReuses) {
  runtime::Workspace ws;
  Arena<double>& a1 = ws.arena<double>(100);
  EXPECT_GE(a1.capacity(), 100u);
  EXPECT_EQ(ws.grow_count(), 1u);
  double* p = a1.allocate(100);
  EXPECT_NE(p, nullptr);
  // A smaller request reuses the slab, reset to empty.
  Arena<double>& a2 = ws.arena<double>(50);
  EXPECT_EQ(&a2, &a1);
  EXPECT_EQ(a2.used(), 0u);
  EXPECT_GE(a2.capacity(), 100u);
  EXPECT_EQ(ws.grow_count(), 1u);
  // A larger request grows once; float arena is independent.
  ws.arena<double>(200);
  EXPECT_EQ(ws.grow_count(), 2u);
  ws.arena<float>(64);
  EXPECT_EQ(ws.grow_count(), 3u);
  EXPECT_GE(ws.bytes(), 200 * sizeof(double) + 64 * sizeof(float));
}

TEST(ThreadPool, WarmPoolStopsAllocatingWorkspace) {
  runtime::ThreadPool pool(3);
  // Stealing routes any task to any slot, so "warming by execution" is
  // nondeterministic — a slot may first meet the largest request in a
  // late batch. The contract (and what ata_shared does) is to pre-grow
  // every slot to the batch bound; after that no batch may allocate.
  pool.warm_workspaces(0, 1024 + 64 * 3);
  std::size_t grows_after_warmup = 0;
  for (int s = 0; s < pool.concurrency(); ++s) {
    grows_after_warmup += pool.workspace(s).grow_count();
  }
  auto batch = [&] {
    pool.run(24, [&](int t, runtime::TaskContext& ctx) {
      Arena<double>& arena = ctx.arena<double>(static_cast<std::size_t>(1024 + 64 * (t % 4)));
      double* p = arena.allocate(128);
      p[0] = static_cast<double>(t);  // touch the slab
    });
  };
  for (int rep = 0; rep < 6; ++rep) batch();
  std::size_t grows_after_reps = 0;
  for (int s = 0; s < pool.concurrency(); ++s) {
    grows_after_reps += pool.workspace(s).grow_count();
  }
  EXPECT_EQ(grows_after_reps, grows_after_warmup)
      << "warmed batches must not reallocate workspace";
}

// ---- Over-decomposed AtA-S schedule ------------------------------------

TEST(SharedScheduleOversub, BuildsPrimeTasksWithDisjointCoveringWrites) {
  const index_t m = 120, n = 97;
  for (int p : {3, 4, 7}) {
    for (int oversub : {2, 3}) {
      const auto s = sched::build_shared_schedule(m, n, p, oversub);
      EXPECT_EQ(static_cast<int>(s.tasks.size()), p * oversub) << "P=" << p << " c=" << oversub;
      std::vector<sched::LeafOp> all;
      for (const auto& t : s.tasks) all.insert(all.end(), t.ops.begin(), t.ops.end());
      for (std::size_t i = 0; i < all.size(); ++i) {
        for (std::size_t j = i + 1; j < all.size(); ++j) {
          EXPECT_FALSE(sched::writes_overlap(all[i], all[j]))
              << all[i].to_string() << " vs " << all[j].to_string();
        }
      }
      // Every lower-triangle cell written exactly once.
      std::vector<int> hits(static_cast<std::size_t>(n * n), 0);
      for (const auto& op : all) {
        for (index_t i = 0; i < op.c.rows; ++i) {
          for (index_t j = 0; j < op.c.cols; ++j) {
            if (op.kind == sched::LeafOp::Kind::kSyrk && j > i) continue;
            hits[static_cast<std::size_t>((op.c.r0 + i) * n + op.c.c0 + j)]++;
          }
        }
      }
      for (index_t i = 0; i < n; ++i) {
        for (index_t j = 0; j <= i; ++j) {
          ASSERT_EQ(hits[static_cast<std::size_t>(i * n + j)], 1)
              << "cell (" << i << "," << j << ") P=" << p << " c=" << oversub;
        }
      }
    }
  }
}

// ---- AtA-S over the pool vs serial engines -----------------------------

RecurseOptions tiny_base() {
  RecurseOptions opts;
  opts.base_case_elements = 256;
  opts.min_dim = 2;
  return opts;
}

/// ata_shared on an explicit pool: the same cached plan, run by `pool`
/// instead of the global one.
template <typename T>
void ata_shared_on(runtime::ThreadPool& pool, T alpha, ConstMatrixView<T> a, MatrixView<T> c,
                   const SharedOptions& so) {
  const auto plan = api::PlanCache::global().get_or_build(
      api::shared_plan_key(api::dtype_of<T>(), a.rows, a.cols, so));
  api::execute(*plan, alpha, a, c, &pool);
}

TEST(AtaSharedPool, BitwiseMatchesSerialAtaOnIntegerInputs) {
  // Integer matrices make every execution order produce identical floats,
  // so the pool execution (any stealing interleaving) must agree exactly
  // with the serial recursion.
  runtime::ThreadPool pool(4);
  const struct {
    index_t m, n;
  } shapes[] = {{64, 64}, {96, 80}, {120, 88}};
  for (const auto& shape : shapes) {
    const auto a = random_integer<double>(shape.m, shape.n, 3, 1234);
    auto c_serial = Matrix<double>::zeros(shape.n, shape.n);
    ata(1.0, a.const_view(), c_serial.view(), tiny_base());
    for (int p : {1, 3, 4, 7}) {
      for (int oversub : {1, 2, 4}) {
        SharedOptions so;
        so.threads = p;
        so.oversub = oversub;
        so.recurse = tiny_base();
        so.engine = LeafEngine::kStrassen;
        auto c_pool = Matrix<double>::zeros(shape.n, shape.n);
        ata_shared_on(pool, 1.0, a.const_view(), c_pool.view(), so);
        EXPECT_EQ(max_abs_diff_lower<double>(c_pool.const_view(), c_serial.const_view()), 0.0)
            << "m=" << shape.m << " n=" << shape.n << " P=" << p << " c=" << oversub;
      }
    }
  }
}

TEST(AtaSharedPool, GlobalPoolAndExplicitPoolAgree) {
  const auto a = random_integer<float>(72, 56, 2, 77);
  auto c_ref = Matrix<float>::zeros(56, 56);
  blas::ref::syrk_ln(1.0f, a.const_view(), c_ref.view());

  SharedOptions so;
  so.threads = 5;
  so.oversub = 2;
  so.recurse = tiny_base();
  so.engine = LeafEngine::kStrassen;
  auto c_global = Matrix<float>::zeros(56, 56);
  ata_shared(1.0f, a.const_view(), c_global.view(), so);  // the global pool

  runtime::ThreadPool pool(4);
  auto c_pool = Matrix<float>::zeros(56, 56);
  ata_shared_on(pool, 1.0f, a.const_view(), c_pool.view(), so);

  EXPECT_EQ(max_abs_diff_lower<float>(c_global.const_view(), c_ref.const_view()), 0.0);
  EXPECT_EQ(max_abs_diff_lower<float>(c_pool.const_view(), c_ref.const_view()), 0.0);
}

TEST(AtaSharedPool, BlasEngineAndProfileAgreeOverPool) {
  runtime::ThreadPool pool(3);
  const auto a = random_integer<double>(80, 64, 3, 91);
  auto c_ref = Matrix<double>::zeros(64, 64);
  blas::ref::syrk_ln(1.0, a.const_view(), c_ref.view());

  SharedOptions so;
  so.threads = 6;
  so.oversub = 3;
  so.recurse = tiny_base();
  so.engine = SharedOptions::Engine::kBlas;
  auto c_blas = Matrix<double>::zeros(64, 64);
  ata_shared_on(pool, 1.0, a.const_view(), c_blas.view(), so);
  EXPECT_EQ(max_abs_diff_lower<double>(c_blas.const_view(), c_ref.const_view()), 0.0);

  so.engine = SharedOptions::Engine::kStrassen;
  auto c_prof = Matrix<double>::zeros(64, 64);
  const auto profile = ata_shared_profile(1.0, a.const_view(), c_prof.view(), so);
  EXPECT_EQ(static_cast<int>(profile.task_seconds.size()), 6 * 3);
  EXPECT_EQ(max_abs_diff_lower<double>(c_prof.const_view(), c_ref.const_view()), 0.0);
}

TEST(AtaSharedPool, SingleThreadPlanRunsInlineOnCaller) {
  // A P = 1 plan asks for no concurrency, whatever its oversub: execute()
  // must run all its tasks on the calling thread — no batch admitted, no
  // slot executing (or growing a workspace for) any task — and still
  // produce the serial result.
  runtime::ThreadPool pool(4);
  const auto a = random_integer<double>(96, 80, 3, 2024);
  auto c_serial = Matrix<double>::zeros(80, 80);
  ata(1.0, a.const_view(), c_serial.view(), tiny_base());

  SharedOptions so;
  so.threads = 1;
  so.oversub = 4;
  so.recurse = tiny_base();
  so.engine = LeafEngine::kStrassen;
  const auto plan = api::PlanCache::global().get_or_build(
      api::shared_plan_key(api::Dtype::kF64, 96, 80, so));
  ASSERT_EQ(plan->key().p, 1);
  ASSERT_EQ(plan->schedule().tasks.size(), 4u);

  const std::uint64_t batches_before = pool.batches();
  auto c = Matrix<double>::zeros(80, 80);
  api::execute(*plan, 1.0, a.const_view(), c.view(), &pool);

  EXPECT_EQ(pool.batches(), batches_before);
  for (int s = 0; s < pool.concurrency(); ++s) {
    EXPECT_EQ(pool.scheduled_on_slot(s), 0u) << "slot " << s << " was handed a task";
    EXPECT_EQ(pool.workspace(s).grow_count(), 0u) << "slot " << s;
  }
  EXPECT_EQ(max_abs_diff_lower<double>(c.const_view(), c_serial.const_view()), 0.0);
}

// ---- Plan thread-count sweeps over one pool -----------------------------
// Whatever P a plan asks for, its tasks run on the pool the caller names,
// with as many (or as few) slots as it has. On integer inputs every
// execution order gives the same floats, so the result must equal the
// serial kernel's bitwise.

class PoolSyrkThreads : public ::testing::TestWithParam<int> {};

TEST_P(PoolSyrkThreads, BlasEnginePlanMatchesSerialSyrk) {
  runtime::ThreadPool pool(4);
  const auto a = random_integer<double>(60, 53, 3, 13);
  auto c_ref = Matrix<double>::zeros(53, 53);
  blas::syrk_ln(1.0, a.const_view(), c_ref.view());

  SharedOptions so;
  so.threads = GetParam();
  so.recurse = tiny_base();
  so.engine = SharedOptions::Engine::kBlas;
  auto c = Matrix<double>::zeros(53, 53);
  ata_shared_on(pool, 1.0, a.const_view(), c.view(), so);
  EXPECT_EQ(max_abs_diff_lower<double>(c.const_view(), c_ref.const_view()), 0.0);
  for (index_t j = 1; j < 53; ++j) {
    for (index_t i = 0; i < j; ++i) ASSERT_EQ(c(i, j), 0.0) << "upper (" << i << "," << j << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadSweep, PoolSyrkThreads, ::testing::Values(1, 2, 3, 5, 8, 16, 53));

class PoolAtaThreads : public ::testing::TestWithParam<int> {};

TEST_P(PoolAtaThreads, StrassenPlanMatchesSerialAta) {
  runtime::ThreadPool pool(3);
  const auto a = random_integer<float>(50, 41, 3, 11);
  auto c_serial = Matrix<float>::zeros(41, 41);
  ata(1.0f, a.const_view(), c_serial.view(), tiny_base());

  SharedOptions so;
  so.threads = GetParam();
  so.oversub = 2;
  so.recurse = tiny_base();
  so.engine = LeafEngine::kStrassen;
  auto c_pool = Matrix<float>::zeros(41, 41);
  ata_shared_on(pool, 1.0f, a.const_view(), c_pool.view(), so);
  auto c_global = Matrix<float>::zeros(41, 41);
  ata_shared(1.0f, a.const_view(), c_global.view(), so);

  EXPECT_EQ(max_abs_diff_lower<float>(c_pool.const_view(), c_serial.const_view()), 0.0f);
  EXPECT_EQ(max_abs_diff_lower<float>(c_global.const_view(), c_serial.const_view()), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(ThreadSweep, PoolAtaThreads, ::testing::Values(1, 2, 3, 4, 8, 16, 64));

TEST(AtaSharedPool, MoreThreadsThanColumnsStillCorrect) {
  // P far above n: the schedule runs out of blocks to split, and the plan
  // must still cover the lower triangle exactly once.
  runtime::ThreadPool pool(4);
  const auto a = random_integer<double>(10, 4, 2, 14);
  auto c_ref = Matrix<double>::zeros(4, 4);
  blas::syrk_ln(1.0, a.const_view(), c_ref.view());
  for (const auto engine : {SharedOptions::Engine::kStrassen, SharedOptions::Engine::kBlas}) {
    SharedOptions so;
    so.threads = 128;
    so.recurse = tiny_base();
    so.engine = engine;
    auto c = Matrix<double>::zeros(4, 4);
    ata_shared_on(pool, 1.0, a.const_view(), c.view(), so);
    EXPECT_EQ(max_abs_diff_lower<double>(c.const_view(), c_ref.const_view()), 0.0)
        << "engine " << static_cast<int>(engine);
  }
}

// ---- Served traffic over the pool's worker slots -------------------------

TEST(ServerPlacement, ServedTrafficSpreadsOverWorkerSlots) {
  // 4 slots: workers 0-2 and the caller slot 3. Queued batches go to the
  // worker slots only, rotating the home of one-task batches, so served
  // traffic never piles onto one slot.
  api::Server server(api::Server::Options{.threads = 4, .plan_capacity = 4});
  const index_t m = 64, n = 16;
  const auto a = random_integer<double>(m, n, 2, 7);
  auto c = Matrix<double>::zeros(n, n);
  const api::AtaRequest<double> req{1.0, a.const_view(), c.view()};
  for (int i = 0; i < 300; ++i) {
    server.submit_batch<double>(std::span<const api::AtaRequest<double>>(&req, 1))[0].get();
  }
  EXPECT_EQ(scheduled(server.executor()), (std::vector<std::uint64_t>{100, 100, 100, 0}));

  // An 8-stripe request splits 2/3/3 over worker slots 0-2.
  const index_t big_m = 96, big_n = 80;
  const auto big = random_integer<double>(big_m, big_n, 3, 11);
  auto c_big = Matrix<double>::zeros(big_n, big_n);
  SharedOptions so;
  so.threads = 4;
  so.oversub = 2;
  so.recurse = tiny_base();
  so.engine = LeafEngine::kStrassen;
  server.submit(1.0, big.const_view(), c_big.view(), so).get();
  EXPECT_EQ(scheduled(server.executor()), (std::vector<std::uint64_t>{102, 103, 103, 0}));

  auto c_serial = Matrix<double>::zeros(big_n, big_n);
  ata(1.0, big.const_view(), c_serial.view(), tiny_base());
  EXPECT_EQ(max_abs_diff_lower<double>(c_big.const_view(), c_serial.const_view()), 0.0);
}

}  // namespace
}  // namespace atalib
