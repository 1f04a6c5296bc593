// Tests for the persistent task-pool runtime: exactly-once execution under
// stealing (the Snippet-1-style integrity property), workspace reuse,
// re-entrancy, error propagation, the over-decomposed AtA-S schedule,
// bitwise agreement of pool-executed AtA-S with the serial engines for any
// plan thread count, and inline execution of P = 1 plans.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/execute.hpp"
#include "api/plan_cache.hpp"
#include "ata/ata.hpp"
#include "blas/reference.hpp"
#include "blas/syrk.hpp"
#include "matrix/compare.hpp"
#include "matrix/generate.hpp"
#include "parallel/ata_shared.hpp"
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
  const auto plan = api::PlanCache::global().get_or_build(
      api::shared_plan_key(api::Dtype::kF64, 96, 80, so));
  ASSERT_EQ(plan->key().p, 1);
  ASSERT_EQ(plan->schedule().tasks.size(), 4u);

  const std::uint64_t batches_before = pool.batches();
  auto c = Matrix<double>::zeros(80, 80);
  api::execute(*plan, 1.0, a.const_view(), c.view(), &pool);

  EXPECT_EQ(pool.batches(), batches_before);
  EXPECT_EQ(pool.numa_stats().total_executed(), 0u) << "a pool slot executed a task";
  for (int s = 0; s < pool.concurrency(); ++s) {
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

}  // namespace
}  // namespace atalib
