// Tests for the plan/execute split and the serving front-end (src/api/):
// PlanCache LRU/stats/build-once semantics, the warm-path acceptance
// properties (zero schedule builds and zero workspace slab allocations on
// second-and-later executions of a cached plan), concurrent Server::submit
// correctness against serial execution, and SharedOptions validation.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/execute.hpp"
#include "api/plan_cache.hpp"
#include "api/server.hpp"
#include "ata/ata.hpp"
#include "blas/syrk.hpp"
#include "dist/ata_dist.hpp"
#include "matrix/compare.hpp"
#include "matrix/generate.hpp"
#include "parallel/ata_shared.hpp"
#include "runtime/thread_pool.hpp"
#include "sched/dist_tree.hpp"
#include "sched/shared_schedule.hpp"

namespace atalib {
namespace {

RecurseOptions tiny_base() {
  RecurseOptions opts;
  opts.base_case_elements = 256;
  opts.min_dim = 2;
  return opts;
}

SharedOptions shared_opts(int threads, int oversub) {
  SharedOptions so;
  so.threads = threads;
  so.oversub = oversub;
  so.recurse = tiny_base();
  so.engine = LeafEngine::kStrassen;
  return so;
}

api::PlanKey key_for(index_t m, index_t n, int threads, int oversub) {
  return api::shared_plan_key(api::dtype_of<double>(), m, n, shared_opts(threads, oversub));
}

std::uint64_t total_schedule_builds() {
  return sched::shared_schedule_builds() + sched::dist_tree_builds();
}

std::size_t pool_slab_grows(runtime::ThreadPool& pool) {
  std::size_t total = 0;
  for (int s = 0; s < pool.concurrency(); ++s) total += pool.workspace(s).grow_count();
  return total;
}

// ---- PlanCache --------------------------------------------------------

TEST(PlanCache, HitMissEvictionOrderAndStats) {
  api::PlanCache cache(2);
  const auto ka = key_for(48, 40, 2, 1);
  const auto kb = key_for(56, 44, 2, 1);
  const auto kc = key_for(64, 48, 2, 1);

  const auto pa = cache.get_or_build(ka);  // miss
  const auto pb = cache.get_or_build(kb);  // miss
  EXPECT_EQ(cache.get_or_build(ka).get(), pa.get());  // hit, promotes A over B
  auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.size, 2u);
  EXPECT_EQ(s.capacity, 2u);

  cache.get_or_build(kc);  // miss; LRU victim must be B (A was just touched)
  s = cache.stats();
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.size, 2u);
  EXPECT_TRUE(cache.contains(ka));
  EXPECT_FALSE(cache.contains(kb));
  EXPECT_TRUE(cache.contains(kc));

  cache.get_or_build(kb);  // rebuilt: a fourth miss, evicting A (C is hotter)
  s = cache.stats();
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_FALSE(cache.contains(ka));
}

TEST(PlanCache, PlansAreImmutableSharedHandles) {
  api::PlanCache cache(1);
  const auto key = key_for(60, 52, 3, 2);
  const auto plan = cache.get_or_build(key);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->key(), key);
  EXPECT_EQ(static_cast<int>(plan->schedule().tasks.size()), 3 * 2);
  EXPECT_GT(plan->workspace_bound(), 0u);  // Strassen engine needs scratch
  // An evicted plan stays alive through the shared_ptr.
  cache.get_or_build(key_for(68, 52, 3, 2));  // capacity 1: evicts `key`
  EXPECT_FALSE(cache.contains(key));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(plan->key(), key);
  EXPECT_EQ(static_cast<int>(plan->schedule().tasks.size()), 3 * 2);
}

/// `threads` clients, released together, each request every key `reps`
/// times, so the first round's cold misses race on every key. Returns the
/// plan each thread got per key in its first round.
std::vector<std::vector<const api::AtaPlan*>> hammer(api::PlanCache& cache,
                                                     const std::vector<api::PlanKey>& keys,
                                                     int threads, int reps) {
  std::vector<std::vector<const api::AtaPlan*>> seen(
      static_cast<std::size_t>(threads), std::vector<const api::AtaPlan*>(keys.size()));
  std::atomic<int> ready{0};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    clients.emplace_back([&, i] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < threads) std::this_thread::yield();
      for (int rep = 0; rep < reps; ++rep) {
        for (std::size_t k = 0; k < keys.size(); ++k) {
          const auto plan = cache.get_or_build(keys[k]);
          if (rep == 0) seen[static_cast<std::size_t>(i)][k] = plan.get();
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  return seen;
}

TEST(PlanCache, ConcurrentGetOrBuildBuildsEachPlanExactlyOnce) {
  struct Input {
    std::size_t capacity;
    std::vector<api::PlanKey> keys;
    int threads;
    int reps;
  };
  std::vector<api::PlanKey> many;
  for (index_t m = 40; many.size() < 12; m += 8) many.push_back(key_for(m, m - 8, 2, 1));
  // One hot cold key; then 12 keys whose cold misses all race at once.
  const Input inputs[] = {{8, {key_for(96, 80, 4, 2)}, 8, 1}, {32, many, 8, 4}};
  for (const Input& in : inputs) {
    SCOPED_TRACE(::testing::Message() << in.keys.size() << " keys");
    api::PlanCache cache(in.capacity);
    const std::uint64_t builds_before = sched::shared_schedule_builds();
    const auto seen = hammer(cache, in.keys, in.threads, in.reps);

    EXPECT_EQ(sched::shared_schedule_builds() - builds_before, in.keys.size())
        << "concurrent cold requests for one key must build the plan exactly once";
    const auto s = cache.stats();
    EXPECT_EQ(s.misses, in.keys.size()) << "every key must build exactly once";
    EXPECT_EQ(s.hits + s.misses,
              static_cast<std::uint64_t>(in.threads) * in.reps * in.keys.size());
    EXPECT_EQ(s.size, in.keys.size());
    EXPECT_EQ(s.evictions, 0u) << "the working set fits the capacity";
    for (int i = 1; i < in.threads; ++i) {
      EXPECT_EQ(seen[static_cast<std::size_t>(i)], seen[0])
          << "concurrent requesters must share one built plan per key";
    }
  }
}

TEST(PlanCache, OvershootFromInFlightBuildsIsReclaimedOnNextMiss) {
  // 8 concurrent cold misses at capacity 2: entries still building are
  // never evicted, so the cache overshoots while they race. 4096-task plans
  // take milliseconds to build, so the overshoot nearly always outlives
  // the join. Once all are built, the next miss must evict back down to
  // exactly the capacity, keeping its own in-flight entry.
  api::PlanCache cache(2);
  std::vector<api::PlanKey> keys;
  for (index_t m = 8192; keys.size() < 8; m += 8) keys.push_back(key_for(m, 4096, 512, 8));
  std::atomic<int> ready{0};
  std::vector<std::thread> clients;
  for (const auto& key : keys) {
    clients.emplace_back([&, key] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < 8) std::this_thread::yield();
      EXPECT_NE(cache.get_or_build(key), nullptr);
    });
  }
  for (auto& t : clients) t.join();

  const auto last = key_for(40, 32, 2, 1);
  cache.get_or_build(last);
  const auto s = cache.stats();
  EXPECT_EQ(s.size, 2u) << "the overshoot must be reclaimed on the next miss";
  EXPECT_EQ(s.misses, 9u);
  EXPECT_EQ(s.evictions, 7u);
  EXPECT_TRUE(cache.contains(last));
}

// ---- Warm-path acceptance: zero builds, zero slab allocations ----------

TEST(ApiExecute, WarmSharedPathPerformsNoBuildsAndNoSlabAllocations) {
  runtime::ThreadPool pool(4);
  api::PlanCache cache(4);
  const index_t m = 120, n = 96;
  const auto a = random_integer<double>(m, n, 3, 71);
  auto c_ref = Matrix<double>::zeros(n, n);
  ata(1.0, a.const_view(), c_ref.view(), tiny_base());

  const auto plan = cache.get_or_build(key_for(m, n, 4, 2));
  auto c = Matrix<double>::zeros(n, n);
  api::execute(*plan, 1.0, a.const_view(), c.view(), &pool);  // cold: may allocate
  EXPECT_EQ(max_abs_diff_lower<double>(c.const_view(), c_ref.const_view()), 0.0);

  const std::uint64_t builds_warm = total_schedule_builds();
  const std::size_t grows_warm = pool_slab_grows(pool);
  for (int rep = 0; rep < 5; ++rep) {
    fill_view(c.view(), 0.0);
    api::execute(*plan, 1.0, a.const_view(), c.view(), &pool);
    EXPECT_EQ(max_abs_diff_lower<double>(c.const_view(), c_ref.const_view()), 0.0);
  }
  EXPECT_EQ(total_schedule_builds(), builds_warm)
      << "second-and-later execute() must not rebuild any schedule";
  EXPECT_EQ(pool_slab_grows(pool), grows_warm)
      << "second-and-later execute() must not allocate workspace slabs";
}

TEST(ApiExecute, WarmDistPathPerformsNoTreeBuilds) {
  const auto a = random_integer<double>(72, 60, 2, 17);
  auto c_ref = Matrix<double>::zeros(60, 60);
  ata(1.0, a.const_view(), c_ref.view(), tiny_base());

  dist::DistOptions opts;
  opts.procs = 5;
  opts.recurse = tiny_base();
  const auto r0 = dist::ata_dist(1.0, a, opts);  // cold: builds (or refetches) the tree
  EXPECT_EQ(max_abs_diff_lower<double>(r0.c.const_view(), c_ref.const_view()), 0.0);

  const std::uint64_t builds_warm = total_schedule_builds();
  for (int rep = 0; rep < 3; ++rep) {
    const auto r = dist::ata_dist(1.0, a, opts);
    EXPECT_EQ(max_abs_diff_lower<double>(r.c.const_view(), c_ref.const_view()), 0.0);
    EXPECT_GT(r.traffic.total_messages(), 0u);
  }
  EXPECT_EQ(total_schedule_builds(), builds_warm)
      << "repeated ata_dist on one shape must reuse the cached dist tree";
}

TEST(ApiExecute, MismatchedPlanUseThrows) {
  api::PlanCache cache(4);
  const auto plan = cache.get_or_build(key_for(40, 32, 2, 1));
  const auto a_wrong = random_integer<double>(48, 32, 2, 5);
  const auto a_float = random_integer<float>(40, 32, 2, 5);
  auto c = Matrix<double>::zeros(32, 32);
  auto c_float = Matrix<float>::zeros(32, 32);
  auto c_wrong = Matrix<double>::zeros(40, 40);
  const auto a_ok = random_integer<double>(40, 32, 2, 5);

  EXPECT_THROW(api::execute(*plan, 1.0, a_wrong.const_view(), c.view()),
               std::invalid_argument);
  EXPECT_THROW(api::execute(*plan, 1.0f, a_float.const_view(), c_float.view()),
               std::invalid_argument);
  EXPECT_THROW(api::execute(*plan, 1.0, a_ok.const_view(), c_wrong.view()),
               std::invalid_argument);
  EXPECT_THROW(api::execute_dist(*plan, 1.0, a_ok), std::invalid_argument)
      << "a shared plan must be rejected by the dist entry point";
}

// ---- Server ------------------------------------------------------------

TEST(Server, ServesCorrectResultsAndCachesPlans) {
  api::Server server(api::Server::Options{4, 8});
  const index_t m = 96, n = 72;
  const auto a = random_integer<double>(m, n, 3, 29);
  auto c_ref = Matrix<double>::zeros(n, n);
  ata(1.0, a.const_view(), c_ref.view(), tiny_base());

  auto c = Matrix<double>::zeros(n, n);
  server.submit(1.0, a.const_view(), c.view(), shared_opts(4, 2)).get();
  EXPECT_EQ(max_abs_diff_lower<double>(c.const_view(), c_ref.const_view()), 0.0);
  EXPECT_EQ(server.plan_stats().misses, 1u);

  for (int rep = 0; rep < 4; ++rep) {
    fill_view(c.view(), 0.0);
    server.submit(1.0, a.const_view(), c.view(), shared_opts(4, 2)).get();
    EXPECT_EQ(max_abs_diff_lower<double>(c.const_view(), c_ref.const_view()), 0.0);
  }
  const auto s = server.plan_stats();
  EXPECT_EQ(s.misses, 1u) << "one shape must plan once";
  EXPECT_EQ(s.hits, 4u);
}

TEST(Server, WarmServingPathIsSetupFree) {
  api::Server server(api::Server::Options{4, 8});
  const index_t m = 104, n = 88;
  const auto a = random_integer<double>(m, n, 2, 31);
  auto c = Matrix<double>::zeros(n, n);
  server.submit(1.0, a.const_view(), c.view(), shared_opts(4, 2)).get();  // cold

  const std::uint64_t builds_warm = total_schedule_builds();
  const std::size_t grows_warm = pool_slab_grows(server.executor());
  for (int rep = 0; rep < 6; ++rep) {
    fill_view(c.view(), 0.0);
    server.submit(1.0, a.const_view(), c.view(), shared_opts(4, 2)).get();
  }
  EXPECT_EQ(total_schedule_builds(), builds_warm);
  EXPECT_EQ(pool_slab_grows(server.executor()), grows_warm)
      << "warm requests must not allocate workspace slabs";
}

TEST(Server, ConcurrentSubmitFromManyClientsMatchesSerialBitwise) {
  // N client threads x M shapes, every request's result compared bitwise
  // against the serial recursion (integer inputs make every execution
  // order produce identical floats).
  api::Server server(api::Server::Options{4, 8});
  struct Shape {
    index_t m, n;
  };
  const Shape shapes[] = {{64, 64}, {96, 80}, {120, 88}};
  constexpr int kClients = 6;
  constexpr int kRepsPerClient = 4;

  std::vector<Matrix<double>> inputs;
  std::vector<Matrix<double>> refs;
  for (const auto& shape : shapes) {
    inputs.push_back(random_integer<double>(shape.m, shape.n, 3, 1234));
    auto c_ref = Matrix<double>::zeros(shape.n, shape.n);
    ata(1.0, inputs.back().const_view(), c_ref.view(), tiny_base());
    refs.push_back(std::move(c_ref));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int client = 0; client < kClients; ++client) {
    clients.emplace_back([&, client] {
      for (int rep = 0; rep < kRepsPerClient; ++rep) {
        const std::size_t si = static_cast<std::size_t>((client + rep) % 3);
        auto c = Matrix<double>::zeros(inputs[si].cols(), inputs[si].cols());
        auto fut = server.submit(1.0, inputs[si].const_view(), c.view(),
                                 shared_opts(3 + client % 2, 2));
        fut.get();
        if (max_abs_diff_lower<double>(c.const_view(), refs[si].const_view()) != 0.0) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "every concurrent request must match the serial result bitwise";
  const auto s = server.plan_stats();
  EXPECT_EQ(s.misses, 3u * 2u) << "3 shapes x 2 plan widths must each plan once";
  EXPECT_EQ(s.hits + s.misses, static_cast<std::uint64_t>(kClients * kRepsPerClient));
}

TEST(Server, ReadyFuturesOutliveTheServer) {
  // Request futures' shared states come from the server's recycler; a
  // client may keep a settled future past ~Server and still read it.
  const auto a = random_integer<double>(48, 40, 2, 37);
  auto c_ref = Matrix<double>::zeros(40, 40);
  ata(1.0, a.const_view(), c_ref.view(), tiny_base());
  auto c1 = Matrix<double>::zeros(40, 40);
  auto c2 = Matrix<double>::zeros(40, 40);
  std::future<void> single;
  std::vector<std::future<void>> batched;
  {
    api::Server server(api::Server::Options{3, 8});
    single = server.submit(1.0, a.const_view(), c1.view(), shared_opts(2, 1));
    const api::AtaRequest<double> req{1.0, a.const_view(), c2.view()};
    batched = server.submit_batch<double>(std::span<const api::AtaRequest<double>>(&req, 1),
                                          shared_opts(1, 1));
    single.wait();
    for (auto& f : batched) f.wait();
  }
  EXPECT_NO_THROW(single.get());
  ASSERT_EQ(batched.size(), 1u);
  EXPECT_NO_THROW(batched[0].get());
  EXPECT_EQ(max_abs_diff_lower<double>(c1.const_view(), c_ref.const_view()), 0.0);
  EXPECT_EQ(max_abs_diff_lower<double>(c2.const_view(), c_ref.const_view()), 0.0);
}

TEST(Server, RejectsInvalidOptionsAndShapesBeforeEnqueue) {
  api::Server server(api::Server::Options{2, 4});
  const auto a = random_integer<double>(32, 24, 2, 9);
  auto c = Matrix<double>::zeros(24, 24);
  auto c_bad = Matrix<double>::zeros(32, 32);
  EXPECT_THROW(server.submit(1.0, a.const_view(), c.view(), shared_opts(0, 1)),
               std::invalid_argument);
  EXPECT_THROW(server.submit(1.0, a.const_view(), c_bad.view(), shared_opts(2, 1)),
               std::invalid_argument);
  // The pool must still serve after rejected requests.
  server.submit(1.0, a.const_view(), c.view()).get();
}

// ---- SharedOptions validation (satellite) ------------------------------

TEST(SharedOptionsValidation, RejectsNonPositiveThreadsAndOversub) {
  const auto a = random_integer<double>(16, 16, 2, 1);
  auto c = Matrix<double>::zeros(16, 16);
  for (int threads : {0, -1, -8}) {
    SharedOptions so = shared_opts(1, 1);
    so.threads = threads;
    EXPECT_THROW(ata_shared(1.0, a.const_view(), c.view(), so), std::invalid_argument)
        << "threads=" << threads;
  }
  for (int oversub : {0, -2}) {
    SharedOptions so = shared_opts(2, 1);
    so.oversub = oversub;
    EXPECT_THROW(ata_shared(1.0, a.const_view(), c.view(), so), std::invalid_argument)
        << "oversub=" << oversub;
  }
}

TEST(SharedOptionsValidation, RejectsBadRecurseCutoffsEverywhere) {
  const auto a = random_integer<double>(16, 16, 2, 2);
  auto c = Matrix<double>::zeros(16, 16);

  SharedOptions neg_base = shared_opts(2, 1);
  neg_base.recurse.base_case_elements = -1;
  EXPECT_THROW(ata_shared(1.0, a.const_view(), c.view(), neg_base), std::invalid_argument);
  EXPECT_THROW(ata_shared_profile(1.0, a.const_view(), c.view(), neg_base),
               std::invalid_argument);

  SharedOptions zero_min = shared_opts(2, 1);
  zero_min.recurse.min_dim = 0;
  EXPECT_THROW(validate(zero_min), std::invalid_argument);

  // Parity: DistOptions rejects the same cut-offs.
  dist::DistOptions dopts;
  dopts.procs = 2;
  dopts.recurse.min_dim = -3;
  EXPECT_THROW(dist::ata_dist(1.0, a, dopts), std::invalid_argument);
}

// ---- Planner: the engine a request names is the engine it gets ---------

TEST(QueryPlanner, TallSkinnyStrassenRequestKeepsStrassenPlan) {
  // No shape rewrites the engine: a 16384 x 64 kStrassen request (m/n =
  // 256) is planned on the recursion, and its kBlas twin is a distinct plan.
  const index_t m = 16384, n = 64;
  SharedOptions strassen_opts = shared_opts(2, 1);
  const auto rec = api::shared_plan_key(api::dtype_of<double>(), m, n, strassen_opts);
  EXPECT_EQ(rec.engine, LeafEngine::kStrassen);
  EXPECT_EQ(rec.base_case_elements, 256);

  SharedOptions blas_opts = strassen_opts;
  blas_opts.engine = LeafEngine::kBlas;
  const auto blas = api::shared_plan_key(api::dtype_of<double>(), m, n, blas_opts);
  EXPECT_EQ(blas.engine, LeafEngine::kBlas);
  EXPECT_NE(rec, blas) << "the engine must separate cached plans";
}

TEST(QueryPlanner, DefaultKeyIsClassicalWithoutCutoff) {
  // Default options serve the classical engine, and classical keys carry
  // no cut-off, so they never resolve one through the tuner.
  const auto def = api::shared_plan_key(api::dtype_of<double>(), 512, 384, SharedOptions{});
  EXPECT_EQ(def.engine, LeafEngine::kBlas);
  EXPECT_EQ(def.base_case_elements, 0);

  // Cut-offs a kBlas request names do not split its plan.
  SharedOptions with_cutoffs;
  with_cutoffs.recurse = tiny_base();
  EXPECT_EQ(api::shared_plan_key(api::dtype_of<double>(), 512, 384, with_cutoffs), def);

  dist::DistOptions dopts;
  dopts.procs = 2;
  dopts.engine = LeafEngine::kBlas;
  dopts.recurse = tiny_base();
  EXPECT_EQ(api::dist_plan_key(api::dtype_of<float>(), 512, 384, dopts).base_case_elements, 0);
  // AtA-D keeps the paper's leaves by default.
  EXPECT_EQ(dist::DistOptions{}.engine, LeafEngine::kStrassen);
}

TEST(QueryPlanner, TallSkinnyBlasPlanExecutesBitwiseEqualToRecursive) {
  // Both engines on one tall-skinny input must agree bitwise on integer
  // data — the engine changes the association of sums, not the math.
  const index_t m = 1024, n = 48;
  SharedOptions blas_opts = shared_opts(2, 1);
  blas_opts.engine = LeafEngine::kBlas;
  const SharedOptions rec_opts = shared_opts(2, 1);
  const auto a = random_integer<double>(m, n, 2, 77);
  auto c_blas = Matrix<double>::zeros(n, n);
  ata_shared(1.0, a.const_view(), c_blas.view(), blas_opts);
  auto c_rec = Matrix<double>::zeros(n, n);
  ata_shared(1.0, a.const_view(), c_rec.view(), rec_opts);
  EXPECT_EQ(max_abs_diff_lower<double>(c_blas.const_view(), c_rec.const_view()), 0.0);

  const auto a_f32 = random_integer<float>(m, n, 2, 78);
  auto c_blas_f32 = Matrix<float>::zeros(n, n);
  ata_shared(1.0f, a_f32.const_view(), c_blas_f32.view(), blas_opts);
  auto c_rec_f32 = Matrix<float>::zeros(n, n);
  ata_shared(1.0f, a_f32.const_view(), c_rec_f32.view(), rec_opts);
  EXPECT_EQ(max_abs_diff_lower<float>(c_blas_f32.const_view(), c_rec_f32.const_view()), 0.0);
}

TEST(SharedOptionsValidation, ValidOptionsStillCompute) {
  const auto a = random_integer<double>(40, 32, 2, 3);
  auto c_ref = Matrix<double>::zeros(32, 32);
  ata(1.0, a.const_view(), c_ref.view(), tiny_base());
  auto c = Matrix<double>::zeros(32, 32);
  ata_shared(1.0, a.const_view(), c.view(), shared_opts(3, 2));
  EXPECT_EQ(max_abs_diff_lower<double>(c.const_view(), c_ref.const_view()), 0.0);
}

// ---- Non-finite inputs on the default engine ---------------------------

/// Lower triangles equal bit for bit, any NaN matching any NaN.
bool lower_bitwise_equal(const Matrix<double>& x, const Matrix<double>& y) {
  for (index_t i = 0; i < x.rows(); ++i) {
    for (index_t j = 0; j <= i; ++j) {
      const double u = x(i, j), v = y(i, j);
      if (std::isnan(u) && std::isnan(v)) continue;
      if (std::memcmp(&u, &v, sizeof(double)) != 0) return false;
    }
  }
  return true;
}

TEST(ServingDefaults, InfInputMatchesClassicalSyrk) {
  // One +Inf in a 1024 x 1024 A: classical syrk gives Inf along its row
  // and column of lower(C) and no NaN. Default options must serve exactly
  // that. (The Strassen recursion at the probe cut-off of a 2 MiB L2 forms
  // block differences here, and Inf - Inf = NaN.)
  const index_t n = 1024;
  auto a = random_uniform<double>(n, n, 91);
  a(100, 37) = std::numeric_limits<double>::infinity();
  auto c_ref = Matrix<double>::zeros(n, n);
  blas::syrk_ln(1.0, a.const_view(), c_ref.view());
  index_t infs = 0, nans = 0;
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      infs += std::isinf(c_ref(i, j)) ? 1 : 0;
      nans += std::isnan(c_ref(i, j)) ? 1 : 0;
    }
  }
  ASSERT_EQ(infs, n);
  ASSERT_EQ(nans, 0);

  api::Server server(api::Server::Options{4, 8});
  auto c_batch = Matrix<double>::zeros(n, n);
  const std::vector<api::AtaRequest<double>> one = {{1.0, a.const_view(), c_batch.view()}};
  for (auto& f : server.submit_batch<double>(one)) f.get();
  EXPECT_TRUE(lower_bitwise_equal(c_batch, c_ref)) << "Server::submit_batch";

  SharedOptions serial;
  serial.threads = 1;
  auto c_shared = Matrix<double>::zeros(n, n);
  ata_shared(1.0, a.const_view(), c_shared.view(), serial);
  EXPECT_TRUE(lower_bitwise_equal(c_shared, c_ref)) << "ata_shared";
}

}  // namespace
}  // namespace atalib
