// Tests for batched small-Gram serving (api/batch.hpp +
// Server::submit_batch): fused-batch results bitwise-identical to the
// per-request serial loop for both dtypes, one plan-cache lookup per
// distinct shape per batch, the warm batched path performing zero schedule
// builds / zero workspace slab allocations / zero thread-local pack
// allocations, all-or-nothing validation, and per-request error isolation
// plumbing (empty batches, rejected batches leave no futures behind), and
// recycled batch states and plans carrying nothing over between batches.

#include <gtest/gtest.h>

#include <future>
#include <stdexcept>
#include <vector>

#include "api/batch.hpp"
#include "api/execute.hpp"
#include "api/server.hpp"
#include "ata/ata.hpp"
#include "blas/kernels/pack.hpp"
#include "blas/syrk.hpp"
#include "matrix/compare.hpp"
#include "matrix/generate.hpp"
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

// Batched-serving plan shape on the paper's Strassen leaves with a tiny
// explicit base case, so small requests still recurse.
SharedOptions batch_opts(int threads, int oversub) {
  SharedOptions so;
  so.threads = threads;
  so.oversub = oversub;
  so.recurse = tiny_base();
  so.engine = LeafEngine::kStrassen;
  return so;
}

std::uint64_t total_schedule_builds() {
  return sched::shared_schedule_builds() + sched::dist_tree_builds();
}

std::size_t pool_slab_grows(runtime::ThreadPool& pool) {
  std::size_t total = 0;
  for (int s = 0; s < pool.concurrency(); ++s) total += pool.workspace(s).grow_count();
  return total;
}

struct Shape {
  index_t m, n;
};

template <typename T>
void expect_batch_matches_serial(const char* tag) {
  // A mixed-shape batch with repeats, every request checked bitwise
  // against the serial recursion (integer inputs make every execution
  // order produce identical floats).
  api::Server server(api::Server::Options{4, 8});
  const Shape shapes[] = {{64, 64}, {96, 80}, {120, 88}, {96, 80}, {64, 64}, {96, 80}};
  constexpr int kReqs = static_cast<int>(sizeof(shapes) / sizeof(shapes[0]));

  std::vector<Matrix<T>> inputs, outputs, refs;
  std::vector<api::AtaRequest<T>> requests;
  for (int i = 0; i < kReqs; ++i) {
    const auto [m, n] = shapes[i];
    inputs.push_back(random_integer<T>(m, n, 3, 100 + i));
    outputs.push_back(Matrix<T>::zeros(n, n));
    auto c_ref = Matrix<T>::zeros(n, n);
    ata(T(2), inputs.back().const_view(), c_ref.view(), tiny_base());
    refs.push_back(std::move(c_ref));
    requests.push_back({T(2), inputs.back().const_view(), outputs.back().view()});
  }

  auto futures = server.submit_batch<T>(requests, batch_opts(2, 2));
  ASSERT_EQ(futures.size(), static_cast<std::size_t>(kReqs));
  for (auto& f : futures) f.get();
  for (int i = 0; i < kReqs; ++i) {
    EXPECT_EQ(max_abs_diff_lower<T>(outputs[static_cast<std::size_t>(i)].const_view(),
                                    refs[static_cast<std::size_t>(i)].const_view()),
              0.0)
        << tag << " request " << i;
  }
}

TEST(SubmitBatch, FusedBatchMatchesSerialBitwiseF64) {
  expect_batch_matches_serial<double>("f64");
}

TEST(SubmitBatch, FusedBatchMatchesSerialBitwiseF32) {
  expect_batch_matches_serial<float>("f32");
}

TEST(SubmitBatch, OnePlanLookupPerDistinctShapePerBatch) {
  api::Server server(api::Server::Options{2, 8});
  const Shape shapes[] = {{64, 64}, {96, 80}, {64, 64}, {120, 88}, {96, 80}, {64, 64}};
  constexpr int kReqs = static_cast<int>(sizeof(shapes) / sizeof(shapes[0]));

  std::vector<Matrix<double>> inputs, outputs;
  std::vector<api::AtaRequest<double>> requests;
  for (int i = 0; i < kReqs; ++i) {
    const auto [m, n] = shapes[i];
    inputs.push_back(random_integer<double>(m, n, 2, 7 + i));
    outputs.push_back(Matrix<double>::zeros(n, n));
    requests.push_back({1.0, inputs.back().const_view(), outputs.back().view()});
  }

  for (auto& f : server.submit_batch<double>(requests, batch_opts(1, 1))) f.get();
  auto s = server.plan_stats();
  EXPECT_EQ(s.misses, 3u) << "3 distinct shapes must cost exactly 3 cache lookups";
  EXPECT_EQ(s.hits, 0u) << "repeats within one batch must not re-enter the cache";

  for (auto& f : server.submit_batch<double>(requests, batch_opts(1, 1))) f.get();
  s = server.plan_stats();
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.hits, 3u) << "a repeat batch hits once per distinct shape, not per request";
}

TEST(SubmitBatch, DtypeIsPartOfThePlanKey) {
  // The same (m, n) served in f32 and f64 must plan twice: the key's dtype
  // separates them (satellite c).
  api::Server server(api::Server::Options{2, 8});
  const auto a64 = random_integer<double>(64, 48, 2, 11);
  const auto a32 = random_integer<float>(64, 48, 2, 11);
  auto c64 = Matrix<double>::zeros(48, 48);
  auto c32 = Matrix<float>::zeros(48, 48);

  api::AtaRequest<double> r64{1.0, a64.const_view(), c64.view()};
  api::AtaRequest<float> r32{1.0f, a32.const_view(), c32.view()};
  for (auto& f : server.submit_batch<double>({&r64, 1}, batch_opts(1, 1))) f.get();
  for (auto& f : server.submit_batch<float>({&r32, 1}, batch_opts(1, 1))) f.get();
  EXPECT_EQ(server.plan_stats().misses, 2u)
      << "f32 and f64 on one shape must be distinct plans";
  EXPECT_NE(api::shared_plan_key(api::Dtype::kF32, 64, 48, batch_opts(1, 1)),
            api::shared_plan_key(api::Dtype::kF64, 64, 48, batch_opts(1, 1)));
}

TEST(SubmitBatch, WarmBatchedPathIsSetupAndAllocationFree) {
  // The acceptance invariant of DESIGN.md §8: once a batch's shapes are
  // planned and the pool is warm, repeat batches of any size perform zero
  // schedule builds, zero workspace slab allocations, and zero
  // thread-local pack-buffer allocations — for f64 and f32.
  api::Server server(api::Server::Options{4, 8});
  constexpr int kReqs = 24;

  std::vector<Matrix<double>> in64;
  std::vector<Matrix<double>> out64;
  std::vector<Matrix<float>> in32;
  std::vector<Matrix<float>> out32;
  std::vector<api::AtaRequest<double>> req64;
  std::vector<api::AtaRequest<float>> req32;
  for (int i = 0; i < kReqs; ++i) {
    const index_t n = (i % 2 == 0) ? 64 : 88;
    const index_t m = n + 32;
    in64.push_back(random_integer<double>(m, n, 2, 200 + i));
    out64.push_back(Matrix<double>::zeros(n, n));
    req64.push_back({1.0, in64.back().const_view(), out64.back().view()});
    in32.push_back(random_integer<float>(m, n, 2, 300 + i));
    out32.push_back(Matrix<float>::zeros(n, n));
    req32.push_back({1.0f, in32.back().const_view(), out32.back().view()});
  }

  // Cold pass: plans build, the pool warms (both dtype slabs).
  for (auto& f : server.submit_batch<double>(req64, batch_opts(1, 1))) f.get();
  for (auto& f : server.submit_batch<float>(req32, batch_opts(1, 1))) f.get();

  const std::uint64_t builds = total_schedule_builds();
  const std::size_t grows = pool_slab_grows(server.executor());
  const std::uint64_t packs = blas::kernels::thread_pack_allocs().load();
  const auto warm_stats = server.plan_stats();
  for (int rep = 0; rep < 4; ++rep) {
    for (auto& f : server.submit_batch<double>(req64, batch_opts(1, 1))) f.get();
    for (auto& f : server.submit_batch<float>(req32, batch_opts(1, 1))) f.get();
  }
  EXPECT_EQ(total_schedule_builds(), builds)
      << "warm batches must not rebuild any schedule";
  EXPECT_EQ(pool_slab_grows(server.executor()), grows)
      << "warm batches must not allocate workspace slabs";
  EXPECT_EQ(blas::kernels::thread_pack_allocs().load(), packs)
      << "warm batch tasks must pack from the shared per-worker arenas";
  EXPECT_EQ(server.plan_stats().misses, warm_stats.misses)
      << "warm batches must not plan";
}

TEST(SubmitBatch, InvalidRequestRejectsWholeBatchBeforeEnqueue) {
  api::Server server(api::Server::Options{2, 8});
  const auto a0 = random_integer<double>(64, 48, 2, 1);
  const auto a1 = random_integer<double>(64, 48, 2, 2);
  auto c0 = Matrix<double>::zeros(48, 48);
  auto c_bad = Matrix<double>::zeros(64, 64);  // wrong: must be 48 x 48

  std::vector<api::AtaRequest<double>> requests = {
      {1.0, a0.const_view(), c0.view()},
      {1.0, a1.const_view(), c_bad.view()},
  };
  EXPECT_THROW(server.submit_batch<double>(requests, batch_opts(1, 1)),
               std::invalid_argument);
  // All-or-nothing: the good request must not have executed either.
  EXPECT_EQ(max_abs_diff_lower<double>(c0.const_view(),
                                       Matrix<double>::zeros(48, 48).const_view()),
            0.0);

  // Bad options are rejected before any request is examined.
  EXPECT_THROW(server.submit_batch<double>(requests, batch_opts(0, 1)),
               std::invalid_argument);

  // The server still serves after rejected batches.
  std::vector<api::AtaRequest<double>> good = {{1.0, a0.const_view(), c0.view()}};
  for (auto& f : server.submit_batch<double>(good, batch_opts(1, 1))) f.get();
}

TEST(SubmitBatch, EmptyBatchReturnsNoFutures) {
  api::Server server(api::Server::Options{2, 4});
  std::vector<api::AtaRequest<double>> none;
  EXPECT_TRUE(server.submit_batch<double>(none).empty());
  EXPECT_EQ(server.plan_stats().hits + server.plan_stats().misses, 0u);
}

TEST(SubmitBatch, DefaultOverloadUsesSerialPerRequestPlans) {
  // The default batched plan shape is width 1 / oversub 1: one task per
  // request, so a 5-request batch runs exactly 5 tasks and the plan key it
  // caches under is the serial one.
  api::Server server(api::Server::Options{4, 8});
  const auto a = random_integer<double>(96, 80, 2, 51);
  auto c_ref = Matrix<double>::zeros(80, 80);
  ata(1.0, a.const_view(), c_ref.view());

  std::vector<Matrix<double>> outs;
  std::vector<api::AtaRequest<double>> requests;
  for (int i = 0; i < 5; ++i) {
    outs.push_back(Matrix<double>::zeros(80, 80));
    requests.push_back({1.0, a.const_view(), outs.back().view()});
  }
  for (auto& f : server.submit_batch<double>(requests)) f.get();
  for (const auto& out : outs) {
    EXPECT_EQ(max_abs_diff_lower<double>(out.const_view(), c_ref.const_view()), 0.0);
  }
  SharedOptions serial;
  serial.threads = 1;
  serial.oversub = 1;
  EXPECT_TRUE(server.plans().contains(
      api::shared_plan_key(api::dtype_of<double>(), 96, 80, serial)));
}

TEST(SubmitBatch, TallF32BatchMatchesSyrkBitwise) {
  // A batch of 2048x256 f32 Grams on default options runs the kBlas
  // engine, one serial task per request, so each result must be
  // blas::syrk_ln's bitwise — on real-valued inputs, where any change in
  // accumulation order would show.
  const index_t m = 2048, n = 256;
  const SharedOptions so;
  ASSERT_EQ(api::shared_plan_key(api::dtype_of<float>(), m, n, so).engine, LeafEngine::kBlas);

  api::Server server(api::Server::Options{4, 8});
  constexpr int kReqs = 4;
  std::vector<Matrix<float>> inputs, outputs;
  std::vector<api::AtaRequest<float>> requests;
  for (int i = 0; i < kReqs; ++i) {
    inputs.push_back(random_uniform<float>(m, n, 500 + i));
    outputs.push_back(Matrix<float>::zeros(n, n));
  }
  for (int i = 0; i < kReqs; ++i) {
    requests.push_back({1.0f, inputs[i].const_view(), outputs[i].view()});
  }
  for (auto& f : server.submit_batch<float>(requests, so)) f.get();
  for (int i = 0; i < kReqs; ++i) {
    auto c_ref = Matrix<float>::zeros(n, n);
    blas::syrk_ln(1.0f, inputs[i].const_view(), c_ref.view());
    EXPECT_EQ(max_abs_diff_lower<float>(outputs[i].const_view(), c_ref.const_view()), 0.0f)
        << "request " << i;
  }
}

/// Serve `shapes` as one batch (request i with priority priorities[i % 4])
/// and check every request bitwise against the serial recursion.
void expect_served_exactly(api::Server& server, const std::vector<Shape>& shapes,
                           const int (&priorities)[4], std::uint64_t seed) {
  std::vector<Matrix<double>> inputs, outputs;
  std::vector<api::AtaRequest<double>> requests;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    inputs.push_back(random_integer<double>(shapes[i].m, shapes[i].n, 3, seed + i));
    outputs.push_back(Matrix<double>::zeros(shapes[i].n, shapes[i].n));
  }
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    api::AtaRequest<double> req{1.0, inputs[i].const_view(), outputs[i].view()};
    req.priority = priorities[i % 4];
    requests.push_back(req);
  }
  auto futures = server.submit_batch<double>(requests, batch_opts(1, 1));
  ASSERT_EQ(futures.size(), shapes.size());
  for (auto& f : futures) f.get();
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    auto c_ref = Matrix<double>::zeros(shapes[i].n, shapes[i].n);
    ata(1.0, inputs[i].const_view(), c_ref.view(), tiny_base());
    EXPECT_EQ(max_abs_diff_lower<double>(outputs[i].const_view(), c_ref.const_view()), 0.0)
        << "seed " << seed << " request " << i;
  }
}

TEST(SubmitBatch, RecycledStatesServeShrinkingAndGrowingBatchesExactly) {
  // Batch states are recycled with their vectors' capacity: a small batch
  // served from a state that last held a larger one (and the reverse) must
  // see only its own requests, shapes and plans.
  api::Server server(api::Server::Options{4, 8});
  const Shape pool_of_shapes[] = {{64, 48}, {40, 72}, {96, 80}, {33, 17}, {128, 16}};
  const int equal[4] = {0, 0, 0, 0};
  std::uint64_t seed = 700;
  for (std::size_t size : {6u, 1u, 4u, 1u, 9u, 2u, 1u}) {
    std::vector<Shape> shapes;
    for (std::size_t i = 0; i < size; ++i) shapes.push_back(pool_of_shapes[(seed + i) % 5]);
    expect_served_exactly(server, shapes, equal, seed);
    seed += 10;
  }
}

TEST(SubmitBatch, MixedPriorityBatchSettlesEveryRequestExactly) {
  // Mixed priorities take the ordered path (higher-priority requests'
  // tasks first); an equal-priority batch on the recycled state after it
  // must not inherit that order.
  api::Server server(api::Server::Options{4, 8});
  const std::vector<Shape> shapes = {{64, 48}, {96, 80}, {40, 72}, {64, 48}, {33, 17}};
  const int mixed[4] = {0, 3, 1, 3};
  const int equal[4] = {2, 2, 2, 2};
  expect_served_exactly(server, shapes, mixed, 800);
  expect_served_exactly(server, {shapes.begin(), shapes.begin() + 3}, equal, 810);
  expect_served_exactly(server, shapes, mixed, 820);
}

TEST(BuildBatchPlan, FlattensTasksAndSharesPlansAcrossRequests) {
  api::PlanCache cache(8);
  const auto a_small = random_integer<double>(64, 48, 2, 61);
  const auto a_big = random_integer<double>(96, 80, 2, 62);
  auto c_small0 = Matrix<double>::zeros(48, 48);
  auto c_small1 = Matrix<double>::zeros(48, 48);
  auto c_big = Matrix<double>::zeros(80, 80);
  std::vector<api::AtaRequest<double>> requests = {
      {1.0, a_small.const_view(), c_small0.view()},
      {1.0, a_big.const_view(), c_big.view()},
      {1.0, a_small.const_view(), c_small1.view()},
  };
  const auto opts = batch_opts(2, 2);
  api::BatchPlan batch;
  api::build_batch_plan<double>(cache, requests, opts, batch);

  ASSERT_EQ(batch.plans.size(), 2u);
  ASSERT_EQ(batch.plan_of_request.size(), 3u);
  EXPECT_EQ(batch.plan_of_request[0], 0);
  EXPECT_EQ(batch.plan_of_request[1], 1);
  EXPECT_EQ(batch.plan_of_request[2], 0) << "repeat shapes must share one plan";
  ASSERT_EQ(batch.task_offset.size(), 4u);
  EXPECT_EQ(batch.task_offset[0], 0);
  const int per_plan = 2 * 2;  // threads x oversub tasks per request
  EXPECT_EQ(batch.total_tasks(), 3 * per_plan);
  EXPECT_GE(batch.workspace_bound, batch.plans[0]->workspace_bound());
  EXPECT_GE(batch.workspace_bound, batch.plans[1]->workspace_bound());
}

TEST(BuildBatchPlan, RefillingAPlanDropsThePreviousBatch) {
  // build_batch_plan fills a caller-owned plan that may hold an earlier,
  // larger batch: nothing of that batch may survive the refill.
  api::PlanCache cache(8);
  const auto a_small = random_integer<double>(64, 48, 2, 63);
  const auto a_big = random_integer<double>(96, 80, 2, 64);
  auto c_small0 = Matrix<double>::zeros(48, 48);
  auto c_small1 = Matrix<double>::zeros(48, 48);
  auto c_big = Matrix<double>::zeros(80, 80);
  const std::vector<api::AtaRequest<double>> three = {
      {1.0, a_small.const_view(), c_small0.view()},
      {1.0, a_big.const_view(), c_big.view()},
      {1.0, a_small.const_view(), c_small1.view()},
  };
  const std::vector<api::AtaRequest<double>> one = {{1.0, a_big.const_view(), c_big.view()}};
  const auto opts = batch_opts(2, 2);
  const int per_plan = 2 * 2;

  api::BatchPlan batch;
  api::build_batch_plan<double>(cache, three, opts, batch);
  ASSERT_EQ(batch.plans.size(), 2u);
  api::build_batch_plan<double>(cache, one, opts, batch);
  ASSERT_EQ(batch.plans.size(), 1u);
  ASSERT_EQ(batch.plan_of_request.size(), 1u);
  EXPECT_EQ(batch.plan_of_request[0], 0);
  ASSERT_EQ(batch.task_offset.size(), 2u);
  EXPECT_EQ(batch.task_offset[0], 0);
  EXPECT_EQ(batch.total_tasks(), per_plan);
  EXPECT_EQ(batch.workspace_bound, batch.plans[0]->workspace_bound())
      << "the bound must be this batch's, not the larger earlier one's";

  api::build_batch_plan<double>(cache, three, opts, batch);
  ASSERT_EQ(batch.plans.size(), 2u);
  EXPECT_EQ(batch.plan_of_request[2], 0);
  EXPECT_EQ(batch.total_tasks(), 3 * per_plan);
}

}  // namespace
}  // namespace atalib
