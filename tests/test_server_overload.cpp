// Tests for the overload-hardened serving path (DESIGN.md §10): bounded
// admission (block/reject/shed-oldest), deadlines and priorities, the
// Server destructor contract under load, the ATALIB_FAULTS parser, and the
// lock-free latency histograms behind Server::stats().
//
// The fault-injection hooks compile to no-ops unless the build sets
// -DATALIB_FAULT_INJECTION=ON; tests that need an unhealthy server set
// ATALIB_FAULTS around Server construction themselves (from_env() is
// re-read per server), so the fault CI leg runs this same file with the
// extra scenarios active and no other test sees the variable.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/errors.hpp"
#include "api/server.hpp"
#include "ata/ata.hpp"
#include "common/fault.hpp"
#include "matrix/compare.hpp"
#include "matrix/generate.hpp"
#include "metrics/latency.hpp"
#include "parallel/ata_shared.hpp"
#include "runtime/thread_pool.hpp"
#include "sched/dist_tree.hpp"
#include "sched/shared_schedule.hpp"

namespace atalib {
namespace {

using Clock = std::chrono::steady_clock;

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

std::uint64_t total_schedule_builds() {
  return sched::shared_schedule_builds() + sched::dist_tree_builds();
}

std::size_t pool_slab_grows(runtime::ThreadPool& pool) {
  std::size_t total = 0;
  for (int s = 0; s < pool.concurrency(); ++s) total += pool.workspace(s).grow_count();
  return total;
}

/// Occupies the pool's single worker until release() is called; started()
/// reports that the worker actually picked the task up. The pools under
/// test have 2 slots = 1 worker, so one blocker freezes the whole queue.
struct WorkerBlocker {
  std::atomic<bool> running{false};
  std::atomic<bool> go{false};
  std::future<void> done;

  void install(runtime::ThreadPool& pool) {
    done = pool.submit(1, [this](int, runtime::TaskContext&) {
      running.store(true, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    });
    while (!running.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  void release() { go.store(true, std::memory_order_release); }
};

/// Polls stats() until every admitted batch retired (batch retirement is
/// the last task-side touch and may lag the future settle by a moment).
void wait_drained(const api::Server& server) {
  const auto give_up = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < give_up) {
    const auto s = server.stats();
    if (s.inflight_requests == 0 && s.queued_batches == 0) return;
    std::this_thread::yield();
  }
  FAIL() << "server never drained";
}

// ---- ThreadPool priority classes --------------------------------------

TEST(PoolPriority, HigherClassDrainsFirstFifoWithinClass) {
  // One worker, so every queued task lands in one slot queue and the pop
  // order IS the global execution order: priority classes must drain
  // high-to-low, FIFO within a class. A blocker holds the worker while
  // the low-priority batch is enqueued BEFORE the high one — the inversion
  // a plain FIFO queue would commit.
  runtime::ThreadPool pool(2);
  WorkerBlocker blocker;
  blocker.install(pool);

  constexpr int kPerBatch = 3;
  std::atomic<int> seq{0};
  std::array<int, kPerBatch> low_at{};   // execution position of low task t
  std::array<int, kPerBatch> high_at{};

  auto low = pool.submit(
      kPerBatch,
      [&](int t, runtime::TaskContext&) {
        low_at[static_cast<std::size_t>(t)] = seq.fetch_add(1, std::memory_order_relaxed);
      },
      /*priority=*/0);
  auto high = pool.submit(
      kPerBatch,
      [&](int t, runtime::TaskContext&) {
        high_at[static_cast<std::size_t>(t)] = seq.fetch_add(1, std::memory_order_relaxed);
      },
      /*priority=*/5);

  EXPECT_EQ(pool.queue_depth(), 2u * kPerBatch) << "all six tasks queued behind the blocker";
  blocker.release();
  blocker.done.get();
  high.get();
  low.get();

  EXPECT_EQ(pool.queue_depth(), 0u);
  for (int t = 0; t < kPerBatch; ++t) {
    // Every high-priority task ran before every low-priority task, even
    // though the low batch was enqueued first.
    for (int u = 0; u < kPerBatch; ++u) {
      EXPECT_LT(high_at[static_cast<std::size_t>(t)], low_at[static_cast<std::size_t>(u)]);
    }
  }
  // FIFO within a class: the single worker pops the hot end in order.
  for (int t = 1; t < kPerBatch; ++t) {
    EXPECT_LT(high_at[static_cast<std::size_t>(t - 1)], high_at[static_cast<std::size_t>(t)]);
    EXPECT_LT(low_at[static_cast<std::size_t>(t - 1)], low_at[static_cast<std::size_t>(t)]);
  }
}

// ---- ATALIB_FAULTS parser (always compiled) ---------------------------

TEST(Fault, ParserGrammar) {
  EXPECT_EQ(fault::Plan::parse(""), nullptr);

  const auto plan = fault::Plan::parse("slow_task:100:2,throw_leaf:3,queue_pressure:7");
  ASSERT_NE(plan, nullptr);
  const fault::Site* slow = plan->find("slow_task");
  ASSERT_NE(slow, nullptr);
  EXPECT_EQ(slow->n1, 100u);
  EXPECT_EQ(slow->n2, 2u);
  const fault::Site* leaf = plan->find("throw_leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->n1, 3u);
  EXPECT_EQ(leaf->n2, 0u);
  EXPECT_EQ(plan->queue_pressure(), 7u);
  EXPECT_FALSE(plan->has("no_such_site"));

  EXPECT_THROW(fault::Plan::parse(":5"), std::invalid_argument);
  EXPECT_THROW(fault::Plan::parse("site:abc"), std::invalid_argument);
  EXPECT_THROW(fault::Plan::parse("site:1:2:3"), std::invalid_argument);
  EXPECT_THROW(fault::Plan::parse("ok:1,,also"), std::invalid_argument);
}

TEST(Fault, FireCountsOccurrencesDeterministically) {
  const auto plan = fault::Plan::parse("site:0");
  ASSERT_NE(plan, nullptr);
  // every=3: the 3rd, 6th, ... occurrence fires.
  std::vector<bool> fired;
  for (int k = 0; k < 7; ++k) fired.push_back(plan->fire("site", 3));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true, false}));
  EXPECT_FALSE(plan->fire("absent", 1)) << "an unlisted site never fires";
  // every=0 behaves as every=1 (fires on each occurrence).
  const auto each = fault::Plan::parse("s");
  for (int k = 0; k < 3; ++k) EXPECT_TRUE(each->fire("s", 0));
}

TEST(Fault, FromEnvGatedByBuildFlag) {
  setenv("ATALIB_FAULTS", "slow_task:1", 1);
  const auto plan = fault::Plan::from_env();
  unsetenv("ATALIB_FAULTS");
  if constexpr (fault::kEnabled) {
    ASSERT_NE(plan, nullptr);
    EXPECT_TRUE(plan->has("slow_task"));
  } else {
    EXPECT_EQ(plan, nullptr) << "a release build must ignore ATALIB_FAULTS";
  }
  EXPECT_EQ(fault::Plan::from_env(), nullptr);  // variable unset again
}

// ---- Latency histogram ------------------------------------------------

TEST(Latency, BucketEdgesRoundTripAndStayMonotone) {
  using H = metrics::LatencyHistogram;
  std::uint64_t prev_edge = 0;
  for (std::size_t b = 0; b < H::kBuckets; ++b) {
    const std::uint64_t edge = H::bucket_upper_edge(b);
    EXPECT_EQ(H::bucket_of(edge), b) << "edge of bucket " << b;
    if (b > 0) {
      EXPECT_GT(edge, prev_edge);
      // The first value past the previous edge belongs to this bucket.
      EXPECT_EQ(H::bucket_of(prev_edge + 1), b);
    }
    prev_edge = edge;
  }
  EXPECT_EQ(H::bucket_of(0), 0u);
  EXPECT_EQ(H::bucket_of(~std::uint64_t{0}), H::kBuckets - 1) << "overflow clamps to last";
}

TEST(Latency, QuantilesCountAndSum) {
  metrics::LatencyHistogram h;
  EXPECT_EQ(h.quantile_ns(0.5), 0u) << "empty histogram reports 0";
  for (int i = 0; i < 100; ++i) h.record(1000);
  h.record(1000000);
  EXPECT_EQ(h.count(), 101u);
  EXPECT_EQ(h.sum_ns(), 100u * 1000 + 1000000);
  // Quantile error is bounded by the bucket width: 1/8 octave = 12.5%.
  EXPECT_GE(h.quantile_ns(0.5), 1000u);
  EXPECT_LE(h.quantile_ns(0.5), 1125u);
  EXPECT_GE(h.quantile_ns(0.999), 1000000u);
  EXPECT_LE(h.quantile_ns(0.999), 1125000u);
  const auto s = metrics::summarize(h);
  EXPECT_EQ(s.count, 101u);
  EXPECT_EQ(s.p50_ns, h.quantile_ns(0.5));
  EXPECT_EQ(s.p999_ns, h.quantile_ns(0.999));
  EXPECT_NEAR(static_cast<double>(s.mean_ns),
              static_cast<double>(h.sum_ns()) / 101.0, 1.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum_ns(), 0u);
}

// ---- Admission gate edge cases ----------------------------------------

TEST(ServerOverload, ZeroCapacityGateRefusesEveryPolicy) {
  // max_queued_batches = 0 (and max_inflight_requests = 0) are genuine
  // zero-capacity gates: no submission can EVER fit, so even kBlock must
  // throw OverloadError instead of blocking forever — before any promise
  // or plan exists.
  const api::AdmissionPolicy policies[] = {api::AdmissionPolicy::kBlock,
                                           api::AdmissionPolicy::kReject,
                                           api::AdmissionPolicy::kShedOldest};
  const auto a = random_integer<double>(48, 32, 2, 11);
  for (const auto policy : policies) {
    api::Server::Options opts;
    opts.threads = 2;
    opts.max_queued_batches = 0;
    opts.admission = policy;
    api::Server server(opts);
    auto c = Matrix<double>::zeros(32, 32);
    EXPECT_THROW(server.submit(1.0, a.const_view(), c.view(), shared_opts(1, 1)),
                 api::OverloadError);
    const auto s = server.stats();
    EXPECT_EQ(s.rejected, 1u);
    EXPECT_EQ(s.admitted, 0u);
    EXPECT_EQ(s.compute.count, 0u) << "a refused request must never compute";
  }
  {
    api::Server::Options opts;
    opts.threads = 2;
    opts.max_inflight_requests = 0;
    api::Server server(opts);
    auto c = Matrix<double>::zeros(32, 32);
    EXPECT_THROW(server.submit(1.0, a.const_view(), c.view(), shared_opts(1, 1)),
                 api::OverloadError);
  }
}

TEST(ServerOverload, BatchLargerThanInflightBoundRejectsInsteadOfDeadlocking) {
  // A 3-request batch can never fit a 2-request bound; kBlock waiting for
  // capacity that cannot materialize would hang forever.
  api::Server::Options sopts;
  sopts.threads = 2;
  sopts.max_inflight_requests = 2;
  sopts.admission = api::AdmissionPolicy::kBlock;
  api::Server server(sopts);
  const auto a = random_integer<double>(24, 16, 2, 5);
  std::vector<Matrix<double>> cs;
  std::vector<api::AtaRequest<double>> reqs;
  for (int i = 0; i < 3; ++i) {
    cs.push_back(Matrix<double>::zeros(16, 16));
    reqs.push_back({1.0, a.const_view(), cs.back().view()});
  }
  EXPECT_THROW(server.submit_batch<double>(reqs, shared_opts(1, 1)), api::OverloadError);
  EXPECT_EQ(server.stats().rejected, 3u);
}

TEST(ServerOverload, DeadlineExpiredAtSubmitSettlesWithoutCompute) {
  api::Server::Options sopts;
  sopts.threads = 2;
  api::Server server(sopts);
  const auto a = random_integer<double>(48, 32, 2, 21);
  auto c = Matrix<double>::zeros(32, 32);
  fill_view(c.view(), -7.0);
  auto sentinel = Matrix<double>::zeros(32, 32);
  fill_view(sentinel.view(), -7.0);

  auto opts = shared_opts(1, 1);
  opts.deadline = Clock::now() - std::chrono::milliseconds(1);
  auto fut = server.submit(1.0, a.const_view(), c.view(), opts);
  EXPECT_THROW(fut.get(), api::DeadlineExceeded);
  wait_drained(server);

  const auto s = server.stats();
  EXPECT_EQ(s.admitted, 1u);
  EXPECT_EQ(s.deadline_expired, 1u);
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(s.compute.count, 0u) << "expired work must never reach a leaf GEMM";
  EXPECT_EQ(s.queue_wait.count, 0u);
  EXPECT_EQ(max_abs_diff_lower<double>(c.const_view(), sentinel.const_view()), 0.0)
      << "C must be untouched";
}

TEST(ServerOverload, DeadlineExpiredInQueueSkipsLeafGemms) {
  // The request is admitted healthy but its deadline passes while it waits
  // behind a blocked worker: its tasks must settle it with
  // DeadlineExceeded and skip compute entirely.
  api::Server::Options sopts;
  sopts.threads = 2;
  api::Server server(sopts);
  const auto a = random_integer<double>(48, 32, 2, 22);
  const auto opts = shared_opts(1, 1);
  {
    // Pre-warm plan + workspace so the gated submit below stays on the
    // never-blocking warm path (a cold warm would wait for the blocker).
    auto c0 = Matrix<double>::zeros(32, 32);
    server.submit(1.0, a.const_view(), c0.view(), opts).get();
  }
  const auto before = server.stats();

  WorkerBlocker blocker;
  blocker.install(server.executor());
  auto c = Matrix<double>::zeros(32, 32);
  fill_view(c.view(), -7.0);
  auto sentinel = Matrix<double>::zeros(32, 32);
  fill_view(sentinel.view(), -7.0);
  auto dopts = opts;
  dopts.deadline = Clock::now() + std::chrono::milliseconds(30);
  auto fut = server.submit(1.0, a.const_view(), c.view(), dopts);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  blocker.release();
  blocker.done.get();

  EXPECT_THROW(fut.get(), api::DeadlineExceeded);
  wait_drained(server);
  const auto after = server.stats();
  EXPECT_EQ(after.deadline_expired - before.deadline_expired, 1u);
  EXPECT_EQ(after.completed, before.completed);
  EXPECT_EQ(after.compute.count, before.compute.count)
      << "expired work must never reach a leaf GEMM";
  EXPECT_EQ(max_abs_diff_lower<double>(c.const_view(), sentinel.const_view()), 0.0);
}

TEST(ServerOverload, DeadlineSettlesOnlyAfterRunningStripeExits) {
  // A two-stripe request: one stripe starts computing before its deadline;
  // the other waits behind a blocked worker until the deadline has passed.
  // The expired stripe must not settle the future while its sibling is
  // still writing C — a client that frees C on DeadlineExceeded would
  // race it. So C as the client sees it the moment the future is ready
  // must already be C as the retired batch left it.
  api::Server::Options sopts;
  sopts.threads = 3;  // 3 slots = 2 workers: one runs a stripe, one is held
  api::Server server(sopts);
  const auto a = random_uniform<double>(4096, 512, 24);
  auto opts = shared_opts(2, 1);  // two stripes
  opts.engine = LeafEngine::kBlas;  // a tiny-base recursion this tall takes seconds
  Clock::duration full = Clock::duration::max();
  for (int rep = 0; rep < 3; ++rep) {
    // Warm the plan and workspaces; time the whole request, both stripes
    // running side by side, to size the deadline against one stripe.
    auto c0 = Matrix<double>::zeros(512, 512);
    const auto t0 = Clock::now();
    server.submit(1.0, a.const_view(), c0.view(), opts).get();
    if (rep > 0) full = std::min(full, Clock::now() - t0);
  }
  const auto before = server.stats();

  WorkerBlocker blocker;
  blocker.install(server.executor());
  auto c = Matrix<double>::zeros(512, 512);
  auto dopts = opts;
  dopts.deadline = Clock::now() + full / 4;
  auto fut = server.submit(1.0, a.const_view(), c.view(), dopts);
  // A unit records queue-wait only when it starts before the deadline.
  bool started = false;
  while (!started && Clock::now() < dopts.deadline) {
    started = server.stats().queue_wait.count != before.queue_wait.count;
    std::this_thread::yield();
  }
  if (!started) {
    blocker.release();
    blocker.done.get();
    // The request's stripes read `a` and write `c`, which die before the
    // server does: let it settle and retire before returning.
    fut.wait();
    wait_drained(server);
    GTEST_SKIP() << "the first stripe did not start before the deadline";
  }
  std::this_thread::sleep_until(dopts.deadline);
  blocker.release();  // the held stripe now runs, sees the deadline, skips

  fut.wait();
  const auto at_ready = c.clone();
  blocker.done.get();
  wait_drained(server);
  EXPECT_THROW(fut.get(), api::DeadlineExceeded);
  EXPECT_EQ(max_abs_diff<double>(at_ready.const_view(), c.const_view()), 0.0)
      << "C changed after the future settled: a stripe was still writing it";
  const auto after = server.stats();
  EXPECT_EQ(after.deadline_expired - before.deadline_expired, 1u);
  EXPECT_EQ(after.completed, before.completed);
}

TEST(ServerOverload, ShedOldestFreesCapacityForNewWork) {
  // Gate of one in-flight request, kShedOldest. R1 is admitted with a
  // short deadline and stuck behind a blocked worker; once its deadline
  // passes, R2's admission sheds it (DeadlineExceeded) instead of
  // rejecting R2 — and R2 then completes normally.
  api::Server::Options sopts;
  sopts.threads = 2;
  sopts.max_inflight_requests = 1;
  sopts.admission = api::AdmissionPolicy::kShedOldest;
  api::Server server(sopts);
  const auto a = random_integer<double>(48, 32, 2, 23);
  auto ref = Matrix<double>::zeros(32, 32);
  ata(1.0, a.const_view(), ref.view(), tiny_base());
  const auto opts = shared_opts(1, 1);
  {
    auto c0 = Matrix<double>::zeros(32, 32);
    server.submit(1.0, a.const_view(), c0.view(), opts).get();
  }

  WorkerBlocker blocker;
  blocker.install(server.executor());
  auto c1 = Matrix<double>::zeros(32, 32);
  fill_view(c1.view(), -7.0);
  auto sentinel = Matrix<double>::zeros(32, 32);
  fill_view(sentinel.view(), -7.0);
  auto dopts = opts;
  dopts.deadline = Clock::now() + std::chrono::milliseconds(20);
  auto r1 = server.submit(1.0, a.const_view(), c1.view(), dopts);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // R1 holds the only slot but is expired: this submit must shed it and
  // get admitted, not throw and not block.
  auto c2 = Matrix<double>::zeros(32, 32);
  auto r2 = server.submit(1.0, a.const_view(), c2.view(), opts);
  EXPECT_THROW(r1.get(), api::DeadlineExceeded) << "shed work settles with DeadlineExceeded";
  blocker.release();
  blocker.done.get();
  r2.get();

  EXPECT_EQ(max_abs_diff_lower<double>(c2.const_view(), ref.const_view()), 0.0);
  EXPECT_EQ(max_abs_diff_lower<double>(c1.const_view(), sentinel.const_view()), 0.0)
      << "shed request must never have computed";
  wait_drained(server);
  const auto s = server.stats();
  EXPECT_EQ(s.shed, 1u);
  EXPECT_GE(s.deadline_expired, 1u);
  EXPECT_EQ(s.rejected, 0u);
}

TEST(ServerOverload, HigherPriorityRequestOvertakesQueuedLowerPriority) {
  // Single worker, so its one slot queue's pop order IS the global
  // completion order (as in PoolPriority.HigherClassDrainsFirstFifoWithinClass).
  // A blocker holds the worker while a low-priority request is queued, then
  // a high-priority one. Each request is followed by a pool marker task in
  // its own priority class; FIFO within the class runs the marker right
  // after that request's task settles its future, so the marker's position
  // is the request's completion position. The high request must complete
  // first, though the low one was queued first — the inversion a FIFO pool
  // would commit.
  api::Server::Options sopts;
  sopts.threads = 2;
  api::Server server(sopts);
  const auto big = random_integer<double>(320, 256, 2, 31);
  const auto small = random_integer<double>(48, 32, 2, 32);
  const auto opts = shared_opts(1, 1);
  {
    auto cb = Matrix<double>::zeros(256, 256);
    auto cs = Matrix<double>::zeros(32, 32);
    server.submit(1.0, big.const_view(), cb.view(), opts).get();
    server.submit(1.0, small.const_view(), cs.view(), opts).get();
  }

  struct Completion {
    int at = -1;           // position in the worker's completion order
    bool settled = false;  // the request's future was ready when recorded
    bool other_pending = false;
  };
  std::atomic<int> seq{0};
  Completion low_done, high_done;
  std::future<void> low, high;
  const auto mark = [&](int priority, Completion& rec, std::future<void>& own,
                        std::future<void>& other) {
    return server.executor().submit(
        1,
        [&seq, rec = &rec, own = &own, other = &other](int, runtime::TaskContext&) {
          rec->at = seq.fetch_add(1, std::memory_order_relaxed);
          rec->settled = own->wait_for(std::chrono::seconds(0)) == std::future_status::ready;
          rec->other_pending =
              other->wait_for(std::chrono::seconds(0)) == std::future_status::timeout;
        },
        priority);
  };

  WorkerBlocker blocker;
  blocker.install(server.executor());
  auto c_low = Matrix<double>::zeros(256, 256);
  auto c_high = Matrix<double>::zeros(32, 32);
  auto low_opts = opts;
  low_opts.priority = 0;
  low = server.submit(1.0, big.const_view(), c_low.view(), low_opts);
  auto low_mark = mark(0, low_done, low, high);
  auto high_opts = opts;
  high_opts.priority = 9;
  high = server.submit(1.0, small.const_view(), c_high.view(), high_opts);
  auto high_mark = mark(9, high_done, high, low);
  EXPECT_EQ(server.executor().queue_depth(), 4u) << "both requests and markers queued";
  blocker.release();
  blocker.done.get();
  high_mark.get();
  low_mark.get();

  EXPECT_TRUE(high_done.settled && low_done.settled) << "a marker ran before its request";
  EXPECT_LT(high_done.at, low_done.at)
      << "priority inversion: the earlier low-priority request finished first";
  EXPECT_TRUE(high_done.other_pending) << "the low request completed before the high one";
  high.get();
  low.get();
  wait_drained(server);
}

// ---- Saturation (the PR's acceptance scenario) ------------------------

TEST(ServerOverload, RejectUnderSaturationSettlesEverythingAndKeepsAccounts) {
  // Clients = 4x the pool slots hammer a kReject server whose admission
  // bounds are far below the offered load. Required: no hang, every
  // returned future settles, every refusal is a synchronous OverloadError,
  // the books balance exactly, and sampled stats snapshots stay monotonic.
  // The fault-injection leg additionally makes every task slow
  // (ATALIB_FAULTS=slow_task) so the queue genuinely backs up.
  if constexpr (fault::kEnabled) {
    setenv("ATALIB_FAULTS", "slow_task:300", 1);
  }
  api::Server::Options sopts;
  sopts.threads = 2;  // 2 slots = 1 worker
  sopts.max_inflight_requests = 4;
  sopts.max_queued_batches = 4;
  sopts.admission = api::AdmissionPolicy::kReject;
  api::Server server(sopts);
  if constexpr (fault::kEnabled) unsetenv("ATALIB_FAULTS");

  const auto a = random_integer<double>(96, 64, 2, 41);
  auto ref = Matrix<double>::zeros(64, 64);
  ata(1.0, a.const_view(), ref.view(), tiny_base());
  const auto opts = shared_opts(1, 1);

  constexpr int kClients = 8;  // 4x the pool slots
  constexpr int kReps = 24;
  std::atomic<std::uint64_t> ok{0}, rejected{0}, mismatches{0};
  std::atomic<bool> monotonic{true}, stop_sampling{false};

  // Stats sampler: every counter must be monotonic across reads taken
  // while 8 writers race.
  std::thread sampler([&] {
    metrics::ServerStats prev = server.stats();
    while (!stop_sampling.load(std::memory_order_acquire)) {
      const metrics::ServerStats s = server.stats();
      if (s.admitted < prev.admitted || s.rejected < prev.rejected ||
          s.shed < prev.shed || s.deadline_expired < prev.deadline_expired ||
          s.completed < prev.completed || s.compute.count < prev.compute.count ||
          s.admission_wait.count < prev.admission_wait.count) {
        monotonic.store(false, std::memory_order_release);
      }
      prev = s;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int client = 0; client < kClients; ++client) {
    clients.emplace_back([&] {
      for (int rep = 0; rep < kReps; ++rep) {
        auto c = Matrix<double>::zeros(64, 64);
        std::future<void> fut;
        try {
          fut = server.submit(1.0, a.const_view(), c.view(), opts);
        } catch (const api::OverloadError&) {
          rejected.fetch_add(1, std::memory_order_relaxed);
          continue;  // refused synchronously: no future, no side effects
        }
        fut.get();  // every admitted future must settle (with a value here)
        ok.fetch_add(1, std::memory_order_relaxed);
        if (max_abs_diff_lower<double>(c.const_view(), ref.const_view()) != 0.0) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  wait_drained(server);
  stop_sampling.store(true, std::memory_order_release);
  sampler.join();

  EXPECT_TRUE(monotonic.load()) << "a stats snapshot went backwards";
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(ok.load() + rejected.load(),
            static_cast<std::uint64_t>(kClients) * kReps);
  const auto s = server.stats();
  EXPECT_EQ(s.admitted, ok.load());
  EXPECT_EQ(s.rejected, rejected.load());
  EXPECT_EQ(s.completed, ok.load());
  EXPECT_EQ(s.admission_wait.count, ok.load());
  EXPECT_EQ(s.compute.count, ok.load());
  EXPECT_EQ(s.inflight_requests, 0u);
  EXPECT_EQ(s.queued_batches, 0u);
  if constexpr (fault::kEnabled) {
    // With every task injected slow, 8 clients against a 4-deep gate must
    // actually trip the rejection path.
    EXPECT_GT(s.rejected, 0u);
    EXPECT_GT(s.compute.p50_ns, 300'000u) << "slow_task:300 must show up in compute p50";
  }

  // The overload machinery must not have cost the warm path its
  // amortization: repeats still do zero schedule builds, zero slab grows.
  const std::uint64_t builds = total_schedule_builds();
  const std::size_t grows = pool_slab_grows(server.executor());
  for (int rep = 0; rep < 4; ++rep) {
    auto c = Matrix<double>::zeros(64, 64);
    server.submit(1.0, a.const_view(), c.view(), opts).get();
  }
  EXPECT_EQ(total_schedule_builds(), builds);
  EXPECT_EQ(pool_slab_grows(server.executor()), grows);
}

TEST(ServerOverload, DeterministicRejectWhenQueueFullBehindBlockedWorker) {
  // Deterministic counterpart to the statistical saturation test: with the
  // single worker blocked and max_queued_batches admitted, the next submit
  // MUST throw OverloadError (nothing can drain), and the rejected request
  // must not have created a promise or touched the cache stats' hit path.
  api::Server::Options sopts;
  sopts.threads = 2;
  sopts.max_queued_batches = 2;
  sopts.admission = api::AdmissionPolicy::kReject;
  api::Server server(sopts);
  const auto a = random_integer<double>(48, 32, 2, 51);
  const auto opts = shared_opts(1, 1);
  {
    auto c0 = Matrix<double>::zeros(32, 32);
    server.submit(1.0, a.const_view(), c0.view(), opts).get();
  }

  WorkerBlocker blocker;
  blocker.install(server.executor());
  auto c1 = Matrix<double>::zeros(32, 32);
  auto c2 = Matrix<double>::zeros(32, 32);
  auto f1 = server.submit(1.0, a.const_view(), c1.view(), opts);
  auto f2 = server.submit(1.0, a.const_view(), c2.view(), opts);
  const auto hits_before = server.plan_stats().hits;
  auto c3 = Matrix<double>::zeros(32, 32);
  EXPECT_THROW(server.submit(1.0, a.const_view(), c3.view(), opts), api::OverloadError);
  EXPECT_EQ(server.plan_stats().hits, hits_before)
      << "the gate must refuse BEFORE the plan cache is consulted";
  EXPECT_EQ(server.stats().rejected, 1u);

  blocker.release();
  blocker.done.get();
  f1.get();
  f2.get();
  wait_drained(server);
}

// ---- Destructor contract ----------------------------------------------

TEST(ServerOverload, DestructorSettlesInflightFuturesWithServerShutdown) {
  // ~Server during in-flight load: the queued request's future settles
  // with ServerShutdown, its compute never runs, and the destructor
  // returns without hanging (it waits for the batch to retire as no-ops).
  const auto a = random_integer<double>(48, 32, 2, 61);
  auto c = Matrix<double>::zeros(32, 32);
  fill_view(c.view(), -7.0);
  auto sentinel = Matrix<double>::zeros(32, 32);
  fill_view(sentinel.view(), -7.0);
  std::future<void> fut;
  WorkerBlocker blocker;
  std::thread releaser;
  {
    api::Server::Options sopts;
    sopts.threads = 2;
    api::Server server(sopts);
    const auto opts = shared_opts(1, 1);
    {
      auto c0 = Matrix<double>::zeros(32, 32);
      server.submit(1.0, a.const_view(), c0.view(), opts).get();
    }
    blocker.install(server.executor());
    fut = server.submit(1.0, a.const_view(), c.view(), opts);
    // ~Server sweeps the ledger FIRST (settling the future) and then waits
    // for the batch to retire — which needs the worker back, so the
    // blocker is released from the side while the destructor blocks.
    releaser = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      blocker.release();
    });
  }  // ~Server must return
  releaser.join();
  blocker.done.get();
  EXPECT_THROW(fut.get(), api::ServerShutdown);
  EXPECT_EQ(max_abs_diff_lower<double>(c.const_view(), sentinel.const_view()), 0.0)
      << "a request settled by shutdown must never have computed";
}

// ---- Fault-injection-only serving scenarios ---------------------------

TEST(ServerOverload, InjectedLeafFailureSurfacesOnOwnFutureOnly) {
  if constexpr (!fault::kEnabled) {
    GTEST_SKIP() << "requires -DATALIB_FAULT_INJECTION=ON";
  }
  setenv("ATALIB_FAULTS", "throw_leaf:1", 1);  // every served unit throws
  api::Server::Options sopts;
  sopts.threads = 2;
  api::Server faulty(sopts);
  unsetenv("ATALIB_FAULTS");

  const auto a = random_integer<double>(48, 32, 2, 71);
  auto c = Matrix<double>::zeros(32, 32);
  auto fut = faulty.submit(1.0, a.const_view(), c.view(), shared_opts(1, 1));
  EXPECT_THROW(fut.get(), fault::FaultInjected);
  wait_drained(faulty);
  // A task error is a *completed* request (settled with the task's own
  // error), not a rejection or deadline miss.
  const auto s = faulty.stats();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.rejected, 0u);

  // The plan is captured per server: a server built without the variable
  // serves the same shape cleanly.
  api::Server clean(sopts);
  auto ref = Matrix<double>::zeros(32, 32);
  ata(1.0, a.const_view(), ref.view(), tiny_base());
  auto c2 = Matrix<double>::zeros(32, 32);
  clean.submit(1.0, a.const_view(), c2.view(), shared_opts(1, 1)).get();
  EXPECT_EQ(max_abs_diff_lower<double>(c2.const_view(), ref.const_view()), 0.0);
}

TEST(ServerOverload, QueuePressureFaultTripsAdmissionGate) {
  if constexpr (!fault::kEnabled) {
    GTEST_SKIP() << "requires -DATALIB_FAULT_INJECTION=ON";
  }
  setenv("ATALIB_FAULTS", "queue_pressure:1000", 1);
  api::Server::Options sopts;
  sopts.threads = 2;
  sopts.max_inflight_requests = 4;
  sopts.admission = api::AdmissionPolicy::kReject;
  api::Server server(sopts);
  unsetenv("ATALIB_FAULTS");

  const auto a = random_integer<double>(48, 32, 2, 81);
  auto c = Matrix<double>::zeros(32, 32);
  // 1000 phantom requests against a bound of 4: every submit is refused.
  EXPECT_THROW(server.submit(1.0, a.const_view(), c.view(), shared_opts(1, 1)),
               api::OverloadError);
  EXPECT_EQ(server.stats().rejected, 1u);
}

}  // namespace
}  // namespace atalib
