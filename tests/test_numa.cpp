// Tests for the NUMA-aware runtime (DESIGN.md §7): fake-topology parsing,
// slot->node grouping, block placement over the node-grouped slots (the
// Snippet-2-style scheduled-count oracle), steal-locality counters, the
// worker-side first-touch warm, and bitwise agreement of NUMA-placed
// execution with a flat pool. Everything multi-node runs over
// ATALIB_FAKE_NUMA so the suite is deterministic on single-node CI hosts;
// guards restore any ambient value (the CI fake-numa leg exports 2x2 for
// the whole suite).

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <latch>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/execute.hpp"
#include "api/server.hpp"
#include "ata/ata.hpp"
#include "common/cacheinfo.hpp"
#include "matrix/compare.hpp"
#include "matrix/generate.hpp"
#include "parallel/ata_shared.hpp"
#include "runtime/thread_pool.hpp"

namespace atalib {
namespace {

/// Scoped ATALIB_FAKE_NUMA override; restores the ambient value (or its
/// absence) on destruction so tests compose with the CI leg that exports a
/// fake topology for the whole suite.
class FakeNumaGuard {
 public:
  explicit FakeNumaGuard(const char* spec) {
    const char* prev = std::getenv("ATALIB_FAKE_NUMA");
    if (prev != nullptr) saved_ = prev;
    if (spec != nullptr) {
      setenv("ATALIB_FAKE_NUMA", spec, 1);
    } else {
      unsetenv("ATALIB_FAKE_NUMA");
    }
  }
  ~FakeNumaGuard() {
    if (saved_.has_value()) {
      setenv("ATALIB_FAKE_NUMA", saved_->c_str(), 1);
    } else {
      unsetenv("ATALIB_FAKE_NUMA");
    }
  }
  FakeNumaGuard(const FakeNumaGuard&) = delete;
  FakeNumaGuard& operator=(const FakeNumaGuard&) = delete;

 private:
  std::optional<std::string> saved_;
};

// ---- Fake-topology parsing --------------------------------------------

TEST(FakeNuma, ParsesNodesByCpusSpec) {
  const auto topo = parse_fake_numa("2x4");
  ASSERT_TRUE(topo.has_value());
  EXPECT_TRUE(topo->fake);
  ASSERT_EQ(topo->num_nodes(), 2);
  EXPECT_EQ(topo->total_cpus(), 8);
  // CPU ids are blocked per node, like a real two-socket cpulist.
  EXPECT_EQ(topo->nodes[0].cpus, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(topo->nodes[1].cpus, (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(topo->node_of_cpu(3), 0);
  EXPECT_EQ(topo->node_of_cpu(4), 1);
}

TEST(FakeNuma, AcceptsUppercaseSeparator) {
  const auto topo = parse_fake_numa("4X2");
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->num_nodes(), 4);
  EXPECT_EQ(topo->total_cpus(), 8);
}

TEST(FakeNuma, RejectsMalformedSpecs) {
  for (const char* bad : {"", "2", "2x", "x4", "2y4", "0x4", "2x0", "-1x4",
                          "2x-4", "axb", "2x4x8", "  "}) {
    EXPECT_FALSE(parse_fake_numa(bad).has_value()) << "spec: '" << bad << "'";
  }
}

TEST(FakeNuma, ProbeHonorsOverrideAndThrowsOnMalformed) {
  {
    FakeNumaGuard guard("3x2");
    const auto topo = probe_numa_topology();
    EXPECT_TRUE(topo.fake);
    EXPECT_EQ(topo.num_nodes(), 3);
    EXPECT_EQ(topo.total_cpus(), 6);
  }
  {
    FakeNumaGuard guard("not-a-topology");
    EXPECT_THROW(probe_numa_topology(), std::invalid_argument);
  }
  {
    FakeNumaGuard guard(nullptr);  // real probe: at least one node, one cpu
    const auto topo = probe_numa_topology();
    EXPECT_FALSE(topo.fake);
    EXPECT_GE(topo.num_nodes(), 1);
    EXPECT_GE(topo.total_cpus(), 1);
    for (int c : topo.nodes[0].cpus) EXPECT_EQ(topo.node_of_cpu(c), 0);
  }
}

// ---- Sysfs probe ------------------------------------------------------

TEST(SysfsNuma, ReadsOnlyOnlineNodesAndSkipsMemoryOnlyOnes) {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() /
                        ("atalib_sysfs_node_" + std::to_string(::getpid()));
  fs::remove_all(root);
  auto write = [&](const fs::path& rel, const std::string& text) {
    fs::create_directories((root / rel).parent_path());
    std::ofstream(root / rel) << text;
  };
  EXPECT_FALSE(probe_sysfs_topology(root.string()).has_value()) << "no online file";

  // Non-dense ids: node1 exists on disk but is not online, so it must not
  // be read.
  write("online", "0,2\n");
  write("node0/cpulist", "0-1\n");
  write("node1/cpulist", "4-5\n");
  write("node2/cpulist", "2-3\n");
  auto topo = probe_sysfs_topology(root.string());
  ASSERT_TRUE(topo.has_value());
  EXPECT_FALSE(topo->fake);
  ASSERT_EQ(topo->num_nodes(), 2);
  EXPECT_EQ(topo->nodes[0].id, 0);
  EXPECT_EQ(topo->nodes[0].cpus, (std::vector<int>{0, 1}));
  EXPECT_EQ(topo->nodes[1].id, 2);
  EXPECT_EQ(topo->nodes[1].cpus, (std::vector<int>{2, 3}));

  // A memory-only node (empty cpulist) is online but gets no slots.
  write("online", "0,2-3\n");
  write("node3/cpulist", "\n");
  topo = probe_sysfs_topology(root.string());
  ASSERT_TRUE(topo.has_value());
  ASSERT_EQ(topo->num_nodes(), 2);
  EXPECT_EQ(topo->nodes[1].id, 2);
  EXPECT_EQ(topo->total_cpus(), 4);

  fs::remove_all(root);
}

// ---- Slot -> node grouping --------------------------------------------

TEST(NumaPool, SlotsBlockOverNodesProportionally) {
  FakeNumaGuard guard("2x4");
  runtime::ThreadPool pool(8);
  ASSERT_EQ(pool.numa_nodes(), 2);
  EXPECT_TRUE(pool.topology().fake);
  for (int s = 0; s < 4; ++s) EXPECT_EQ(pool.node_of_slot(s), 0) << "slot " << s;
  for (int s = 4; s < 8; ++s) EXPECT_EQ(pool.node_of_slot(s), 1) << "slot " << s;
}

TEST(NumaPool, UnevenPoolSizeStillCoversEveryNode) {
  FakeNumaGuard guard("2x4");
  runtime::ThreadPool pool(6);  // fewer slots than fake CPUs
  ASSERT_EQ(pool.numa_nodes(), 2);
  std::vector<int> per_node(2, 0);
  for (int s = 0; s < pool.concurrency(); ++s) {
    ++per_node[static_cast<std::size_t>(pool.node_of_slot(s))];
  }
  EXPECT_EQ(per_node[0], 3);
  EXPECT_EQ(per_node[1], 3);
}

// ---- Block placement (scheduled-count oracle) --------------------------

TEST(NumaPool, RoundRobinSchedulingBalancesNodes) {
  FakeNumaGuard guard("2x4");
  runtime::ThreadPool pool(8);
  ASSERT_EQ(pool.numa_nodes(), 2);
  const int ntasks = 16;
  std::atomic<int> ran{0};
  pool.run(ntasks, [&](int, runtime::TaskContext&) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), ntasks);
  // Assignment-time counts are deterministic regardless of stealing: 2
  // tasks on each slot, 4 slots per node.
  EXPECT_EQ(pool.scheduled_on_node(0), 8u);
  EXPECT_EQ(pool.scheduled_on_node(1), 8u);
  const auto stats = pool.numa_stats();
  EXPECT_EQ(stats.total_scheduled(), 16u);
  EXPECT_EQ(stats.total_executed(), 16u);
  EXPECT_EQ(stats.scheduled_imbalance(), 0u);
}

TEST(NumaPool, FourNodeRoundRobinWithinOneTask) {
  FakeNumaGuard guard("4x2");
  runtime::ThreadPool pool(8);
  ASSERT_EQ(pool.numa_nodes(), 4);
  const int ntasks = 10;  // 10 = 8 + 2: two slots, on two nodes, get a second task
  pool.run(ntasks, [](int, runtime::TaskContext&) {});
  std::uint64_t total = 0;
  for (int node = 0; node < 4; ++node) {
    const std::uint64_t count = pool.scheduled_on_node(node);
    EXPECT_GE(count, 2u) << "node " << node;
    EXPECT_LE(count, 3u) << "node " << node;
    total += count;
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(ntasks));
  EXPECT_EQ(pool.numa_stats().scheduled_imbalance(), 1u);
}

TEST(NumaPool, RunCountsScheduledPerNodeOnTwoSlotNodes) {
  FakeNumaGuard guard("2x2");
  runtime::ThreadPool pool(4);
  const int ntasks = 8;
  pool.run(ntasks, [](int, runtime::TaskContext&) {});
  // Block distribution: 2 tasks per slot, slots blocked 2+2 over the nodes.
  EXPECT_EQ(pool.scheduled_on_node(0), 4u);
  EXPECT_EQ(pool.scheduled_on_node(1), 4u);
  EXPECT_EQ(pool.numa_stats().total_executed(), 8u);
}

TEST(NumaPool, SmallQueuedBatchesRotateOverWorkerSlotsOnly) {
  // One slot per node, so scheduled_on_node(s) is slot s's count. Slot 3
  // is the caller slot: submit() never places on it, run() does.
  FakeNumaGuard guard("4x1");
  runtime::ThreadPool pool(4);
  ASSERT_EQ(pool.numa_nodes(), 4);
  const auto scheduled = [&pool] {
    std::vector<std::uint64_t> counts;
    for (int node = 0; node < 4; ++node) counts.push_back(pool.scheduled_on_node(node));
    return counts;
  };
  const auto noop = [](int, runtime::TaskContext&) {};

  // One-task batches rotate over the three worker slots: a third each.
  for (int i = 0; i < 300; ++i) pool.submit(1, noop).get();
  EXPECT_EQ(scheduled(), (std::vector<std::uint64_t>{100, 100, 100, 0}));

  // A two-task batch puts one task on each of two worker slots (the block
  // split of 2 over 3 leaves the home slot, here slot 0, empty).
  pool.submit(2, noop).get();
  EXPECT_EQ(scheduled(), (std::vector<std::uint64_t>{100, 101, 101, 0}));

  // run() does not rotate and spreads over every slot, the caller's too.
  pool.run(8, noop);
  EXPECT_EQ(scheduled(), (std::vector<std::uint64_t>{102, 103, 103, 2}));
  EXPECT_EQ(pool.numa_stats().total_executed(), 310u);
}

// ---- Steal locality ----------------------------------------------------

TEST(NumaPool, BalancedOneTaskPerSlotBatchHasZeroSteals) {
  // One task per slot, latch-gated so no task finishes until every
  // slot has popped its own: steals of any kind are impossible, which
  // makes remote_steals == 0 deterministic even on an oversubscribed
  // single-CPU CI host (acceptance criterion).
  FakeNumaGuard guard("2x2");
  runtime::ThreadPool pool(4);
  ASSERT_EQ(pool.numa_nodes(), 2);
  std::latch all_started(4);
  pool.run(4, [&](int, runtime::TaskContext&) { all_started.arrive_and_wait(); });
  EXPECT_EQ(pool.local_steals(), 0u);
  EXPECT_EQ(pool.remote_steals(), 0u);
  EXPECT_EQ(pool.steals(), 0u);
  // With zero steals, execution matches assignment exactly.
  EXPECT_EQ(pool.scheduled_on_node(0), pool.executed_on_node(0));
  EXPECT_EQ(pool.scheduled_on_node(1), pool.executed_on_node(1));
  EXPECT_EQ(pool.scheduled_on_node(0), 2u);
  EXPECT_EQ(pool.scheduled_on_node(1), 2u);
  const auto stats = pool.numa_stats();
  EXPECT_EQ(stats.steal_locality(), 1.0);
  EXPECT_EQ(stats.scheduled_per_node, stats.executed_per_node);
}

TEST(NumaPoolStats, DerivedQuantities) {
  metrics::NumaPoolStats stats;
  stats.nodes = 2;
  stats.scheduled_per_node = {10, 7};
  stats.executed_per_node = {9, 8};
  stats.local_steals = 3;
  stats.remote_steals = 1;
  EXPECT_EQ(stats.total_scheduled(), 17u);
  EXPECT_EQ(stats.total_executed(), 17u);
  EXPECT_EQ(stats.scheduled_imbalance(), 3u);
  EXPECT_DOUBLE_EQ(stats.steal_locality(), 0.75);
  EXPECT_NE(stats.to_string().find("steals local=3 remote=1"), std::string::npos);
}

// ---- Worker-side first-touch warm --------------------------------------

TEST(NumaPool, WarmGrowsEverySlotUnderFakeTopology) {
  FakeNumaGuard guard("2x2");
  runtime::ThreadPool pool(4);
  const std::size_t floats = 3000, doubles = 5000;
  pool.warm_workspaces(floats, doubles);
  for (int s = 0; s < pool.concurrency(); ++s) {
    EXPECT_GE(pool.workspace(s).bytes(), floats * sizeof(float) + doubles * sizeof(double))
        << "slot " << s;
  }
  // A batch fitting the warmed bound allocates nothing on any slot.
  std::vector<std::size_t> grows_before(4);
  for (int s = 0; s < 4; ++s) grows_before[static_cast<std::size_t>(s)] =
      pool.workspace(s).grow_count();
  pool.run(8, [&](int, runtime::TaskContext& ctx) {
    Arena<double>& arena = ctx.arena<double>(doubles);
    arena.allocate(doubles);
  });
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(pool.workspace(s).grow_count(), grows_before[static_cast<std::size_t>(s)])
        << "slot " << s;
  }
}

// ---- AtA over a fake topology ------------------------------------------

RecurseOptions tiny_base() {
  RecurseOptions opts;
  opts.base_case_elements = 256;
  opts.min_dim = 2;
  return opts;
}

TEST(NumaAta, PlacedExecutionBitwiseMatchesFlatPool) {
  // Integer inputs make every execution order produce identical floats, so
  // NUMA placement (any node assignment, any stealing) must agree exactly
  // with a flat pool and with the serial recursion.
  const index_t m = 96, n = 80;
  const auto a = random_integer<double>(m, n, 3, 4321);
  auto c_serial = Matrix<double>::zeros(n, n);
  ata(1.0, a.const_view(), c_serial.view(), tiny_base());

  auto run_with_pool = [&](runtime::ThreadPool& pool) {
    SharedOptions so;
    so.threads = 4;
    so.oversub = 2;
    so.recurse = tiny_base();
    so.engine = LeafEngine::kStrassen;
    const auto plan = api::PlanCache::global().get_or_build(
        api::shared_plan_key(api::Dtype::kF64, m, n, so));
    auto c = Matrix<double>::zeros(n, n);
    api::execute(*plan, 1.0, a.const_view(), c.view(), &pool);
    return c;
  };

  Matrix<double> c_numa(1, 1), c_flat(1, 1);
  {
    FakeNumaGuard guard("2x4");
    runtime::ThreadPool pool(8);
    ASSERT_EQ(pool.numa_nodes(), 2);
    c_numa = run_with_pool(pool);
    // The placed batch spread over both nodes.
    EXPECT_GT(pool.scheduled_on_node(0), 0u);
    EXPECT_GT(pool.scheduled_on_node(1), 0u);
  }
  {
    FakeNumaGuard guard(nullptr);  // real (likely flat) topology
    runtime::ThreadPool pool(8);
    c_flat = run_with_pool(pool);
  }
  EXPECT_EQ(max_abs_diff_lower<double>(c_numa.const_view(), c_serial.const_view()), 0.0);
  EXPECT_EQ(max_abs_diff_lower<double>(c_flat.const_view(), c_numa.const_view()), 0.0);
}

// ---- Serving front-end over a fake topology ----------------------------

TEST(NumaServer, RuntimeStatsReportPerNodePlacement) {
  FakeNumaGuard guard("2x2");
  api::Server server(api::Server::Options{.threads = 4, .plan_capacity = 4});
  ASSERT_EQ(server.executor().numa_nodes(), 2);

  const index_t m = 64, n = 48;
  const auto a = random_integer<float>(m, n, 2, 99);
  auto c = Matrix<float>::zeros(n, n);
  SharedOptions so;
  so.threads = 4;
  so.oversub = 1;  // 4 tasks over worker slots 0-2 as 1/1/2 -> 2 per node
  so.recurse = tiny_base();
  so.engine = LeafEngine::kStrassen;
  server.submit(1.0f, a.const_view(), c.view(), so).get();

  const auto stats = server.runtime_stats();
  EXPECT_EQ(stats.nodes, 2);
  EXPECT_TRUE(stats.fake_topology);
  EXPECT_EQ(stats.total_scheduled(), 4u);
  EXPECT_EQ(stats.total_executed(), 4u);
  EXPECT_EQ(stats.scheduled_per_node[0], 2u);
  EXPECT_EQ(stats.scheduled_per_node[1], 2u);

  // Result correctness through the serving path.
  auto c_serial = Matrix<float>::zeros(n, n);
  ata(1.0f, a.const_view(), c_serial.view(), tiny_base());
  EXPECT_EQ(max_abs_diff_lower<float>(c.const_view(), c_serial.const_view()), 0.0);
}

TEST(NumaServer, ServedTrafficFollowsWorkerSlotShare) {
  // 2x2 with 4 slots: workers 0-1 on node 0, worker 2 and the caller slot
  // on node 1. Queued batches go to the three worker slots only, so served
  // traffic must split 2:1 over the nodes, never pile onto one slot.
  FakeNumaGuard guard("2x2");
  api::Server server(api::Server::Options{.threads = 4, .plan_capacity = 4});
  ASSERT_EQ(server.executor().numa_nodes(), 2);
  ASSERT_EQ(server.executor().node_of_slot(2), 1);
  const auto scheduled = [&server] { return server.runtime_stats().scheduled_per_node; };

  // One-task batches rotate their home over worker slots 0, 1, 2, ...
  const index_t m = 64, n = 16;
  const auto a = random_integer<double>(m, n, 2, 7);
  auto c = Matrix<double>::zeros(n, n);
  const api::AtaRequest<double> req{1.0, a.const_view(), c.view()};
  for (int i = 0; i < 300; ++i) {
    server.submit_batch<double>(std::span<const api::AtaRequest<double>>(&req, 1))[0].get();
  }
  EXPECT_EQ(scheduled(), (std::vector<std::uint64_t>{200, 100}));

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
  EXPECT_EQ(scheduled(), (std::vector<std::uint64_t>{205, 103}));

  auto c_serial = Matrix<double>::zeros(big_n, big_n);
  ata(1.0, big.const_view(), c_serial.view(), tiny_base());
  EXPECT_EQ(max_abs_diff_lower<double>(c_big.const_view(), c_serial.const_view()), 0.0);
}

}  // namespace
}  // namespace atalib
