// Sanitizer-targeted concurrency stress (DESIGN.md §9).
//
// These tests exist to give TSan/ASan real interleavings to chew on, not to
// assert new functional behavior: N client threads hammer
// Server::submit_batch while the small plan-cache capacity forces constant
// LRU eviction and rebuild of shared plans, and a chaos thread repeatedly
// drives an mpisim communicator with a throwing rank so the abort/poison
// protocol and first-error capture race real batch traffic. Results are
// still checked bitwise (integer inputs) — a lost update would show up as a
// wrong Gram, not just a sanitizer report.
//
// Iteration counts are deliberately small by default so the tier-1 suite
// stays fast; the sanitizer CI legs set ATALIB_STRESS=1 to multiply them.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/batch.hpp"
#include "api/server.hpp"
#include "ata/ata.hpp"
#include "matrix/compare.hpp"
#include "matrix/generate.hpp"
#include "mpisim/communicator.hpp"
#include "runtime/thread_pool.hpp"

namespace atalib {
namespace {

int stress_scale() {
  const char* env = std::getenv("ATALIB_STRESS");
  return (env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0) ? 8 : 1;
}

RecurseOptions tiny_base() {
  RecurseOptions opts;
  opts.base_case_elements = 256;
  opts.min_dim = 2;
  return opts;
}

SharedOptions stress_opts() {
  SharedOptions so;
  so.threads = 2;
  so.oversub = 2;
  so.recurse = tiny_base();
  so.engine = LeafEngine::kStrassen;
  return so;
}

TEST(Stress, ConcurrentSubmitBatchUnderEvictionAndMpisimAborts) {
  // plan_capacity 2 with 4 client threads each owning a distinct shape:
  // every client's plan keeps getting evicted by the others and rebuilt
  // through the build-once in-flight path while batches from all clients
  // overlap on the pool.
  api::Server server(api::Server::Options{4, 2});
  constexpr int kClients = 4;
  const int iters = 4 * stress_scale();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  // Chaos thread: an mpisim protocol whose rank 2 throws while the peers
  // are blocked in recv. Runs on its own rank pool (blocking rank bodies
  // must not share slots with the server's batches) and must rethrow the
  // original error every time, concurrently with the serving traffic.
  std::thread chaos([&] {
    runtime::ThreadPool rank_pool(4);
    while (!stop.load(std::memory_order_acquire)) {
      mpisim::Communicator comm(4);
      try {
        comm.run_on(rank_pool, [](mpisim::RankCtx& ctx, runtime::TaskContext&) {
          if (ctx.rank() == 2) throw std::runtime_error("injected rank failure");
          (void)ctx.recv<int>(2, 9);
        });
        ++failures;  // must not complete cleanly
      } catch (const std::runtime_error&) {
        // expected: the injected failure, not a secondary AbortedError
      } catch (...) {
        ++failures;
      }
    }
  });

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const index_t m = 48 + 16 * c;
      const index_t n = 32 + 8 * c;
      const auto a = random_integer<double>(m, n, 3, 7 + c);
      auto ref = Matrix<double>::zeros(n, n);
      ata(2.0, a.const_view(), ref.view(), tiny_base());

      constexpr int kReqsPerBatch = 3;
      std::vector<Matrix<double>> outs;
      for (int r = 0; r < kReqsPerBatch; ++r) outs.push_back(Matrix<double>::zeros(n, n));

      for (int it = 0; it < iters; ++it) {
        std::vector<api::AtaRequest<double>> requests;
        for (auto& out : outs) {
          out.fill(0.0);
          requests.push_back({2.0, a.const_view(), out.view()});
        }
        try {
          for (auto& f : server.submit_batch<double>(requests, stress_opts())) f.get();
        } catch (...) {
          ++failures;
          return;
        }
        for (const auto& out : outs) {
          if (max_abs_diff_lower<double>(out.const_view(), ref.const_view()) != 0.0) {
            ++failures;
            return;
          }
        }
      }
    });
  }

  for (auto& t : clients) t.join();
  stop.store(true, std::memory_order_release);
  chaos.join();

  EXPECT_EQ(failures.load(), 0);
  // Four live shapes through a 2-plan cache must have evicted; the serving
  // path stayed correct through every rebuild.
  const auto stats = server.plan_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.misses, 0u);
}

TEST(Stress, SharedShapeSubmitBatchKeepsBuildOncePlans) {
  // All clients request the SAME shape: the in-flight build map must hand
  // every concurrent first-request the one shared build, and the warm path
  // must survive clients racing submit_batch with nothing forcing order.
  api::Server server(api::Server::Options{4, 4});
  constexpr int kClients = 4;
  const int iters = 6 * stress_scale();

  const auto a = random_integer<double>(64, 48, 3, 11);
  auto ref = Matrix<double>::zeros(48, 48);
  ata(2.0, a.const_view(), ref.view(), tiny_base());

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      auto out = Matrix<double>::zeros(48, 48);
      for (int it = 0; it < iters; ++it) {
        out.fill(0.0);
        api::AtaRequest<double> req{2.0, a.const_view(), out.view()};
        try {
          for (auto& f : server.submit_batch<double>({&req, 1}, stress_opts())) f.get();
        } catch (...) {
          ++failures;
          return;
        }
        if (max_abs_diff_lower<double>(out.const_view(), ref.const_view()) != 0.0) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.plan_stats().evictions, 0u);
}

}  // namespace
}  // namespace atalib
