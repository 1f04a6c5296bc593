// Heap-allocation counts of the warm serving path (DESIGN.md §8).
//
// This binary replaces the global operator new/delete with counting
// versions. Counting is switched on only around the measured loops, after
// warm-up calls have built the plans, grown the pool workspaces and filled
// the free lists; every thread's allocations count, so work a pool worker
// does on a request's behalf (running it, settling it, retiring its batch)
// is included.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <new>
#include <span>
#include <vector>

#include "api/server.hpp"
#include "matrix/generate.hpp"
#include "matrix/matrix.hpp"
#include "runtime/thread_pool.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc_nothrow(std::size_t n, std::size_t align) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  return align > alignof(std::max_align_t)
             ? std::aligned_alloc(align, (n + align - 1) / align * align)
             : std::malloc(n);
}

void* counted_alloc(std::size_t n, std::size_t align) {
  void* p = counted_alloc_nothrow(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace atalib {
namespace {

constexpr int kWarmCalls = 200;
constexpr int kCalls = 1000;

/// Heap allocations made by every thread while `fn` runs.
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
  fn();
  g_counting.store(false, std::memory_order_seq_cst);
  return g_allocs.load(std::memory_order_relaxed);
}

TEST(AllocFree, CountingOperatorNewSeesAllocations) {
  // The oracle itself: a plain vector growth is counted.
  const std::uint64_t n = allocations_during([] {
    std::vector<int> v(64);
    v[0] = 1;
    EXPECT_EQ(v[0], 1);
  });
  EXPECT_EQ(n, 1u);
}

TEST(AllocFree, WarmServerSubmitAllocatesNothing) {
  api::Server::Options sopts;
  sopts.threads = 4;
  api::Server server(sopts);
  const auto a = random_integer<double>(64, 32, 2, 7);
  auto c = Matrix<double>::zeros(32, 32);
  SharedOptions opts;
  opts.threads = 1;
  opts.oversub = 1;
  const auto serve = [&](int calls) {
    for (int i = 0; i < calls; ++i) server.submit(1.0, a.const_view(), c.view(), opts).get();
  };
  serve(kWarmCalls);
  EXPECT_EQ(allocations_during([&] { serve(kCalls); }), 0u);
}

TEST(AllocFree, WarmOneRequestSubmitBatchAllocatesOnlyItsVector) {
  api::Server::Options sopts;
  sopts.threads = 4;
  api::Server server(sopts);
  const auto a = random_integer<double>(256, 32, 2, 8);
  auto c = Matrix<double>::zeros(32, 32);
  const api::AtaRequest<double> req{1.0, a.const_view(), c.view()};
  const auto serve = [&](int calls) {
    for (int i = 0; i < calls; ++i) {
      server.submit_batch<double>(std::span<const api::AtaRequest<double>>(&req, 1))[0].get();
    }
  };
  serve(kWarmCalls);
  EXPECT_LE(allocations_during([&] { serve(kCalls); }), static_cast<std::uint64_t>(kCalls))
      << "more than the returned vector per call";
}

TEST(AllocFree, PoolSubmitWithCaptureFreeBodyAllocatesNothing) {
  runtime::ThreadPool pool(4);
  const auto body = [](int, runtime::TaskContext&) {};
  const auto submit = [&](int calls) {
    for (int i = 0; i < calls; ++i) pool.submit(1, body).get();
  };
  submit(kWarmCalls);
  EXPECT_EQ(allocations_during([&] { submit(kCalls); }), 0u);
}

TEST(AllocFree, WarmPoolRunAllocatesNothing) {
  // The blocking path: every slot, the caller's included, gets tasks.
  runtime::ThreadPool pool(4);
  std::atomic<int> ran{0};
  const runtime::TaskFn body = [&ran](int, runtime::TaskContext&) {
    ran.fetch_add(1, std::memory_order_relaxed);
  };
  const auto run = [&](int calls) {
    for (int i = 0; i < calls; ++i) pool.run(6, body);
  };
  run(kWarmCalls);
  EXPECT_EQ(allocations_during([&] { run(kCalls); }), 0u);
  EXPECT_EQ(ran.load(), 6 * (kWarmCalls + kCalls));
}

}  // namespace
}  // namespace atalib
