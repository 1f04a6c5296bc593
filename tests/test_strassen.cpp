// Tests for the generalized rectangular odd-size Strassen (FastStrassen)
// and its workspace accounting.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "api/execute.hpp"
#include "api/plan_cache.hpp"
#include "ata/ata.hpp"
#include "blas/gemm.hpp"
#include "blas/kernels/pack.hpp"
#include "blas/kernels/registry.hpp"
#include "blas/reference.hpp"
#include "common/arena.hpp"
#include "common/cacheinfo.hpp"
#include "matrix/compare.hpp"
#include "matrix/generate.hpp"
#include "parallel/ata_shared.hpp"
#include "runtime/thread_pool.hpp"
#include "strassen/naive_strassen.hpp"
#include "strassen/strassen.hpp"
#include "strassen/tuner.hpp"
#include "strassen/workspace.hpp"

namespace atalib {
namespace {

RecurseOptions tiny_base() {
  RecurseOptions opts;
  opts.base_case_elements = 64;  // force deep recursion on small inputs
  opts.min_dim = 2;
  return opts;
}

struct Shape {
  index_t m, n, k;
};

class StrassenShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(StrassenShapes, MatchesReferenceExactlyOnIntegers) {
  const auto [m, n, k] = GetParam();
  auto a = random_integer<double>(m, n, 3, 1);
  auto b = random_integer<double>(m, k, 3, 2);
  auto c = Matrix<double>::zeros(n, k);
  auto c_ref = Matrix<double>::zeros(n, k);
  blas::ref::gemm_tn(2.0, a.const_view(), b.const_view(), c_ref.view());
  fast_strassen(2.0, a.const_view(), b.const_view(), c.view(), tiny_base());
  EXPECT_EQ(max_abs_diff<double>(c.const_view(), c_ref.const_view()), 0.0)
      << "m=" << m << " n=" << n << " k=" << k;
}

TEST_P(StrassenShapes, NaiveAllocatingVariantAgrees) {
  const auto [m, n, k] = GetParam();
  auto a = random_integer<double>(m, n, 3, 3);
  auto b = random_integer<double>(m, k, 3, 4);
  auto c1 = Matrix<double>::zeros(n, k);
  auto c2 = Matrix<double>::zeros(n, k);
  fast_strassen(1.0, a.const_view(), b.const_view(), c1.view(), tiny_base());
  naive_strassen_tn(1.0, a.const_view(), b.const_view(), c2.view(), tiny_base());
  EXPECT_EQ(max_abs_diff<double>(c1.const_view(), c2.const_view()), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, StrassenShapes,
    ::testing::Values(Shape{2, 2, 2}, Shape{3, 3, 3}, Shape{4, 4, 4}, Shape{5, 5, 5},
                      Shape{7, 7, 7}, Shape{8, 8, 8}, Shape{9, 9, 9}, Shape{16, 16, 16},
                      Shape{17, 19, 23}, Shape{32, 32, 32}, Shape{33, 31, 29},
                      Shape{64, 64, 64}, Shape{65, 63, 64}, Shape{100, 30, 70},
                      Shape{30, 100, 70}, Shape{70, 30, 100}, Shape{127, 65, 129},
                      Shape{128, 1, 128}, Shape{1, 64, 64}, Shape{64, 64, 1}));

TEST(Strassen, AccumulatesIntoNonzeroC) {
  auto a = random_integer<double>(20, 15, 3, 5);
  auto b = random_integer<double>(20, 10, 3, 6);
  auto c = Matrix<double>::zeros(15, 10);
  fill_view(c.view(), 2.5);
  auto expected = c.clone();
  blas::ref::gemm_tn(-1.0, a.const_view(), b.const_view(), expected.view());
  fast_strassen(-1.0, a.const_view(), b.const_view(), c.view(), tiny_base());
  EXPECT_EQ(max_abs_diff<double>(c.const_view(), expected.const_view()), 0.0);
}

TEST(Strassen, WorkspaceBoundIsRespectedAndTight) {
  // The recursion must fit in exactly the computed bound (the arena throws
  // otherwise), and must actually use it when recursion happens.
  const RecurseOptions opts = tiny_base();
  for (const auto& s : {Shape{32, 32, 32}, Shape{33, 29, 31}, Shape{64, 16, 48}}) {
    auto a = random_uniform<double>(s.m, s.n, 7);
    auto b = random_uniform<double>(s.m, s.k, 8);
    auto c = Matrix<double>::zeros(s.n, s.k);
    const index_t bound = strassen_workspace_bound(s.m, s.n, s.k, opts, sizeof(double));
    Arena<double> arena(static_cast<std::size_t>(bound));
    EXPECT_NO_THROW(strassen_tn(1.0, a.const_view(), b.const_view(), c.view(), arena, opts));
    EXPECT_GT(arena.high_water(), 0u);
    EXPECT_LE(arena.high_water(), static_cast<std::size_t>(bound));
    EXPECT_EQ(arena.used(), 0u);  // fully released on unwind
  }
}

TEST(Strassen, WorkspaceBoundMatchesPaperSquareModel) {
  // §3.3: workspace ~ (mn + mk + nk)/3 summed over levels <= 3/2 n^2 for
  // square shapes (our per-level charge is (mn + mk + nk)/4 * geometric).
  RecurseOptions opts;
  opts.base_case_elements = 1;  // full recursion
  opts.min_dim = 1;
  const index_t n = 1024;
  const index_t bound = strassen_workspace_bound(n, n, n, opts, sizeof(double));
  EXPECT_LT(static_cast<double>(bound), 1.5 * static_cast<double>(n) * n);
  EXPECT_GT(static_cast<double>(bound), 0.9 * static_cast<double>(n) * n);
}

TEST(Strassen, BaseCasePredicates) {
  EXPECT_TRUE(gemm_base_case(4, 100, 100, 1, 8));    // tiny dimension
  EXPECT_TRUE(gemm_base_case(10, 10, 10, 1000, 2));  // fits in budget
  EXPECT_FALSE(gemm_base_case(100, 100, 100, 1000, 2));
  EXPECT_TRUE(ata_base_case(10, 10, 200, 2));
  EXPECT_FALSE(ata_base_case(100, 100, 200, 2));
}

TEST(Strassen, ReusedArenaAcrossCallsNeedsNoRealloc) {
  const RecurseOptions opts = tiny_base();
  const index_t bound = strassen_workspace_bound(48, 48, 48, opts, sizeof(double));
  Arena<double> arena(static_cast<std::size_t>(bound));
  auto a = random_integer<double>(48, 48, 2, 9);
  auto b = random_integer<double>(48, 48, 2, 10);
  auto c = Matrix<double>::zeros(48, 48);
  for (int i = 0; i < 3; ++i) {
    strassen_tn(1.0, a.const_view(), b.const_view(), c.view(), arena, opts);
    EXPECT_EQ(arena.used(), 0u);
  }
  auto c_ref = Matrix<double>::zeros(48, 48);
  blas::ref::gemm_tn(3.0, a.const_view(), b.const_view(), c_ref.view());
  EXPECT_EQ(max_abs_diff<double>(c.const_view(), c_ref.const_view()), 0.0);
}

TEST(Strassen, FloatPrecisionWithinStrassenTolerance) {
  const index_t n = 96;
  auto a = random_uniform<float>(n, n, 31);
  auto b = random_uniform<float>(n, n, 32);
  auto c = Matrix<float>::zeros(n, n);
  auto c_ref = Matrix<float>::zeros(n, n);
  RecurseOptions opts;
  opts.base_case_elements = 512;
  opts.min_dim = 4;
  fast_strassen(1.0f, a.const_view(), b.const_view(), c.view(), opts);
  blas::ref::gemm_tn(1.0f, a.const_view(), b.const_view(), c_ref.view());
  // Strassen's error grows faster than classical; allow extra slack.
  EXPECT_LT(max_abs_diff<float>(c.const_view(), c_ref.const_view()),
            mm_tolerance<float>(n, 512.0));
}

TEST(Strassen, LargeBaseCaseShortCircuitsToBlas) {
  // With a huge threshold the call is one blas::gemm_tn; its only workspace
  // need is the leaf's packed panels, which now come from the same arena.
  // n = 41 leaves ragged edge micro-panels on every tile, and the leaf packs
  // those even where it reads its compact operands in place.
  RecurseOptions opts;
  opts.base_case_elements = 1 << 28;
  auto a = random_integer<double>(41, 41, 3, 11);
  auto b = random_integer<double>(41, 41, 3, 12);
  auto c = Matrix<double>::zeros(41, 41);
  const index_t bound = strassen_workspace_bound(41, 41, 41, opts, sizeof(double));
  EXPECT_EQ(bound, blas::gemm_workspace_bound<double>(41, 41, 41));
  Arena<double> arena(static_cast<std::size_t>(bound));
  EXPECT_NO_THROW(strassen_tn(1.0, a.const_view(), b.const_view(), c.view(), arena, opts));
  EXPECT_GT(arena.high_water(), 0u);  // the leaf really packed from the arena
  EXPECT_EQ(arena.used(), 0u);
}

// ---- Registry-backed leaves vs forced-scalar (bitwise) ------------------

namespace kn = blas::kernels;

struct ForcedIsa {
  explicit ForcedIsa(kn::Isa isa) { kn::set_forced_isa(isa); }
  ~ForcedIsa() { kn::set_forced_isa(std::nullopt); }
};

TEST(Strassen, RegistryLeavesMatchForcedScalarBitwise) {
  // Integer inputs make every add/sub/axpy and microkernel product exact, so
  // the SIMD tile kernels must agree with the scalar loops to the last bit —
  // across MR/NR-edge and odd-prime shapes that exercise ragged tails.
  if (kn::available_kernels().size() < 2) {
    GTEST_SKIP() << "only the scalar kernel is available on this CPU";
  }
  const RecurseOptions opts = tiny_base();
  for (const auto& s : {Shape{48, 48, 48}, Shape{33, 29, 31}, Shape{17, 19, 23},
                        Shape{13, 41, 37}, Shape{64, 63, 65}, Shape{12, 16, 40}}) {
    auto a = random_integer<double>(s.m, s.n, 3, 21);
    auto b = random_integer<double>(s.m, s.k, 3, 22);
    auto c_fast = Matrix<double>::zeros(s.n, s.k);
    auto c_scalar = Matrix<double>::zeros(s.n, s.k);
    fast_strassen(1.0, a.const_view(), b.const_view(), c_fast.view(), opts);
    {
      ForcedIsa scalar(kn::Isa::kScalar);
      fast_strassen(1.0, a.const_view(), b.const_view(), c_scalar.view(), opts);
    }
    EXPECT_EQ(max_abs_diff<double>(c_fast.const_view(), c_scalar.const_view()), 0.0)
        << "m=" << s.m << " n=" << s.n << " k=" << s.k;
  }
}

// ---- Warm-path acceptance: Strassen leaves allocate nothing -------------

TEST(Strassen, WarmStrassenLeavesAllocateNothing) {
  // Mirror of the kBlas warm-path test: once the pool slots are warm, a
  // Strassen-engine execute() must neither grow a slot slab nor touch the
  // thread-local pack fallback — every leaf packs from the slot arena.
  runtime::ThreadPool pool(4);
  api::PlanCache cache(2);
  SharedOptions so;
  so.threads = 4;
  so.oversub = 2;
  so.recurse = tiny_base();
  so.engine = LeafEngine::kStrassen;
  const index_t m = 120, n = 96;
  const auto a = random_integer<double>(m, n, 3, 77);
  auto c_ref = Matrix<double>::zeros(n, n);
  ata(1.0, a.const_view(), c_ref.view(), so.recurse);

  const auto plan = cache.get_or_build(api::shared_plan_key(api::dtype_of<double>(), m, n, so));
  auto c = Matrix<double>::zeros(n, n);
  api::execute(*plan, 1.0, a.const_view(), c.view(), &pool);  // cold: slabs may grow

  std::size_t grows_warm = 0;
  for (int s = 0; s < pool.concurrency(); ++s) grows_warm += pool.workspace(s).grow_count();
  const std::uint64_t packs_warm = kn::thread_pack_allocs().load();
  for (int rep = 0; rep < 5; ++rep) {
    fill_view(c.view(), 0.0);
    api::execute(*plan, 1.0, a.const_view(), c.view(), &pool);
    EXPECT_EQ(max_abs_diff_lower<double>(c.const_view(), c_ref.const_view()), 0.0);
  }
  std::size_t grows_after = 0;
  for (int s = 0; s < pool.concurrency(); ++s) grows_after += pool.workspace(s).grow_count();
  EXPECT_EQ(grows_after, grows_warm) << "warm Strassen leaves must not grow slot slabs";
  EXPECT_EQ(kn::thread_pack_allocs().load(), packs_warm)
      << "warm Strassen leaves must never fall back to thread-local pack buffers";
}

// ---- Tuner --------------------------------------------------------------

TEST(StrassenTuner, SeededCacheFileIsDeterministicAndFeedsPlanKey) {
  const std::string path = testing::TempDir() + "atalib_tuning_seeded.txt";
  const char* isa = kn::isa_name(kn::active_config<double>().isa);
  {
    std::ofstream f(path, std::ios::trunc);
    f << isa << " f64 7777\n" << isa << " f32 5555\n";
  }
  strassen::Tuner t1(path), t2(path);
  EXPECT_EQ(t1.base_case_elements(sizeof(double)), 7777);
  EXPECT_EQ(t1.base_case_elements(sizeof(float)), 5555);
  // Same cache file -> same cut-off.
  EXPECT_EQ(t2.base_case_elements(sizeof(double)), t1.base_case_elements(sizeof(double)));
  // The resolved cut-off is what Strassen plan keys carry, so equal tuning
  // gives equal keys.
  SharedOptions so;
  so.threads = 2;
  so.engine = LeafEngine::kStrassen;
  so.recurse.base_case_elements = t1.base_case_elements(sizeof(double));
  const auto k1 = api::shared_plan_key(api::dtype_of<double>(), 64, 48, so);
  const auto k2 = api::shared_plan_key(api::dtype_of<double>(), 64, 48, so);
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(k1.base_case_elements, 7777);
  std::remove(path.c_str());
}

std::string read_all(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
}

TEST(StrassenTuner, EachTiersCacheEntriesWinAcrossForcedIsaToggles) {
  const kn::Isa native = kn::active_config<double>().isa;
  if (native == kn::Isa::kScalar) {
    GTEST_SKIP() << "only the scalar kernel is available on this CPU";
  }
  const std::string path = testing::TempDir() + "atalib_tuning_tiers.txt";
  const std::string isa = kn::isa_name(native);
  {
    std::ofstream f(path, std::ios::trunc);
    f << isa << " f64 7777\n" << isa << " f32 5555\n" << isa << " f64-ts 3\n"
      << isa << " f32-ts 5\n"
      << "scalar f64 3333\nscalar f32 2222\nscalar f64-ts 6\nscalar f32-ts 7\n";
  }
  const std::string before = read_all(path);
  const strassen::Tuner tuner(path);
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(tuner.base_case_elements(sizeof(double)), 7777) << "round " << round;
    EXPECT_EQ(tuner.base_case_elements(sizeof(float)), 5555) << "round " << round;
    EXPECT_EQ(tuner.tall_skinny_ratio(sizeof(double)), 3) << "round " << round;
    EXPECT_EQ(tuner.tall_skinny_ratio(sizeof(float)), 5) << "round " << round;
    ForcedIsa scalar(kn::Isa::kScalar);
    EXPECT_EQ(tuner.base_case_elements(sizeof(double)), 3333) << "round " << round;
    EXPECT_EQ(tuner.base_case_elements(sizeof(float)), 2222) << "round " << round;
    EXPECT_EQ(tuner.tall_skinny_ratio(sizeof(double)), 6) << "round " << round;
    EXPECT_EQ(tuner.tall_skinny_ratio(sizeof(float)), 7) << "round " << round;
  }
  // The cache is read-only.
  EXPECT_EQ(read_all(path), before);
  std::remove(path.c_str());
}

TEST(StrassenTuner, WithoutCacheFileReturnsProbeAndRatioTwo) {
  const strassen::Tuner tuner("");
  EXPECT_EQ(tuner.base_case_elements(sizeof(double)),
            static_cast<index_t>(default_base_case_elements(sizeof(double))));
  EXPECT_EQ(tuner.base_case_elements(sizeof(float)),
            static_cast<index_t>(default_base_case_elements(sizeof(float))));
  EXPECT_EQ(tuner.tall_skinny_ratio(sizeof(double)), 2);
  EXPECT_EQ(tuner.tall_skinny_ratio(sizeof(float)), 2);
}

TEST(StrassenTuner, ResolvedCutoffLandsInPlanKey) {
  // Explicit cut-offs pass through resolution untouched; 0 resolves to a
  // positive value, so cached Strassen plans never carry the "auto" marker.
  SharedOptions so;
  so.threads = 2;
  so.engine = LeafEngine::kStrassen;
  so.recurse.base_case_elements = 4096;
  const auto k = api::shared_plan_key(api::dtype_of<double>(), 64, 48, so);
  EXPECT_EQ(k.base_case_elements, 4096);
  so.recurse.base_case_elements = 0;
  EXPECT_GT(api::shared_plan_key(api::dtype_of<double>(), 64, 48, so).base_case_elements, 0);
}

}  // namespace
}  // namespace atalib
