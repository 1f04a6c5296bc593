// Tests for AtA (Algorithm 1), the paper's core contribution.

#include <gtest/gtest.h>

#include "ata/ata.hpp"
#include "blas/reference.hpp"
#include "common/arena.hpp"
#include "matrix/compare.hpp"
#include "matrix/generate.hpp"
#include "runtime/workspace.hpp"
#include "strassen/workspace.hpp"

namespace atalib {
namespace {

RecurseOptions tiny_base() {
  RecurseOptions opts;
  opts.base_case_elements = 64;
  opts.min_dim = 2;
  return opts;
}

struct Shape {
  index_t m, n;
};

class AtaShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(AtaShapes, MatchesSyrkReferenceExactlyOnIntegers) {
  const auto [m, n] = GetParam();
  auto a = random_integer<double>(m, n, 3, 1);
  auto c = Matrix<double>::zeros(n, n);
  auto c_ref = Matrix<double>::zeros(n, n);
  blas::ref::syrk_ln(1.0, a.const_view(), c_ref.view());
  ata(1.0, a.const_view(), c.view(), tiny_base());
  EXPECT_EQ(max_abs_diff_lower<double>(c.const_view(), c_ref.const_view()), 0.0)
      << "m=" << m << " n=" << n;
}

TEST_P(AtaShapes, AccumulatesScaledProductIntoNonzeroC) {
  // C += alpha * AᵀA on a C that already holds data: every leaf (the
  // recursive diagonal blocks and the Strassen off-diagonal ones) must add
  // its scaled product instead of overwriting. Integer inputs and a
  // half-integer alpha keep every order of summation exact.
  const auto [m, n] = GetParam();
  auto a = random_integer<double>(m, n, 3, 5);
  auto c = random_integer<double>(n, n, 4, 6);
  auto c_ref = c.clone();
  blas::ref::syrk_ln(-1.5, a.const_view(), c_ref.view());
  ata(-1.5, a.const_view(), c.view(), tiny_base());
  EXPECT_EQ(max_abs_diff_lower<double>(c.const_view(), c_ref.const_view()), 0.0)
      << "m=" << m << " n=" << n;
}

TEST_P(AtaShapes, NeverTouchesStrictUpperTriangle) {
  const auto [m, n] = GetParam();
  auto a = random_uniform<double>(m, n, 3);
  auto c = Matrix<double>::zeros(n, n);
  const double sentinel = 77.125;
  for (index_t i = 0; i < n; ++i)
    for (index_t j = i + 1; j < n; ++j) c(i, j) = sentinel;
  ata(1.0, a.const_view(), c.view(), tiny_base());
  for (index_t i = 0; i < n; ++i)
    for (index_t j = i + 1; j < n; ++j) ASSERT_EQ(c(i, j), sentinel);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, AtaShapes,
    ::testing::Values(Shape{1, 1}, Shape{2, 2}, Shape{3, 3}, Shape{4, 4}, Shape{5, 5},
                      Shape{7, 9}, Shape{9, 7}, Shape{16, 16}, Shape{17, 17}, Shape{31, 33},
                      Shape{64, 64}, Shape{65, 64}, Shape{64, 65}, Shape{100, 10},
                      Shape{10, 100}, Shape{128, 127}, Shape{129, 67}, Shape{1, 50},
                      Shape{50, 1}));

TEST(Ata, ScalesByAlphaAndAccumulates) {
  auto a = random_integer<double>(30, 20, 3, 4);
  auto c = Matrix<double>::zeros(20, 20);
  auto expected = Matrix<double>::zeros(20, 20);
  blas::ref::syrk_ln(0.5, a.const_view(), expected.view());
  blas::ref::syrk_ln(-2.0, a.const_view(), expected.view());
  ata(0.5, a.const_view(), c.view(), tiny_base());
  ata(-2.0, a.const_view(), c.view(), tiny_base());
  EXPECT_EQ(max_abs_diff_lower<double>(c.const_view(), expected.const_view()), 0.0);
}

TEST(Ata, ExternalArenaIsSufficientAndReleased) {
  const RecurseOptions opts = tiny_base();
  const index_t m = 70, n = 66;
  const index_t bound = ata_workspace_bound(m, n, opts, sizeof(double));
  Arena<double> arena(static_cast<std::size_t>(bound));
  auto a = random_integer<double>(m, n, 3, 5);
  auto c = Matrix<double>::zeros(n, n);
  EXPECT_NO_THROW(ata(1.0, a.const_view(), c.view(), arena, opts));
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_LE(arena.high_water(), static_cast<std::size_t>(bound));
}

TEST(Ata, WorkspaceBoundBelowPaperSpaceModel) {
  // §3.3: S(n) = 3/2 n^2 including the output; our arena covers only the
  // Strassen temporaries, which must come in well under n^2/2.
  RecurseOptions opts;
  opts.base_case_elements = 1;
  opts.min_dim = 1;
  const index_t n = 512;
  const index_t bound = ata_workspace_bound(n, n, opts, sizeof(double));
  EXPECT_LT(static_cast<double>(bound), 0.5 * static_cast<double>(n) * n);
}

TEST(Ata, DiagonalDominatesForSpdStructure) {
  // C = A^T A is PSD: |c_ij| <= sqrt(c_ii c_jj) (Cauchy-Schwarz).
  auto a = random_uniform<double>(40, 24, 6);
  auto c = Matrix<double>::zeros(24, 24);
  ata(1.0, a.const_view(), c.view(), tiny_base());
  for (index_t i = 0; i < 24; ++i) {
    for (index_t j = 0; j < i; ++j) {
      ASSERT_LE(c(i, j) * c(i, j), c(i, i) * c(j, j) * (1 + 1e-12));
    }
  }
}

TEST(Ata, FloatPrecision) {
  const index_t m = 80, n = 72;
  auto a = random_uniform<float>(m, n, 8);
  auto c = Matrix<float>::zeros(n, n);
  auto c_ref = Matrix<float>::zeros(n, n);
  RecurseOptions opts;
  opts.base_case_elements = 256;
  opts.min_dim = 4;
  ata(1.0f, a.const_view(), c.view(), opts);
  blas::ref::syrk_ln(1.0f, a.const_view(), c_ref.view());
  EXPECT_LT(max_abs_diff_lower<float>(c.const_view(), c_ref.const_view()),
            mm_tolerance<float>(m, 512.0));
}

class AatShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(AatShapes, AAtMatchesReferenceOnTransposedInput) {
  // aat(A) must equal syrk_ln(A^T): lower(C) = A A^T.
  const auto [m, n] = GetParam();
  auto a = random_integer<double>(m, n, 3, 77);
  auto at = a.transposed();
  auto c = Matrix<double>::zeros(m, m);
  auto c_ref = Matrix<double>::zeros(m, m);
  blas::ref::syrk_ln(1.0, at.const_view(), c_ref.view());
  aat(1.0, a.const_view(), c.view(), tiny_base());
  EXPECT_EQ(max_abs_diff_lower<double>(c.const_view(), c_ref.const_view()), 0.0);
}

INSTANTIATE_TEST_SUITE_P(ShapeSweep, AatShapes,
                         ::testing::Values(Shape{1, 1}, Shape{5, 9}, Shape{16, 16},
                                           Shape{33, 17}, Shape{17, 33}, Shape{64, 100}));

TEST(Aat, GramOfWideMatrixIsSmall) {
  // AA^T of an m x n matrix is m x m even when n >> m.
  auto a = random_integer<double>(6, 200, 2, 78);
  auto c = Matrix<double>::zeros(6, 6);
  aat(1.0, a.const_view(), c.view(), tiny_base());
  auto at = a.transposed();
  auto c_ref = Matrix<double>::zeros(6, 6);
  blas::ref::syrk_ln(1.0, at.const_view(), c_ref.view());
  EXPECT_EQ(max_abs_diff_lower<double>(c.const_view(), c_ref.const_view()), 0.0);
}

TEST(Aat, ArenaRoutedCallsAreMallocFreeOnceWarm) {
  // The transpose buffer comes out of the caller-visible arena, so a
  // reused runtime::Workspace slab serves repeated aat() calls with zero
  // slab allocations after the first.
  const index_t m = 48, n = 36;
  auto a = random_integer<double>(m, n, 3, 79);
  auto at = a.transposed();
  auto c_ref = Matrix<double>::zeros(m, m);
  blas::ref::syrk_ln(1.0, at.const_view(), c_ref.view());

  const auto bound =
      static_cast<std::size_t>(aat_workspace_bound(m, n, tiny_base(), sizeof(double)));
  runtime::Workspace ws;
  for (int rep = 0; rep < 4; ++rep) {
    Arena<double>& arena = ws.arena<double>(bound);
    auto c = Matrix<double>::zeros(m, m);
    aat(1.0, a.const_view(), c.view(), arena, tiny_base());
    EXPECT_EQ(max_abs_diff_lower<double>(c.const_view(), c_ref.const_view()), 0.0)
        << "rep " << rep;
    EXPECT_EQ(arena.used(), 0u) << "aat must release its checkpoint";
  }
  EXPECT_EQ(ws.grow_count(), 1u) << "only the first call may grow the slab";
}

TEST(Ata, DefaultOptionsProbeCacheAndWork) {
  // Default-constructed options must work out of the box (cache probe).
  auto a = random_integer<double>(150, 90, 2, 9);
  auto c = Matrix<double>::zeros(90, 90);
  auto c_ref = Matrix<double>::zeros(90, 90);
  ata(1.0, a.const_view(), c.view());
  blas::ref::syrk_ln(1.0, a.const_view(), c_ref.view());
  EXPECT_EQ(max_abs_diff_lower<double>(c.const_view(), c_ref.const_view()), 0.0);
}

}  // namespace
}  // namespace atalib
