// Tests for the blocked syrk kernel (the MKL ?syrk substitute and AtA's
// base case).

#include <gtest/gtest.h>

#include "blas/reference.hpp"
#include "blas/syrk.hpp"
#include "matrix/compare.hpp"
#include "matrix/generate.hpp"

namespace atalib {
namespace {

struct Shape {
  index_t m, n;
};

class SyrkShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(SyrkShapes, MatchesReferenceExactlyOnIntegers) {
  const auto [m, n] = GetParam();
  {
    auto a = random_integer<double>(m, n, 4, 1);
    auto c = Matrix<double>::zeros(n, n);
    auto c_ref = Matrix<double>::zeros(n, n);
    blas::syrk_ln(2.0, a.const_view(), c.view());
    blas::ref::syrk_ln(2.0, a.const_view(), c_ref.view());
    EXPECT_EQ(max_abs_diff_lower<double>(c.const_view(), c_ref.const_view()), 0.0);
  }
  {
    auto a = random_integer<float>(m, n, 4, 22);
    auto c = Matrix<float>::zeros(n, n);
    auto c_ref = Matrix<float>::zeros(n, n);
    blas::syrk_ln(2.0f, a.const_view(), c.view());
    blas::ref::syrk_ln(2.0f, a.const_view(), c_ref.view());
    EXPECT_EQ(max_abs_diff_lower<float>(c.const_view(), c_ref.const_view()), 0.0);
  }
}

TEST_P(SyrkShapes, NeverTouchesStrictUpperTriangle) {
  const auto [m, n] = GetParam();
  auto a = random_uniform<double>(m, n, 2);
  auto c = Matrix<double>::zeros(n, n);
  const double sentinel = -123.25;
  for (index_t i = 0; i < n; ++i)
    for (index_t j = i + 1; j < n; ++j) c(i, j) = sentinel;
  blas::syrk_ln(1.0, a.const_view(), c.view());
  for (index_t i = 0; i < n; ++i)
    for (index_t j = i + 1; j < n; ++j) ASSERT_EQ(c(i, j), sentinel);
}

INSTANTIATE_TEST_SUITE_P(ShapeSweep, SyrkShapes,
                         ::testing::Values(Shape{1, 1}, Shape{3, 2}, Shape{8, 8}, Shape{5, 17},
                                           Shape{33, 31}, Shape{64, 64}, Shape{7, 129},
                                           Shape{200, 3}, Shape{128, 130}, Shape{257, 127},
                                           // Tall-skinny shapes.
                                           Shape{7, 3}, Shape{256, 8}, Shape{300, 17},
                                           Shape{513, 31}, Shape{1000, 5}, Shape{1030, 64},
                                           Shape{2048, 24}));

TEST(Syrk, AccumulatesWithAlpha) {
  auto a = random_integer<double>(10, 6, 3, 4);
  auto c = Matrix<double>::zeros(6, 6);
  auto expected = Matrix<double>::zeros(6, 6);
  blas::ref::syrk_ln(1.5, a.const_view(), expected.view());
  blas::ref::syrk_ln(1.5, a.const_view(), expected.view());
  blas::syrk_ln(1.5, a.const_view(), c.view());
  blas::syrk_ln(1.5, a.const_view(), c.view());
  EXPECT_EQ(max_abs_diff_lower<double>(c.const_view(), expected.const_view()), 0.0);
}

TEST(Syrk, DiagonalIsNonnegativeForRealInput) {
  auto a = random_uniform<double>(30, 20, 9);
  auto c = Matrix<double>::zeros(20, 20);
  blas::syrk_ln(1.0, a.const_view(), c.view());
  for (index_t i = 0; i < 20; ++i) EXPECT_GE(c(i, i), 0.0);
}

}  // namespace
}  // namespace atalib
