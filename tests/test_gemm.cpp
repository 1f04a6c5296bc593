// Tests for the blocked gemm kernel (the self-built MKL ?gemm substitute).

#include <gtest/gtest.h>

#include "blas/gemm.hpp"
#include "blas/reference.hpp"
#include "matrix/compare.hpp"
#include "matrix/generate.hpp"

namespace atalib {
namespace {

struct Shape {
  index_t m, n, k;
};

class GemmShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(GemmShapes, TnMatchesReferenceExactlyOnIntegers) {
  const auto [m, n, k] = GetParam();
  auto a = random_integer<double>(m, n, 4, 1);
  auto b = random_integer<double>(m, k, 4, 2);
  auto c_ref = Matrix<double>::zeros(n, k);
  auto c = Matrix<double>::zeros(n, k);
  blas::ref::gemm_tn(3.0, a.const_view(), b.const_view(), c_ref.view());
  blas::gemm_tn(3.0, a.const_view(), b.const_view(), c.view());
  EXPECT_EQ(max_abs_diff<double>(c.const_view(), c_ref.const_view()), 0.0);
}

TEST_P(GemmShapes, NnMatchesReference) {
  const auto [m, n, k] = GetParam();
  auto a = random_integer<double>(n, m, 4, 3);
  auto b = random_integer<double>(m, k, 4, 4);
  auto c_ref = Matrix<double>::zeros(n, k);
  auto c = Matrix<double>::zeros(n, k);
  blas::ref::gemm_nn(1.0, a.const_view(), b.const_view(), c_ref.view());
  blas::gemm_nn(1.0, a.const_view(), b.const_view(), c.view());
  EXPECT_EQ(max_abs_diff<double>(c.const_view(), c_ref.const_view()), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, GemmShapes,
    ::testing::Values(Shape{1, 1, 1}, Shape{2, 3, 4}, Shape{5, 5, 5}, Shape{7, 11, 13},
                      Shape{16, 16, 16}, Shape{31, 33, 29}, Shape{64, 64, 64},
                      Shape{100, 1, 100}, Shape{1, 100, 100}, Shape{129, 65, 33},
                      Shape{257, 31, 129}, Shape{300, 300, 3}, Shape{777, 13, 21}));

TEST(Gemm, AccumulatesIntoExistingC) {
  auto a = random_integer<double>(8, 8, 2, 5);
  auto b = random_integer<double>(8, 8, 2, 6);
  auto c = Matrix<double>::zeros(8, 8);
  fill_view(c.view(), 10.0);
  auto expected = c.clone();
  blas::ref::gemm_tn(1.0, a.const_view(), b.const_view(), expected.view());
  blas::gemm_tn(1.0, a.const_view(), b.const_view(), c.view());
  EXPECT_EQ(max_abs_diff<double>(c.const_view(), expected.const_view()), 0.0);
}

TEST(Gemm, AlphaZeroIsNoOp) {
  auto a = random_uniform<double>(16, 16, 1);
  auto b = random_uniform<double>(16, 16, 2);
  auto c = Matrix<double>::zeros(16, 16);
  fill_view(c.view(), 3.0);
  blas::gemm_tn(0.0, a.const_view(), b.const_view(), c.view());
  EXPECT_DOUBLE_EQ(c(5, 5), 3.0);
}

TEST(Gemm, EmptyDimensionsAreNoOps) {
  auto a = Matrix<double>::zeros(4, 0);
  auto b = Matrix<double>::zeros(4, 3);
  auto c = Matrix<double>::zeros(0, 3);
  EXPECT_NO_THROW(blas::gemm_tn(1.0, a.const_view(), b.const_view(), c.view()));
}

TEST(Gemm, WorksOnStridedSubBlocks) {
  auto big_a = random_integer<double>(40, 40, 3, 7);
  auto big_b = random_integer<double>(40, 40, 3, 8);
  ConstMatrixView<double> a = big_a.block(3, 5, 20, 17);
  ConstMatrixView<double> b = big_b.block(3, 2, 20, 11);
  auto c = Matrix<double>::zeros(17, 11);
  auto c_ref = Matrix<double>::zeros(17, 11);
  blas::gemm_tn(1.0, a, b, c.view());
  blas::ref::gemm_tn(1.0, a, b, c_ref.view());
  EXPECT_EQ(max_abs_diff<double>(c.const_view(), c_ref.const_view()), 0.0);
}

TEST(Gemm, NtVariantMatchesReference) {
  // C += A B^T: check against transposing B manually.
  auto a = random_integer<double>(9, 7, 3, 9);
  auto bt = random_integer<double>(11, 7, 3, 10);
  auto b = bt.transposed();  // 7 x 11
  auto c1 = Matrix<double>::zeros(9, 11);
  auto c2 = Matrix<double>::zeros(9, 11);
  blas::gemm_nt(1.0, a.const_view(), bt.const_view(), c1.view());
  blas::ref::gemm_nn(1.0, a.const_view(), b.const_view(), c2.view());
  EXPECT_EQ(max_abs_diff<double>(c1.const_view(), c2.const_view()), 0.0);
}

TEST(Gemm, FloatPrecisionWithinTolerance) {
  const index_t n = 64;
  auto a = random_uniform<float>(n, n, 21);
  auto b = random_uniform<float>(n, n, 22);
  auto c = Matrix<float>::zeros(n, n);
  auto c_ref = Matrix<float>::zeros(n, n);
  blas::gemm_tn(1.0f, a.const_view(), b.const_view(), c.view());
  blas::ref::gemm_tn(1.0f, a.const_view(), b.const_view(), c_ref.view());
  EXPECT_LT(max_abs_diff<float>(c.const_view(), c_ref.const_view()), mm_tolerance<float>(n));
}

}  // namespace
}  // namespace atalib
