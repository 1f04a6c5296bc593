// Cross-module integration tests: the same product computed by every engine
// in the library must agree, and downstream linear-algebra uses must work.

#include <gtest/gtest.h>

#include <cmath>

#include "ata/ata.hpp"
#include "blas/reference.hpp"
#include "blas/syrk.hpp"
#include "dist/ata_dist.hpp"
#include "dist/summa_syrk.hpp"
#include "matrix/compare.hpp"
#include "matrix/generate.hpp"
#include "matrix/packed.hpp"
#include "parallel/ata_shared.hpp"

namespace atalib {
namespace {

RecurseOptions tiny_base() {
  RecurseOptions opts;
  opts.base_case_elements = 256;
  opts.min_dim = 2;
  return opts;
}

TEST(Integration, AllEnginesAgreeBitwiseOnIntegerInput) {
  // Integer matrices make every execution order produce identical floats,
  // so the five engines must agree exactly.
  const index_t m = 120, n = 88;
  auto a = random_integer<double>(m, n, 3, 42);
  auto reference = Matrix<double>::zeros(n, n);
  blas::ref::syrk_ln(1.0, a.const_view(), reference.view());

  auto by_syrk = Matrix<double>::zeros(n, n);
  blas::syrk_ln(1.0, a.const_view(), by_syrk.view());

  auto by_ata = Matrix<double>::zeros(n, n);
  ata(1.0, a.const_view(), by_ata.view(), tiny_base());

  auto by_shared = Matrix<double>::zeros(n, n);
  SharedOptions so;
  so.threads = 7;
  so.recurse = tiny_base();
  ata_shared(1.0, a.const_view(), by_shared.view(), so);

  dist::DistOptions dopts;
  dopts.procs = 13;
  dopts.recurse = tiny_base();
  const auto by_dist = dist::ata_dist(1.0, a, dopts);

  const auto by_summa = dist::summa_syrk(1.0, a, 5);

  const std::vector<const Matrix<double>*> engines = {&by_syrk, &by_ata, &by_shared,
                                                      &by_dist.c, &by_summa.c};
  for (const Matrix<double>* c : engines) {
    EXPECT_EQ(max_abs_diff_lower<double>(c->const_view(), reference.const_view()), 0.0);
  }
}

TEST(Integration, NormalEquationsSolveLeastSquares) {
  // Solve min ||Ax - b|| via A^T A x = A^T b with AtA + Cholesky; the
  // residual must be orthogonal to the column space (A^T r = 0).
  const index_t m = 60, n = 12;
  auto a = random_gaussian<double>(m, n, 7);
  auto x_true = random_gaussian<double>(n, 1, 8);
  // b = A x_true (so the residual of the solve should be ~0).
  auto b = Matrix<double>::zeros(m, 1);
  blas::ref::gemm_nn(1.0, a.const_view(), x_true.const_view(), b.view());

  auto ata_m = Matrix<double>::zeros(n, n);
  ata(1.0, a.const_view(), ata_m.view(), tiny_base());
  symmetrize_from_lower(ata_m.view());
  auto atb = Matrix<double>::zeros(n, 1);
  blas::ref::gemm_tn(1.0, a.const_view(), b.const_view(), atb.view());

  // In-place Cholesky solve (lower).
  Matrix<double> l = ata_m.clone();
  for (index_t j = 0; j < n; ++j) {
    for (index_t kk = 0; kk < j; ++kk)
      for (index_t i = j; i < n; ++i) l(i, j) -= l(i, kk) * l(j, kk);
    const double d = std::sqrt(l(j, j));
    ASSERT_GT(d, 0.0);
    for (index_t i = j; i < n; ++i) l(i, j) /= d;
  }
  // Forward/back substitution.
  std::vector<double> y(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    double s = atb(i, 0);
    for (index_t j = 0; j < i; ++j) s -= l(i, j) * y[static_cast<std::size_t>(j)];
    y[static_cast<std::size_t>(i)] = s / l(i, i);
  }
  std::vector<double> x(static_cast<std::size_t>(n));
  for (index_t i = n - 1; i >= 0; --i) {
    double s = y[static_cast<std::size_t>(i)];
    for (index_t j = i + 1; j < n; ++j) s -= l(j, i) * x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(i)] = s / l(i, i);
  }
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], x_true(i, 0), 1e-8);
  }
}

TEST(Integration, GramMatrixOfOrthogonalColumnsIsIdentity) {
  // Build an orthonormal basis (Gram-Schmidt with the library's dot), then
  // AtA of it must be the identity.
  const index_t m = 50, n = 8;
  auto a = random_gaussian<double>(m, n, 21);
  // Modified Gram-Schmidt on columns.
  for (index_t j = 0; j < n; ++j) {
    for (index_t k = 0; k < j; ++k) {
      double dot = 0;
      for (index_t i = 0; i < m; ++i) dot += a(i, j) * a(i, k);
      for (index_t i = 0; i < m; ++i) a(i, j) -= dot * a(i, k);
    }
    double nrm = 0;
    for (index_t i = 0; i < m; ++i) nrm += a(i, j) * a(i, j);
    nrm = std::sqrt(nrm);
    for (index_t i = 0; i < m; ++i) a(i, j) /= nrm;
  }
  auto c = Matrix<double>::zeros(n, n);
  ata(1.0, a.const_view(), c.view(), tiny_base());
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      EXPECT_NEAR(c(i, j), i == j ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(Integration, SharedAndDistAgreeAcrossPrecisions) {
  const index_t m = 64, n = 64;
  auto a = random_integer<float>(m, n, 2, 33);
  auto c_ref = Matrix<float>::zeros(n, n);
  blas::ref::syrk_ln(1.0f, a.const_view(), c_ref.view());
  SharedOptions so;
  so.threads = 4;
  so.recurse = tiny_base();
  auto c_s = Matrix<float>::zeros(n, n);
  ata_shared(1.0f, a.const_view(), c_s.view(), so);
  dist::DistOptions dopts;
  dopts.procs = 4;
  dopts.recurse = tiny_base();
  const auto c_d = dist::ata_dist(1.0f, a, dopts);
  EXPECT_EQ(max_abs_diff_lower<float>(c_s.const_view(), c_ref.const_view()), 0.0);
  EXPECT_EQ(max_abs_diff_lower<float>(c_d.c.const_view(), c_ref.const_view()), 0.0);
}

TEST(Integration, SharedProfileMatchesParallelExecution) {
  // ata_shared_profile runs the same schedule serially; its result and the
  // OpenMP execution must agree bitwise, and its timing fields must be
  // internally consistent.
  auto a = random_integer<double>(80, 64, 3, 91);
  SharedOptions so;
  so.threads = 6;
  so.recurse = tiny_base();
  auto c1 = Matrix<double>::zeros(64, 64);
  ata_shared(1.0, a.const_view(), c1.view(), so);
  auto c2 = Matrix<double>::zeros(64, 64);
  const auto profile = ata_shared_profile(1.0, a.const_view(), c2.view(), so);
  EXPECT_EQ(max_abs_diff_lower<double>(c1.const_view(), c2.const_view()), 0.0);
  EXPECT_EQ(profile.task_seconds.size(), 6u);
  double total = 0, worst = 0;
  for (double s : profile.task_seconds) {
    EXPECT_GE(s, 0.0);
    total += s;
    worst = std::max(worst, s);
  }
  EXPECT_DOUBLE_EQ(profile.total_seconds, total);
  EXPECT_DOUBLE_EQ(profile.critical_path_seconds, worst);
  EXPECT_LE(profile.critical_path_seconds, profile.total_seconds);
}

TEST(Integration, DistCriticalPathIsMaxOfRankBusy) {
  auto a = random_uniform<double>(96, 96, 17);
  dist::DistOptions opts;
  opts.procs = 8;
  opts.recurse = tiny_base();
  const auto res = dist::ata_dist(1.0, a, opts);
  EXPECT_EQ(res.rank_busy_seconds.size(), 8u);
  double worst = 0;
  for (double s : res.rank_busy_seconds) {
    EXPECT_GE(s, 0.0);
    worst = std::max(worst, s);
  }
  EXPECT_DOUBLE_EQ(res.critical_path_seconds(), worst);
  EXPECT_GT(worst, 0.0);
}

TEST(Integration, RepeatedCallsAreIdempotentInStructure) {
  // Calling the full stack repeatedly (fresh C each time) must give the
  // same answer — guards against leaked state in thread-local buffers.
  auto a = random_integer<double>(48, 40, 3, 55);
  Matrix<double> first = Matrix<double>::zeros(40, 40);
  SharedOptions so;
  so.threads = 3;
  so.recurse = tiny_base();
  ata_shared(1.0, a.const_view(), first.view(), so);
  for (int rep = 0; rep < 5; ++rep) {
    auto again = Matrix<double>::zeros(40, 40);
    ata_shared(1.0, a.const_view(), again.view(), so);
    ASSERT_EQ(max_abs_diff_lower<double>(again.const_view(), first.const_view()), 0.0);
  }
}

}  // namespace
}  // namespace atalib
