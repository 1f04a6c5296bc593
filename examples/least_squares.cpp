// Least squares via normal equations — the paper's motivating application
// (§1): solve min_x ||A x - b||_2 by forming A^T A with AtA and factoring
// it with Cholesky (A^T A is symmetric positive definite for full-rank A,
// and AtA hands us exactly the lower triangle Cholesky needs).
//
// An ensemble of regression problems (bootstrap resamples, per-fold
// designs, per-sensor calibrations) shares one shape, so the Gram stage
// is one fused api::Server::submit_batch call: the batch plans the shape
// once and forms every problem's A^T A as a single pool batch, with one
// future per problem. Default options form each Gram with the blocked
// syrk/gemm kernels.
//
//   ./least_squares [--m 4000] [--n 300] [--noise 0.01] [--problems 8]

#include <cmath>
#include <cstdio>
#include <vector>

#include "api/batch.hpp"
#include "api/server.hpp"
#include "blas/gemm.hpp"
#include "common/cli.hpp"
#include "common/timer.hpp"
#include "matrix/generate.hpp"

namespace {

using namespace atalib;

/// In-place lower Cholesky of the lower triangle of a (upper ignored).
bool cholesky_lower(Matrix<double>& a) {
  const index_t n = a.rows();
  for (index_t j = 0; j < n; ++j) {
    for (index_t k = 0; k < j; ++k) {
      for (index_t i = j; i < n; ++i) a(i, j) -= a(i, k) * a(j, k);
    }
    if (a(j, j) <= 0) return false;
    const double d = std::sqrt(a(j, j));
    for (index_t i = j; i < n; ++i) a(i, j) /= d;
  }
  return true;
}

/// Solve L L^T x = rhs in place.
void cholesky_solve(const Matrix<double>& l, std::vector<double>& x) {
  const index_t n = l.rows();
  for (index_t i = 0; i < n; ++i) {
    double s = x[static_cast<std::size_t>(i)];
    for (index_t j = 0; j < i; ++j) s -= l(i, j) * x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(i)] = s / l(i, i);
  }
  for (index_t i = n - 1; i >= 0; --i) {
    double s = x[static_cast<std::size_t>(i)];
    for (index_t j = i + 1; j < n; ++j) s -= l(j, i) * x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(i)] = s / l(i, i);
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.add_int("m", 4000, "observations (rows of A)");
  flags.add_int("n", 300, "parameters (columns of A)");
  flags.add_double("noise", 0.01, "observation noise sigma");
  flags.add_int("problems", 8, "independent problems in the ensemble");
  if (!flags.parse(argc, argv)) return 1;

  const index_t m = flags.get_int("m");
  const index_t n = flags.get_int("n");
  const double noise = flags.get_double("noise");
  const int problems = std::max(1, static_cast<int>(flags.get_int("problems")));

  // Synthetic ensemble: problem s has its own design and its own truth,
  //   b_s = A_s x_s + noise.
  std::vector<Matrix<double>> a, x_true, b;
  for (int s = 0; s < problems; ++s) {
    a.push_back(random_gaussian<double>(m, n, 3 * s + 1));
    x_true.push_back(random_gaussian<double>(n, 1, 3 * s + 2));
    b.push_back(Matrix<double>::zeros(m, 1));
    blas::gemm_nn(1.0, a.back().const_view(), x_true.back().const_view(), b.back().view());
    auto eps = random_gaussian<double>(m, 1, 3 * s + 3);
    for (index_t i = 0; i < m; ++i) b.back()(i, 0) += noise * eps(i, 0);
  }

  std::printf("Normal equations for %d independent %ld x %ld systems\n", problems, m, n);

  // All A_s^T A_s in ONE fused batch: the problems share a shape, so the
  // batch is one plan lookup and one pool batch with per-problem futures.
  api::Server server;
  std::vector<Matrix<double>> gram;
  for (int s = 0; s < problems; ++s) gram.push_back(Matrix<double>::zeros(n, n));
  std::vector<api::AtaRequest<double>> requests;
  for (int s = 0; s < problems; ++s) {
    requests.push_back({1.0, a[static_cast<std::size_t>(s)].const_view(),
                        gram[static_cast<std::size_t>(s)].view()});
  }
  Timer t_ata;
  for (auto& f : server.submit_batch<double>(requests)) f.get();
  const double ata_seconds = t_ata.seconds();
  std::printf("A^T A (submit_batch): %7.3f s for %d Grams (%zu plan miss(es))\n",
              ata_seconds, problems, static_cast<std::size_t>(server.plan_stats().misses));

  // Per-problem back end: A^T b, Cholesky, solve, recovery error.
  Timer t_chol;
  double worst_rel = 0.0;
  for (int s = 0; s < problems; ++s) {
    auto& g = gram[static_cast<std::size_t>(s)];
    auto atb = Matrix<double>::zeros(n, 1);
    blas::gemm_tn(1.0, a[static_cast<std::size_t>(s)].const_view(),
                  b[static_cast<std::size_t>(s)].const_view(), atb.view());
    if (!cholesky_lower(g)) {
      std::printf("FAILED: Gram matrix %d not positive definite\n", s);
      return 1;
    }
    std::vector<double> x(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) x[static_cast<std::size_t>(i)] = atb(i, 0);
    cholesky_solve(g, x);

    double err2 = 0, ref2 = 0;
    for (index_t i = 0; i < n; ++i) {
      const double d = x[static_cast<std::size_t>(i)] - x_true[static_cast<std::size_t>(s)](i, 0);
      err2 += d * d;
      ref2 += x_true[static_cast<std::size_t>(s)](i, 0) * x_true[static_cast<std::size_t>(s)](i, 0);
    }
    worst_rel = std::max(worst_rel, std::sqrt(err2 / ref2));
  }
  const double chol_seconds = t_chol.seconds();

  std::printf("Cholesky + solve    : %7.3f s total\n", chol_seconds);
  std::printf("max ||x - x_true|| / ||x_true|| = %.3e  (noise %.0e)\n", worst_rel, noise);

  // With modest noise the recovery error should be of the noise's order.
  if (worst_rel > std::max(1e-6, 100 * noise)) {
    std::printf("FAILED: recovery error unexpectedly large\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
