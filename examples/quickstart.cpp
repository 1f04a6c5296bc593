// Quickstart: compute C = A^T A three ways (serial AtA, multi-threaded
// AtA-S, simulated-distributed AtA-D) and verify they agree.
//
//   ./quickstart [--m 1200] [--n 800] [--threads 4] [--procs 8]

#include <cstdio>
#include <iostream>

#include "ata/ata.hpp"
#include "common/cli.hpp"
#include "common/timer.hpp"
#include "dist/ata_dist.hpp"
#include "matrix/compare.hpp"
#include "matrix/generate.hpp"
#include "matrix/io.hpp"
#include "matrix/packed.hpp"
#include "parallel/ata_shared.hpp"

int main(int argc, char** argv) {
  using namespace atalib;

  CliFlags flags;
  flags.add_int("m", 1200, "rows of A");
  flags.add_int("n", 800, "columns of A (C is n x n)");
  flags.add_int("threads", 4, "threads for AtA-S");
  flags.add_int("procs", 8, "simulated distributed processes for AtA-D");
  if (!flags.parse(argc, argv)) return 1;

  const index_t m = flags.get_int("m");
  const index_t n = flags.get_int("n");

  std::printf("Generating a %ld x %ld random matrix A...\n", m, n);
  const auto a = random_gaussian<double>(m, n, /*seed=*/2024);

  // --- Serial AtA (Algorithm 1): lower(C) += A^T A.
  auto c_serial = Matrix<double>::zeros(n, n);
  Timer t1;
  ata(1.0, a.const_view(), c_serial.view());
  std::printf("serial AtA            : %8.3f s\n", t1.seconds());

  // --- Shared-memory AtA-S (Algorithm 3).
  auto c_shared = Matrix<double>::zeros(n, n);
  SharedOptions sopts;
  sopts.threads = static_cast<int>(flags.get_int("threads"));
  sopts.engine = LeafEngine::kStrassen;  // the paper's AtA-S leaves
  Timer t2;
  ata_shared(1.0, a.const_view(), c_shared.view(), sopts);
  std::printf("AtA-S (%2d threads)    : %8.3f s\n", sopts.threads, t2.seconds());

  // --- Distributed AtA-D (Algorithm 4) on the in-process message runtime.
  dist::DistOptions dopts;
  dopts.procs = static_cast<int>(flags.get_int("procs"));
  const auto result = dist::ata_dist(1.0, a, dopts);
  std::printf("AtA-D (%2d processes)  : %8.3f s   (%llu messages, %llu words moved)\n",
              dopts.procs, result.seconds,
              static_cast<unsigned long long>(result.traffic.total_messages()),
              static_cast<unsigned long long>(result.traffic.total_words()));

  // --- All three must agree on the lower triangle.
  const double e1 =
      max_abs_diff_lower<double>(c_shared.const_view(), c_serial.const_view());
  const double e2 = max_abs_diff_lower<double>(result.c.const_view(), c_serial.const_view());
  std::printf("max |AtA-S - AtA| = %.2e, max |AtA-D - AtA| = %.2e\n", e1, e2);

  // AtA fills only lower(C); symmetrize to hand downstream code a full
  // matrix.
  symmetrize_from_lower(c_serial.view());
  std::printf("C (top-left corner):\n");
  print_matrix(std::cout, ConstMatrixView<double>(c_serial.block(0, 0, 4, 4)), 3);

  const double tol = mm_tolerance<double>(m, 256.0);
  if (e1 > tol || e2 > tol) {
    std::printf("FAILED: engines disagree beyond tolerance %.2e\n", tol);
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
