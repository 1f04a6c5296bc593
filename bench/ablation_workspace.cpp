// Ablation — §3.3's pre-allocation claim: "Strassen's algorithm benefits
// from the described strategy for memory allocation."
//
// Compares FastStrassen (one arena, zero allocations inside the recursion)
// against the per-level-allocating variant, and reports the arena's actual
// high-water mark against the analytic workspace bound and the paper's
// 3/2 n^2 space model.

#include <cstdio>

#include "bench_common.hpp"
#include "common/arena.hpp"
#include "metrics/models.hpp"
#include "strassen/naive_strassen.hpp"
#include "strassen/strassen.hpp"
#include "strassen/workspace.hpp"

int main(int argc, char** argv) {
  using namespace atalib;

  CliFlags flags;
  bench::add_common_flags(flags);
  if (!flags.parse(argc, argv)) return 1;
  const double scale = flags.get_double("scale");
  RecurseOptions recurse = bench::recurse_from_flags(flags);
  // Force deep recursion so allocation traffic is visible even at scaled
  // sizes (with cache-sized base cases only 2-3 levels recurse).
  if (recurse.base_case_elements == 0) recurse.base_case_elements = 64 * 64;

  bench::print_banner("Strassen workspace strategy: arena vs per-level allocation", "§3.3");

  Table table("Arena pre-allocation ablation (C += A^T B, double)");
  table.set_header({"n", "arena (s)", "malloc (s)", "malloc/arena", "interval", "ws high-water",
                    "ws bound", "bound/n^2"});

  for (index_t base : {256, 384, 512, 768, 1024}) {
    const index_t n = bench::scaled(base, scale);
    const auto a = random_uniform<double>(n, n, 800 + n);
    const auto b = random_uniform<double>(n, n, 900 + n);
    auto c = Matrix<double>::zeros(n, n);

    const index_t bound = strassen_workspace_bound(n, n, n, recurse, sizeof(double));
    Arena<double> arena(static_cast<std::size_t>(bound));
    const bench::Paired p = bench::time_pair(
        [&] {
          fill_view(c.view(), 0.0);
          strassen_tn(1.0, a.const_view(), b.const_view(), c.view(), arena, recurse);
        },
        [&] {
          fill_view(c.view(), 0.0);
          naive_strassen_tn(1.0, a.const_view(), b.const_view(), c.view(), recurse);
        });

    table.add_row({std::to_string(n), Table::num(p.a), Table::num(p.b), Table::num(p.median, 3),
                   bench::interval_cell(p),
                   std::to_string(arena.high_water()),
                   std::to_string(bound),
                   Table::num(static_cast<double>(bound) / (static_cast<double>(n) * n), 3)});
  }
  table.print();
  std::printf("shape check: malloc/arena >= 1 (pre-allocation never loses), and the\n"
              "workspace bound stays near n^2 (paper model: 3 buffers of n^2/2 = 3/2 n^2\n"
              "counting all three of M, P, Q at their top-level size).\n");
  return 0;
}
