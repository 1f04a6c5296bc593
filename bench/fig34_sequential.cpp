// Figures 3 and 4 — the paper's headline comparison, sequential, double
// precision: AtA vs ?syrk on C = A^T A (Fig. 3) and FastStrassen vs ?gemm
// on C = A^T B (Fig. 4), over growing square n.
//
// Paper setup: n = 2.5K..25K against Intel MKL. Here both sides of a
// figure bottom out in the same blocked leaf kernels, so the ratio compares
// algorithms, not BLAS vendors. Each row pairs the paper's algorithm (A)
// with its cubic baseline (B) in bench::kPairs ABBA pairs of samples. The
// ratio is the baseline's time over the paper's: the paper's claim holds at
// n when the ratio's sign-test interval lies above 1, and its shape when the
// ratio grows with n. Pin the process to one core (taskset -c) for
// BENCH_paper.json. The pre-allocation claim of §3.3 is ablation_workspace's.

#include <cstdio>

#include "ata/ata.hpp"
#include "bench_common.hpp"
#include "blas/gemm.hpp"
#include "blas/syrk.hpp"
#include "metrics/flops.hpp"
#include "strassen/strassen.hpp"
#include "strassen/workspace.hpp"

namespace {

using namespace atalib;

/// Recursion levels on a square n along the deepest (ceil-halved) branch:
/// AtA's base case (Algorithm 1) or FastStrassen's (Algorithm 2).
int depth(index_t n, bool gemm_type, index_t cutoff, index_t min_dim) {
  int levels = 0;
  while (!(gemm_type ? gemm_base_case(n, n, n, cutoff, min_dim)
                     : ata_base_case(n, n, cutoff, min_dim))) {
    n = (n + 1) / 2;
    ++levels;
  }
  return levels;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  bench::add_common_flags(flags);
  if (!flags.parse(argc, argv)) return 1;
  const double scale = flags.get_double("scale");
  const RecurseOptions recurse = bench::recurse_from_flags(flags);
  const index_t cutoff = recurse.resolved_base_elements(sizeof(double));
  bench::JsonWriter json(flags.get_string("json"));

  bench::print_banner("Sequential AtA vs syrk and FastStrassen vs gemm (double)",
                      "Figures 3 and 4 (a) + (b)");

  Table fig3("Fig. 3: AtA vs syrk, C = A^T A (r = 1), cut-off " + std::to_string(cutoff));
  Table fig4("Fig. 4: Strassen vs gemm, C = A^T B (r = 2), cut-off " + std::to_string(cutoff));
  for (Table* t : {&fig3, &fig4}) {
    t->set_header({"n", "depth", "paper (s)", "baseline (s)", "paper EG", "baseline EG",
                   "baseline/paper", "interval", "paper wins"});
  }

  const auto report = [&](Table& table, const char* figure, const char* algorithm,
                          const char* baseline, double r, index_t n, int levels,
                          const bench::Paired& p) {
    const double eg = metrics::effective_gflops(r, n, n, n, p.a);
    const double eg_base = metrics::effective_gflops(r, n, n, n, p.b);
    const char* wins = p.lo > 1 ? "yes" : p.hi < 1 ? "no" : "unresolved";
    table.add_row({std::to_string(n), std::to_string(levels), Table::num(p.a),
                   Table::num(p.b), Table::num(eg, 2), Table::num(eg_base, 2),
                   Table::num(p.median, 3), bench::interval_cell(p), wins});
    bench::JsonWriter::Record rec;
    rec.str("figure", figure)
        .str("algorithm", algorithm)
        .str("baseline", baseline)
        .str("dtype", "f64")
        .num("n", static_cast<std::uint64_t>(n))
        .num("cutoff", static_cast<std::uint64_t>(cutoff))
        .num("depth", levels)
        .paired(p)
        .str("paper_wins", wins)
        .num("seconds", p.a)
        .num("baseline_seconds", p.b)
        .num("eff_gflops", eg)
        .num("baseline_eff_gflops", eg_base);
    json.add(rec);
  };

  for (index_t base : {512, 768, 1024, 1536, 2048, 3072, 4096}) {
    const index_t n = bench::scaled(base, scale);
    const auto a = random_uniform<double>(n, n, 200 + n);
    const auto b = random_uniform<double>(n, n, 300 + n);
    auto c = Matrix<double>::zeros(n, n);

    report(fig3, "fig3", "ata", "syrk", 1.0, n, depth(n, false, cutoff, recurse.min_dim),
           bench::time_pair(
               [&] {
                 fill_view(c.view(), 0.0);
                 ata(1.0, a.const_view(), c.view(), recurse);
               },
               [&] {
                 fill_view(c.view(), 0.0);
                 blas::syrk_ln(1.0, a.const_view(), c.view());
               }));
    report(fig4, "fig4", "strassen", "gemm", 2.0, n, depth(n, true, cutoff, recurse.min_dim),
           bench::time_pair(
               [&] {
                 fill_view(c.view(), 0.0);
                 fast_strassen(1.0, a.const_view(), b.const_view(), c.view(), recurse);
               },
               [&] {
                 fill_view(c.view(), 0.0);
                 blas::gemm_tn(1.0, a.const_view(), b.const_view(), c.view());
               }));
  }
  fig3.print();
  fig4.print();
  std::printf("shape check: baseline/paper should cross 1 and keep growing with n\n"
              "(the recursions pay their block sums on small n and win on large n).\n");
  return json.flush() ? 0 : 1;
}
