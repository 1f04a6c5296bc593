// Ablation — Algorithm 1's base-case condition ("if m x n <= cache size").
//
// Sweeps the recursion cut-off threshold and shows the U-shape the paper's
// choice sits in: tiny thresholds drown in recursion overhead and BLAS-1
// block sums; huge thresholds degenerate AtA into one syrk call and forfeit
// the Strassen savings. The cache-probed default is what base_case_elements
// = 0 runs with when no tuning-cache entry names another (DESIGN.md §6).

#include <cstdio>
#include <vector>

#include "ata/ata.hpp"
#include "bench_common.hpp"
#include "common/cacheinfo.hpp"
#include "metrics/flops.hpp"

int main(int argc, char** argv) {
  using namespace atalib;

  CliFlags flags;
  bench::add_common_flags(flags);
  flags.add_int("n", 1024, "square matrix size");
  if (!flags.parse(argc, argv)) return 1;
  const double scale = flags.get_double("scale");
  const index_t n = bench::scaled(flags.get_int("n"), scale);
  bench::JsonWriter json(flags.get_string("json"));

  bench::print_banner("AtA base-case threshold sweep", "§3.1 / Algorithm 1 line 2");

  const auto a = random_uniform<double>(n, n, 1000);
  auto c = Matrix<double>::zeros(n, n);
  const index_t probed = static_cast<index_t>(default_base_case_elements(sizeof(double)));

  Table table("Base-case threshold vs AtA runtime (n = " + std::to_string(n) + ")");
  table.set_header({"threshold (elems)", "vs cache-probed", "time (s)", "EG (r=1)",
                    "probed/this", "interval"});

  std::vector<index_t> thresholds{index_t(1) << 8,  index_t(1) << 10, index_t(1) << 12,
                                  index_t(1) << 14, probed,           index_t(1) << 18,
                                  index_t(1) << 20, index_t(1) << 24};

  const auto run = [&](const RecurseOptions& recurse) {
    fill_view(c.view(), 0.0);
    ata(1.0, a.const_view(), c.view(), recurse);
  };
  RecurseOptions probed_opts;
  probed_opts.base_case_elements = probed;
  for (index_t threshold : thresholds) {
    RecurseOptions recurse;
    recurse.base_case_elements = threshold;
    const bench::Paired p =
        bench::time_pair([&] { run(recurse); }, [&] { run(probed_opts); });
    std::string label = threshold == probed
                            ? "probed default"
                            : Table::num(static_cast<double>(threshold) /
                                             static_cast<double>(probed),
                                         3);
    const double eg = metrics::effective_gflops(1.0, n, n, n, p.a);
    table.add_row({std::to_string(threshold), label, Table::num(p.a), Table::num(eg, 2),
                   Table::num(p.median, 3), bench::interval_cell(p)});

    bench::JsonWriter::Record rec;
    rec.str("bench", "ablation_basecase")
        .str("dtype", "f64")
        .num("n", static_cast<std::uint64_t>(n))
        .num("threshold", static_cast<std::uint64_t>(threshold))
        .str("label", threshold == probed ? "probed" : "swept")
        .paired(p)
        .num("seconds", p.a)
        .num("eff_gflops", eg);
    json.add(rec);
  }
  table.print();
  std::printf("shape check: runtime is U-shaped in the threshold; the probed default\n"
              "(%ld elements) should be at or near the minimum (probed/this <= ~1).\n",
              static_cast<long>(probed));
  return json.flush() ? 0 : 1;
}
