// Figure 5 — shared-memory AtA-S vs multi-threaded ssyrk (single
// precision): elapsed time and effective GFLOPs vs core count P on three
// fixed shapes (two square, one tall).
//
// Paper setup: 30K^2, 40K^2 and 60Kx5K on a 16-core node vs MKL ssyrk.
// Here: scaled shapes, both methods on the same blocked kernels. This host
// may have fewer cores than P, so the headline column is the *critical
// path*: each task of the (synchronization-free) schedule is run serially
// and timed, and the max task time is what a >= P-core node would observe.
// The ssyrk baseline's critical path is its serial time / P (its stripes
// are equal-area by construction). The staircase of the AtA-S column vs
// the smooth 1/P of the baseline is the paper's Fig. 5 signature.

#include <cstdio>

#include "bench_common.hpp"
#include "blas/syrk.hpp"
#include "metrics/flops.hpp"
#include "parallel/ata_shared.hpp"
#include "sched/levels.hpp"

namespace {

using namespace atalib;

void run_shape(const char* label, index_t m, index_t n, const RecurseOptions& recurse) {
  const auto a = random_uniform<float>(m, n, 500);
  auto c = Matrix<float>::zeros(n, n);

  // Serial baseline time once per shape.
  const double t_syrk_serial = bench::seconds_per_call([&] {
    fill_view(c.view(), 0.0f);
    blas::syrk_ln(1.0f, a.const_view(), c.view());
  });

  Table table(std::string("Fig. 5 ") + label + ": AtA-S vs parallel ssyrk (r = 1)");
  table.set_header({"P", "AtA-S crit (s)", "ssyrk crit (s)", "AtA-S EG", "ssyrk EG",
                    "l(P) eq.(6)", "work 1/4^l"});

  for (int p : {1, 2, 4, 6, 8, 10, 12, 14, 16}) {
    SharedOptions opts;
    opts.threads = p;
    opts.recurse = recurse;
    opts.engine = LeafEngine::kStrassen;  // the paper's AtA-S leaves
    double crit = 1e300;  // the shortest over one sample's profiles
    bench::timed_sample([&] {
      fill_view(c.view(), 0.0f);
      const auto profile = ata_shared_profile(1.0f, a.const_view(), c.view(), opts);
      crit = std::min(crit, profile.critical_path_seconds);
    });
    const double t_syrk = t_syrk_serial / p;

    table.add_row({std::to_string(p), Table::num(crit, 4), Table::num(t_syrk, 4),
                   Table::num(metrics::effective_gflops(1.0, m, n, n, crit), 2),
                   Table::num(metrics::effective_gflops(1.0, m, n, n, t_syrk), 2),
                   std::to_string(sched::paper_levels_shared(p)),
                   Table::num(sched::shared_work_fraction(p), 4)});
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  bench::add_common_flags(flags);
  if (!flags.parse(argc, argv)) return 1;
  const double scale = flags.get_double("scale");
  const RecurseOptions recurse = bench::recurse_from_flags(flags);

  bench::print_banner("Shared-memory AtA-S vs parallel ssyrk (single precision)",
                      "Figure 5 (a)-(f)");

  // Paper shapes 30Kx30K, 40Kx40K, 60Kx5K, scaled ~1/32 by default.
  run_shape("(a,b) square", bench::scaled(960, scale), bench::scaled(960, scale), recurse);
  run_shape("(c,d) square larger", bench::scaled(1280, scale), bench::scaled(1280, scale),
            recurse);
  run_shape("(e,f) tall", bench::scaled(1920, scale), bench::scaled(160, scale), recurse);

  std::printf("shape check: AtA-S critical path drops ~4x at each complete parallel level\n"
              "and plateaus inside one (eq. (8) staircase); ssyrk falls smoothly as 1/P.\n"
              "AtA-S should win clearly at small-to-mid P, as in the paper's P <= 10 regime.\n");
  return 0;
}
