// Table 1 — shared memory (16 cores) vs distributed memory (96 cores) on
// large square matrices, with the speed-up T_SM / T_DM.
//
// Paper setup: AtA-S on one 16-core node vs AtA-D over 6 nodes x 16 cores,
// n = 30K..60K; DM times include communication. Here both sides report
// their measured *critical path* (busiest thread / rank compute time), so
// the speed-up column is directly comparable to the paper's T_SM / T_DM;
// the work-model columns give the same trend analytically.

#include <cstdio>

#include "bench_common.hpp"
#include "dist/ata_dist.hpp"
#include "metrics/flops.hpp"
#include "parallel/ata_shared.hpp"
#include "sched/shared_schedule.hpp"

int main(int argc, char** argv) {
  using namespace atalib;

  CliFlags flags;
  bench::add_common_flags(flags);
  flags.add_int("sm-threads", 16, "shared-memory thread count (paper: 16)");
  flags.add_int("dm-procs", 96, "distributed process count (paper: 96)");
  if (!flags.parse(argc, argv)) return 1;
  const double scale = flags.get_double("scale");
  const RecurseOptions recurse = bench::recurse_from_flags(flags);
  const int sm_threads = static_cast<int>(flags.get_int("sm-threads"));
  const int dm_procs = static_cast<int>(flags.get_int("dm-procs"));

  bench::print_banner("Shared (AtA-S) vs distributed (AtA-D) on large square matrices",
                      "Table 1");

  Table table("Table 1: SM vs DM (wall seconds here are 1-core totals; see header comment)");
  table.set_header({"n", "SM crit (s)", "DM crit (s)", "speed-up", "SM maxwork", "DM maxwork",
                    "work speed-up", "DM words"});

  for (index_t base : {480, 640, 800, 960}) {
    const index_t n = bench::scaled(base, scale);
    const auto a = random_uniform<double>(n, n, 700 + n);

    auto c = Matrix<double>::zeros(n, n);
    SharedOptions sopts;
    sopts.threads = sm_threads;
    sopts.recurse = recurse;
    sopts.engine = LeafEngine::kStrassen;  // the paper's AtA-S leaves
    const auto sm_profile = ata_shared_profile(1.0, a.const_view(), c.view(), sopts);
    const double sm_seconds = sm_profile.critical_path_seconds;

    dist::DistOptions dopts;
    dopts.procs = dm_procs;
    dopts.recurse = recurse;
    const auto dm = dist::ata_dist(1.0, a, dopts);

    const auto sm_sched = sched::build_shared_schedule(n, n, sm_threads);
    double sm_maxwork = 0;
    for (const auto& task : sm_sched.tasks) {
      double w = 0;
      for (const auto& op : task.ops) w += op.flops();
      sm_maxwork = std::max(sm_maxwork, w);
    }

    const double dm_seconds = dm.critical_path_seconds();
    table.add_row({std::to_string(n), Table::num(sm_seconds, 4), Table::num(dm_seconds, 4),
                   Table::num(sm_seconds / dm_seconds, 2), Table::num(sm_maxwork / 1e6, 1) + "M",
                   Table::num(dm.max_leaf_flops / 1e6, 1) + "M",
                   Table::num(sm_maxwork / dm.max_leaf_flops, 2),
                   std::to_string(dm.traffic.total_words())});
  }
  table.print();
  std::printf(
      "shape check: paper Table 1 shows T_SM/T_DM growing with n (2.13 -> 6.69) because\n"
      "DM's O(n^2) communication is amortized by O(n^2.8/P) compute as n grows. The\n"
      "work speed-up column (SM maxwork / DM maxwork = 4^(l_D - l_S)) is the pure-compute\n"
      "ceiling of that ratio; the measured speed-up climbs toward it as n grows. At the\n"
      "default laptop scale the DM root's quadratic pack/sum work still dominates, so\n"
      "expect speed-up < 1 here and the upward trend to emerge at --scale >= 4.\n");
  return 0;
}
