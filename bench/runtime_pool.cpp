// Runtime A/B: warm persistent pool vs per-call fork-join on repeated
// AtA-S calls.
//
// The serving workload the ROADMAP targets is "the same Gram matrix shape,
// over and over": per-call thread creation and per-task workspace mallocs
// are pure overhead there. This bench runs the identical cached AtA-S plan
// through the library's ThreadPool (api::execute) and through the
// fork-join comparator defined below, and reports per-call latency plus
// the pool's workspace-growth counters — after the warm-up call the pool
// must perform zero slab allocations (the "no malloc on the steady-state
// hot path" acceptance check prints at the bottom).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "api/execute.hpp"
#include "api/plan_cache.hpp"
#include "bench_common.hpp"
#include "matrix/matrix.hpp"
#include "parallel/ata_shared.hpp"
#include "runtime/thread_pool.hpp"

#ifdef ATALIB_HAVE_OPENMP
#include <omp.h>
#endif

namespace {

using namespace atalib;

#ifdef ATALIB_HAVE_OPENMP
constexpr const char* kForkJoinName = "forkjoin-omp";
#else
constexpr const char* kForkJoinName = "forkjoin-serial";
#endif

/// The paper's original execution scheme: fork min(P, tasks) threads, run
/// the plan's tasks as a static parallel for, join. Nothing survives
/// between calls except one workspace per thread (`slots`), kept so the
/// A/B isolates thread management rather than allocator behavior. OpenMP
/// when compiled in, a serial loop otherwise.
void run_forkjoin(const api::AtaPlan& plan, ConstMatrixView<double> a, MatrixView<double> c,
                  std::vector<runtime::Workspace>& slots) {
  api::check_shared(plan, a, c);
  const int ntasks = static_cast<int>(plan.schedule().tasks.size());
  auto task = [&](int t, runtime::TaskContext& ctx) {
    api::run_plan_task(plan, t, 1.0, a, c, ctx);
  };
#ifdef ATALIB_HAVE_OPENMP
  const int nthreads = std::min({static_cast<int>(slots.size()), ntasks, plan.key().p});
#pragma omp parallel num_threads(nthreads) if (nthreads > 1)
  {
    const int slot = omp_get_thread_num();
    runtime::TaskContext ctx{slot, &slots[static_cast<std::size_t>(slot)]};
#pragma omp for schedule(static)
    for (int t = 0; t < ntasks; ++t) task(t, ctx);
  }
#else
  runtime::TaskContext ctx{0, &slots[0]};
  for (int t = 0; t < ntasks; ++t) task(t, ctx);
#endif
}

std::size_t pool_grows(runtime::ThreadPool& pool) {
  std::size_t total = 0;
  for (int s = 0; s < pool.concurrency(); ++s) total += pool.workspace(s).grow_count();
  return total;
}

struct Result {
  double mean_ms = 0;
  double min_ms = 0;
};

template <typename Fn>
Result time_calls(Fn&& call, int calls) {
  Result r;
  double total = 0, best = 1e300;
  for (int i = 0; i < calls; ++i) {
    Timer t;
    call();
    const double s = t.seconds();
    total += s;
    best = std::min(best, s);
  }
  r.mean_ms = total / calls * 1e3;
  r.min_ms = best * 1e3;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  bench::add_common_flags(flags);
  flags.add_int("threads", 4, "AtA-S P (task-tree width)");
  flags.add_int("oversub", 4, "task over-decomposition factor (P' = oversub * P)");
  flags.add_int("calls", 20, "repeated AtA-S calls per engine");
  flags.add_bool("strict-latency", false,
                 "also fail (exit 1) when the warm pool loses the latency A/B; off by "
                 "default because wall-clock comparisons flake on shared/1-core hosts");
  if (!flags.parse(argc, argv)) return 1;
  const double scale = flags.get_double("scale");
  const int threads = static_cast<int>(flags.get_int("threads"));
  const int oversub = static_cast<int>(flags.get_int("oversub"));
  const int calls = std::max(1, static_cast<int>(flags.get_int("calls")));

  bench::print_banner("Persistent work-stealing pool vs fork-join on repeated AtA-S",
                      "runtime A/B (post-paper engineering; not a paper figure)");

  const index_t m = bench::scaled(640, scale);
  const index_t n = bench::scaled(512, scale);
  const auto a = random_uniform<double>(m, n, 321);
  auto c = Matrix<double>::zeros(n, n);

  SharedOptions opts;
  opts.threads = threads;
  opts.oversub = oversub;
  opts.recurse = bench::recurse_from_flags(flags);
  opts.engine = LeafEngine::kStrassen;  // the paper's AtA-S leaves
  validate(opts);

  runtime::ThreadPool pool(threads);
  std::vector<runtime::Workspace> forkjoin_slots(static_cast<std::size_t>(std::max(1, threads)));

  // Both engines fetch the plan from the process-wide cache on every call
  // (as ata_shared does), so the A/B differs only in who runs the tasks.
  auto fetch_plan = [&] {
    return api::PlanCache::global().get_or_build(
        api::shared_plan_key(api::Dtype::kF64, m, n, opts));
  };
  auto call_pool = [&] {
    fill_view(c.view(), 0.0);
    api::execute(*fetch_plan(), 1.0, a.const_view(), c.view(), &pool);
  };
  auto call_forkjoin = [&] {
    fill_view(c.view(), 0.0);
    run_forkjoin(*fetch_plan(), a.const_view(), c.view(), forkjoin_slots);
  };

  // Warm both engines once (first pool call grows the worker arenas).
  call_pool();
  call_forkjoin();
  const std::size_t grows_warm = pool_grows(pool);

  const Result rp = time_calls(call_pool, calls);
  const std::size_t grows_steady = pool_grows(pool) - grows_warm;
  const Result rf = time_calls(call_forkjoin, calls);

  const metrics::NumaPoolStats numa = pool.numa_stats();

  Table table("Repeated AtA-S, " + std::to_string(m) + "x" + std::to_string(n) + ", P=" +
              std::to_string(threads) + ", P'=" + std::to_string(threads * oversub) + ", " +
              std::to_string(calls) + " calls");
  table.set_header({"engine", "mean ms/call", "min ms/call", "steals (local/remote)",
                    "arena grows (steady)"});
  table.add_row({"pool", Table::num(rp.mean_ms, 3), Table::num(rp.min_ms, 3),
                 std::to_string(numa.local_steals) + "/" + std::to_string(numa.remote_steals),
                 std::to_string(grows_steady)});
  table.add_row({kForkJoinName, Table::num(rf.mean_ms, 3), Table::num(rf.min_ms, 3), "-",
                 "-"});
  table.print();
  std::printf("pool topology: %s\n", numa.to_string().c_str());

  bench::JsonWriter json(flags.get_string("json"));
  for (const auto& [engine, res] : {std::pair<const char*, const Result*>{"pool", &rp},
                                    {"forkjoin", &rf}}) {
    bench::JsonWriter::Record rec;
    rec.str("engine", engine)
        .num("m", static_cast<std::uint64_t>(m))
        .num("n", static_cast<std::uint64_t>(n))
        .num("threads", threads)
        .num("oversub", oversub)
        .num("calls", calls)
        .num("mean_ms", res->mean_ms)
        .num("min_ms", res->min_ms)
        .num("calls_per_s", res->mean_ms > 0 ? 1e3 / res->mean_ms : 0.0);
    if (std::string(engine) == "pool") {
      rec.num("numa_nodes", numa.nodes)
          .num("fake_topology", numa.fake_topology ? 1 : 0)
          .num("local_steals", numa.local_steals)
          .num("remote_steals", numa.remote_steals)
          .num("steal_locality", numa.steal_locality())
          .num("scheduled_imbalance", numa.scheduled_imbalance())
          .num("grows_steady", static_cast<std::uint64_t>(grows_steady));
    }
    json.add(rec);
  }

  const bool latency_ok = rp.min_ms <= rf.min_ms * 1.05;  // 5% noise floor
  std::printf("check: steady-state arena grows = %zu (want 0: no workspace malloc when warm)\n",
              grows_steady);
  std::printf("check: warm-pool min latency %s fork-join (%.3f ms vs %.3f ms)\n",
              latency_ok ? "<=" : "EXCEEDS", rp.min_ms, rf.min_ms);
  if (grows_steady != 0) return 1;
  if (flags.get_bool("strict-latency") && !latency_ok) return 1;
  return json.flush() ? 0 : 1;
}
