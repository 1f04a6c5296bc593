// Serving throughput through the cached-plan front-end (api::Server).
//
// The ROADMAP's serving workload is "the same Gram matrix shapes, over and
// over, from many clients". This bench measures what the plan/execute
// split buys there: cold requests pay schedule building + workspace growth
// once per shape; warm requests are a plan-cache hit plus a queued pool
// batch — zero replanning, zero slab allocation. Three phases:
//   cold   — first request per shape on a fresh Server (plan build in path)
//   warm   — single client, closed loop over cached shapes
//   scale  — C client threads, closed loop each, C in {1, 2, 4, ...}
// Each phase reports requests/sec and per-request latency; --json appends
// BENCH_serve.json records for the perf trajectory.
//
// Every rate tools/perf_gate.py gates comes from a sample of at least
// bench::kMinSampleSeconds: the phase's pass of `requests` (or `reps`)
// requests repeats until that much time has passed (`seconds`). The warm
// rate is the median round (one request per shape) of 3 s of passes.
//
// A further phase exercises PR 8's batched small-Gram serving
// (DESIGN.md §8):
//   batched — submit_batch over a sweep of small shapes (m = 8n), f32 and
//             f64, batch sizes 1/16/256; the warm batched stream must show
//             ZERO schedule builds, ZERO workspace slab allocations, ZERO
//             thread-local pack allocations and ZERO plan-cache misses
//             (hard-checked; nonzero exit).
//
// A final phase exercises PR 10's overload control (DESIGN.md §10):
//   overload — clients = 4x the pool slots against a bounded-admission
//              server (kReject and kShedOldest), mixed priorities, every
//              third request under a tight deadline; reports reject/shed/
//              deadline counts and the p99 of each latency phase from
//              Server::stats(). The warm stream under saturation must
//              still be setup-free (hard-checked; nonzero exit).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/batch.hpp"
#include "api/server.hpp"
#include "ata/ata.hpp"
#include "bench_common.hpp"
#include "blas/kernels/pack.hpp"
#include "matrix/compare.hpp"
#include "matrix/generate.hpp"
#include "matrix/matrix.hpp"
#include "sched/dist_tree.hpp"
#include "sched/shared_schedule.hpp"

namespace {

using namespace atalib;

struct Shape {
  index_t m, n;
};

std::uint64_t total_schedule_builds() {
  return sched::shared_schedule_builds() + sched::dist_tree_builds();
}

std::size_t pool_slab_grows(runtime::ThreadPool& pool) {
  std::size_t total = 0;
  for (int s = 0; s < pool.concurrency(); ++s) total += pool.workspace(s).grow_count();
  return total;
}

/// One batched-serving configuration: stream `nreq` requests of one shape
/// through submit_batch in slices of `bsize`. Inputs AND outputs cycle
/// over the whole stream (not per batch), so every batch size pays the
/// same output-matrix traffic pattern — a serving stream writes distinct
/// client outputs whether or not requests were fused.
template <typename T>
void run_batched_stream(api::Server& server, const std::vector<Matrix<T>>& inputs,
                        std::vector<Matrix<T>>& outputs, int nreq, int bsize) {
  std::vector<api::AtaRequest<T>> batch;
  batch.reserve(static_cast<std::size_t>(bsize));
  int done = 0;
  while (done < nreq) {
    const int take = std::min(bsize, nreq - done);
    batch.clear();
    for (int i = 0; i < take; ++i) {
      batch.push_back({T(1),
                       inputs[static_cast<std::size_t>((done + i) % inputs.size())].const_view(),
                       outputs[static_cast<std::size_t>((done + i) % outputs.size())].view()});
    }
    for (auto& f : server.submit_batch<T>(batch)) f.get();
    done += take;
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  bench::add_common_flags(flags);
  flags.add_int("threads", 4, "server pool slots");
  flags.add_int("requests", 32, "warm requests per client per shape sweep");
  flags.add_int("max-clients", 4, "concurrent-client scaling sweeps 1,2,..,max");
  flags.add_int("batch-requests", 4096, "requests per batched small-Gram configuration");
  if (!flags.parse(argc, argv)) return 1;
  const double scale = flags.get_double("scale");
  const int threads = std::max(1, static_cast<int>(flags.get_int("threads")));
  const int requests = std::max(1, static_cast<int>(flags.get_int("requests")));
  const int max_clients = std::max(1, static_cast<int>(flags.get_int("max-clients")));
  const int batch_requests = std::max(1, static_cast<int>(flags.get_int("batch-requests")));
  bench::JsonWriter json(flags.get_string("json"));

  bench::print_banner("Cached-plan serving throughput (api::Server)",
                      "serving front-end (post-paper engineering; not a paper figure)");

  const Shape shapes[] = {{bench::scaled(512, scale), bench::scaled(384, scale)},
                          {bench::scaled(384, scale), bench::scaled(320, scale)}};
  constexpr int kShapes = static_cast<int>(sizeof(shapes) / sizeof(shapes[0]));

  SharedOptions sopts;
  sopts.threads = threads;
  sopts.oversub = 2;
  sopts.recurse = bench::recurse_from_flags(flags);

  api::Server server(api::Server::Options{threads, 16});

  // Correctness spot check once, against the serial recursion. Integer
  // inputs: they make every summation order produce identical floats, so
  // the bitwise comparison checks data placement, not FP association —
  // the served schedule decomposes the product differently than the
  // serial recursion, which reassociates sums (harmlessly) on real data.
  {
    const auto a = random_integer<double>(shapes[0].m, shapes[0].n, 4, 11);
    auto c_ref = Matrix<double>::zeros(shapes[0].n, shapes[0].n);
    ata(1.0, a.const_view(), c_ref.view(), sopts.recurse);
    auto c = Matrix<double>::zeros(shapes[0].n, shapes[0].n);
    api::Server check_server(api::Server::Options{threads, 16});
    check_server.submit(1.0, a.const_view(), c.view(), sopts).get();
    const double diff = max_abs_diff_lower<double>(c.const_view(), c_ref.const_view());
    if (diff != 0.0) {
      std::fprintf(stderr, "error: served result differs from serial execution (%.3e)\n",
                   diff);
      return 1;
    }
  }

  std::vector<Matrix<double>> inputs;
  for (const auto& shape : shapes) {
    inputs.push_back(random_uniform<double>(shape.m, shape.n, 21));
  }

  Table table("Serving throughput, pool=" + std::to_string(threads) + " slots, " +
              std::to_string(kShapes) + " shapes, " + std::to_string(requests) +
              " reqs/client");
  table.set_header({"phase", "clients", "requests", "req/s", "mean ms/req", "cache hits",
                    "cache misses"});

  // `nreq` requests per pass; the sample took `seconds`.
  auto add_row = [&](const std::string& phase, int clients, int nreq, double rps,
                     double seconds) {
    const auto stats = server.plan_stats();
    const double mean_ms = 1e3 / rps;
    table.add_row({phase, std::to_string(clients), std::to_string(nreq),
                   Table::num(rps, 1), Table::num(mean_ms, 3),
                   std::to_string(stats.hits), std::to_string(stats.misses)});
    bench::JsonWriter::Record rec;
    rec.str("phase", phase)
        .num("clients", clients)
        .num("requests", nreq)
        .num("req_per_sec", rps)
        .num("mean_ms", mean_ms)
        .num("seconds", seconds)
        .num("cache_hits", stats.hits)
        .num("cache_misses", stats.misses)
        .num("pool_threads", threads);
    json.add(rec);
  };

  // --- Phase 1: cold — the first request per shape builds its plan.
  {
    Timer t;
    for (int s = 0; s < kShapes; ++s) {
      auto c = Matrix<double>::zeros(shapes[s].n, shapes[s].n);
      server.submit(1.0, inputs[static_cast<std::size_t>(s)].const_view(), c.view(), sopts)
          .get();
    }
    add_row("cold", 1, kShapes, kShapes / t.seconds(), t.seconds());
  }

  // --- Phase 2: warm single client — every request is a plan-cache hit.
  // On a shared host one 0.25 s sample of this ~1 ms/request stream moves
  // 2x between processes, and bursts of host load last a second or more.
  // The median round over kWarmSeconds is robust to them.
  {
    constexpr double kWarmSeconds = 3.0;
    auto c0 = Matrix<double>::zeros(shapes[0].n, shapes[0].n);
    auto c1 = Matrix<double>::zeros(shapes[1].n, shapes[1].n);
    MatrixView<double> outs[] = {c0.view(), c1.view()};
    std::vector<double> rounds;
    const Timer sample;
    while (sample.seconds() < kWarmSeconds) {
      for (int r = 0; r < requests; r += kShapes) {
        const Timer round;
        for (int s = 0; s < kShapes; ++s) {
          server
              .submit(1.0, inputs[static_cast<std::size_t>(s)].const_view(),
                      outs[static_cast<std::size_t>(s)], sopts)
              .get();
        }
        rounds.push_back(round.seconds());
      }
    }
    const auto mid = rounds.begin() + static_cast<std::ptrdiff_t>(rounds.size() / 2);
    std::nth_element(rounds.begin(), mid, rounds.end());
    add_row("warm", 1, requests, kShapes / *mid, sample.seconds());
  }

  // --- Phase 3: concurrent-client scaling, closed loop per client.
  for (int clients = 1; clients <= max_clients; clients *= 2) {
    const bench::Sample sample = bench::timed_sample([&] {
      std::vector<std::thread> workers;
      workers.reserve(static_cast<std::size_t>(clients));
      for (int cl = 0; cl < clients; ++cl) {
        workers.emplace_back([&, cl] {
          // Per-client outputs: in-flight requests must not share C.
          std::vector<Matrix<double>> outs;
          for (const auto& shape : shapes) {
            outs.push_back(Matrix<double>::zeros(shape.n, shape.n));
          }
          for (int r = 0; r < requests; ++r) {
            const std::size_t s = static_cast<std::size_t>((r + cl) % kShapes);
            server.submit(1.0, inputs[s].const_view(), outs[s].view(), sopts).get();
          }
        });
      }
      for (auto& w : workers) w.join();
    });
    add_row("scale", clients, clients * requests,
            static_cast<double>(clients * requests) * sample.passes / sample.seconds,
            sample.seconds);
  }

  table.print();

  // --- Phase 4: batched small-Gram serving (fresh server: its cache and
  // counters are accounted separately from the per-request phases).
  int batched_failures = 0;
  {
    api::Server bserver(api::Server::Options{threads, 64});
    const index_t ns[] = {bench::scaled(32, scale), bench::scaled(64, scale),
                          bench::scaled(128, scale), bench::scaled(256, scale)};
    const int batch_sizes[] = {1, 16, 256};
    constexpr int kInputs = 16;
    constexpr int kMaxBatch = 256;

    // Two request regimes per n, the two ends of small-Gram traffic:
    //   update — m = 4 rows (a streaming low-rank Gram/covariance update,
    //            the BFGS-style accumulation shape): the request is cheap
    //            enough that per-request round-trip overhead dominates,
    //            which is exactly what batching amortizes.
    //   gram   — m = 8n (a full small Gram product): compute-bound, where
    //            batching's win is pool utilization and the f32 rows show
    //            the SIMD-width speedup over f64.
    Table btable("Batched small-Gram serving (submit_batch), pool=" +
                 std::to_string(threads) + " slots");
    btable.set_header(
        {"regime", "dtype", "m", "n", "batch", "requests", "req/s", "mean us/req"});

    auto run_config = [&](auto tag, const char* dtype_name, const char* regime, index_t m,
                          index_t n) {
      using T = decltype(tag);
      {
        // Requests per configuration, scaled down for the bigger shapes so
        // the sweep's wall-clock stays balanced (work per request grows
        // with m * n^2); the JSON records the actual count.
        const index_t n0 = ns[0];
        const index_t shrink =
            std::max<index_t>((m / 4) * (n / n0) * (n / n0) / 64, index_t{1});
        const int nreq = std::max(
            kMaxBatch, static_cast<int>(static_cast<index_t>(batch_requests) / shrink));
        std::vector<Matrix<T>> inputs;
        for (int i = 0; i < kInputs; ++i) {
          inputs.push_back(random_uniform<T>(m, n, 100 + i));
        }
        std::vector<Matrix<T>> outputs;
        for (int i = 0; i < kMaxBatch; ++i) {
          outputs.push_back(Matrix<T>::zeros(n, n));
        }
        // Cold pass per shape: plan build + pool warm-up out of the timed
        // stream (also touches every output page).
        run_batched_stream<T>(bserver, inputs, outputs, kMaxBatch, kMaxBatch);

        // Warm batched streams: everything below must be setup-free.
        const std::uint64_t builds0 = total_schedule_builds();
        const std::size_t grows0 = pool_slab_grows(bserver.executor());
        const std::uint64_t packs0 = blas::kernels::thread_pack_allocs().load();
        const std::uint64_t misses0 = bserver.plan_stats().misses;
        for (const int bsize : batch_sizes) {
          const bench::Sample sample = bench::timed_sample(
              [&] { run_batched_stream<T>(bserver, inputs, outputs, nreq, bsize); });
          const double rps = static_cast<double>(nreq) * sample.passes / sample.seconds;
          btable.add_row({regime, dtype_name, std::to_string(m), std::to_string(n),
                          std::to_string(bsize), std::to_string(nreq), Table::num(rps, 1),
                          Table::num(1e6 / rps, 2)});
          bench::JsonWriter::Record rec;
          rec.str("phase", "batched")
              .str("regime", regime)
              .str("dtype", dtype_name)
              .num("m", static_cast<std::uint64_t>(m))
              .num("n", static_cast<std::uint64_t>(n))
              .num("batch", bsize)
              .num("requests", nreq)
              .num("req_per_sec", rps)
              .num("mean_us", 1e6 / rps)
              .num("seconds", sample.seconds)
              .num("pool_threads", threads);
          json.add(rec);
        }
        const std::uint64_t d_builds = total_schedule_builds() - builds0;
        const std::uint64_t d_grows = pool_slab_grows(bserver.executor()) - grows0;
        const std::uint64_t d_packs = blas::kernels::thread_pack_allocs().load() - packs0;
        const std::uint64_t d_misses = bserver.plan_stats().misses - misses0;
        bench::JsonWriter::Record rec;
        rec.str("phase", "batched_warm_counters")
            .str("regime", regime)
            .str("dtype", dtype_name)
            .num("n", static_cast<std::uint64_t>(n))
            .num("schedule_builds", d_builds)
            .num("workspace_grows", d_grows)
            .num("thread_pack_allocs", d_packs)
            .num("plan_misses", d_misses);
        json.add(rec);
        if (d_builds != 0 || d_grows != 0 || d_packs != 0 || d_misses != 0) {
          std::fprintf(stderr,
                       "error: warm batched stream (%s %s n=%lld) was not setup-free: "
                       "builds=%llu grows=%llu pack_allocs=%llu misses=%llu\n",
                       regime, dtype_name, static_cast<long long>(n),
                       static_cast<unsigned long long>(d_builds),
                       static_cast<unsigned long long>(d_grows),
                       static_cast<unsigned long long>(d_packs),
                       static_cast<unsigned long long>(d_misses));
          ++batched_failures;
        }
      }
    };
    for (const index_t n : ns) {
      run_config(double{}, "f64", "update", 4, n);
      run_config(float{}, "f32", "update", 4, n);
      run_config(double{}, "f64", "gram", 8 * n, n);
      run_config(float{}, "f32", "gram", 8 * n, n);
    }
    btable.print();
  }

  // --- Phase 5: overload — bounded admission under 4x-oversubscribed
  // clients, mixed priorities, tight deadlines. One row per policy.
  int overload_failures = 0;
  {
    Table otable("Overload control, clients = 4x pool slots, bounds = 2x slots");
    otable.set_header({"policy", "clients", "offered", "completed", "rejected", "shed",
                       "deadline", "req/s", "q-wait p99 us", "compute p99 us"});
    const auto run_policy = [&](const char* name, api::AdmissionPolicy policy) {
      api::Server::Options oopts;
      oopts.threads = threads;
      oopts.plan_capacity = 16;
      oopts.max_inflight_requests = static_cast<std::size_t>(threads) * 2;
      oopts.max_queued_batches = static_cast<std::size_t>(threads) * 2;
      oopts.admission = policy;
      api::Server oserver(oopts);
      const std::size_t si = 1;  // the smaller shape: fast request turnover
      {
        // Cold pass: plan build + workspace warm out of the measured loop.
        auto c = Matrix<double>::zeros(shapes[si].n, shapes[si].n);
        oserver.submit(1.0, inputs[si].const_view(), c.view(), sopts).get();
      }
      const std::uint64_t builds0 = total_schedule_builds();
      const std::size_t grows0 = pool_slab_grows(oserver.executor());
      // The cold request above is counted by the server too; measure the
      // saturated stream as deltas from here.
      const auto base = oserver.stats();

      const int oclients = 4 * threads;
      std::atomic<std::uint64_t> ok{0}, rejected{0}, expired{0};
      std::vector<std::thread> workers;
      workers.reserve(static_cast<std::size_t>(oclients));
      Timer t;
      for (int cl = 0; cl < oclients; ++cl) {
        workers.emplace_back([&, cl] {
          auto c = Matrix<double>::zeros(shapes[si].n, shapes[si].n);
          for (int r = 0; r < requests; ++r) {
            SharedOptions o = sopts;
            o.priority = cl % 3;  // mixed QoS classes compete at the pool
            if (r % 3 == 0) {
              o.deadline =
                  std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
            }
            std::future<void> fut;
            try {
              fut = oserver.submit(1.0, inputs[si].const_view(), c.view(), o);
            } catch (const api::OverloadError&) {
              rejected.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            try {
              fut.get();
              ok.fetch_add(1, std::memory_order_relaxed);
            } catch (const api::DeadlineExceeded&) {
              expired.fetch_add(1, std::memory_order_relaxed);
            }
          }
        });
      }
      for (auto& w : workers) w.join();
      const double secs = t.seconds();

      // Batch retirement is the last task-side touch and may lag the
      // future settle by a moment; the gauge check below wants quiescence.
      while (oserver.stats().queued_batches != 0) std::this_thread::yield();
      const auto os = oserver.stats();
      const std::uint64_t admitted = os.admitted - base.admitted;
      const std::uint64_t completed = os.completed - base.completed;
      const std::uint64_t d_rejected = os.rejected - base.rejected;
      const std::uint64_t d_shed = os.shed - base.shed;
      const std::uint64_t d_expired = os.deadline_expired - base.deadline_expired;
      const std::uint64_t offered =
          static_cast<std::uint64_t>(oclients) * static_cast<std::uint64_t>(requests);
      otable.add_row({name, std::to_string(oclients), std::to_string(offered),
                      std::to_string(completed), std::to_string(d_rejected),
                      std::to_string(d_shed), std::to_string(d_expired),
                      Table::num(static_cast<double>(completed) / secs, 1),
                      Table::num(static_cast<double>(os.queue_wait.p99_ns) / 1e3, 1),
                      Table::num(static_cast<double>(os.compute.p99_ns) / 1e3, 1)});
      bench::JsonWriter::Record rec;
      rec.str("phase", "overload")
          .str("policy", name)
          .num("clients", oclients)
          .num("offered", offered)
          .num("completed", completed)
          .num("rejected", d_rejected)
          .num("shed", d_shed)
          .num("deadline_expired", d_expired)
          .num("completed_per_sec", static_cast<double>(completed) / secs)
          .num("admission_wait_p99_us", static_cast<double>(os.admission_wait.p99_ns) / 1e3)
          .num("queue_wait_p99_us", static_cast<double>(os.queue_wait.p99_ns) / 1e3)
          .num("compute_p99_us", static_cast<double>(os.compute.p99_ns) / 1e3)
          .num("pool_threads", threads);
      json.add(rec);

      // The saturated stream is warm: overload control must not have cost
      // it the zero-build/zero-slab amortization. The books must balance
      // and the gauges must read empty once every client returned.
      const std::uint64_t d_builds = total_schedule_builds() - builds0;
      const std::uint64_t d_grows = pool_slab_grows(oserver.executor()) - grows0;
      const bool books_ok = admitted + d_rejected == offered &&
                            completed + d_expired == admitted &&
                            os.inflight_requests == 0 && os.queued_batches == 0 &&
                            completed == ok.load() && d_rejected == rejected.load() &&
                            d_expired == expired.load();
      if (d_builds != 0 || d_grows != 0 || !books_ok) {
        std::fprintf(stderr,
                     "error: overload phase (%s) broke an invariant: builds=%llu "
                     "grows=%llu admitted=%llu rejected=%llu completed=%llu "
                     "deadline=%llu offered=%llu\n",
                     name, static_cast<unsigned long long>(d_builds),
                     static_cast<unsigned long long>(d_grows),
                     static_cast<unsigned long long>(admitted),
                     static_cast<unsigned long long>(d_rejected),
                     static_cast<unsigned long long>(completed),
                     static_cast<unsigned long long>(d_expired),
                     static_cast<unsigned long long>(offered));
        ++overload_failures;
      }
    };
    run_policy("reject", api::AdmissionPolicy::kReject);
    run_policy("shed_oldest", api::AdmissionPolicy::kShedOldest);
    otable.print();
  }

  const auto stats = server.plan_stats();
  std::printf("check: plan-cache misses = %llu (want %d: one per shape; every other "
              "request replans nothing)\n",
              static_cast<unsigned long long>(stats.misses), kShapes);
  if (!json.flush()) return 1;
  if (batched_failures != 0 || overload_failures != 0) return 1;
  return stats.misses == static_cast<std::uint64_t>(kShapes) ? 0 : 1;
}
