// Checks of the benchmark's own logic: percentile selection, outcome
// accounting, the pin check, and trace self-time derivation. Exits nonzero
// on the first failed check; run.py runs it before every benchmark run.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool cond, const char* what, int line) {
  if (!cond) {
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(c) expect((c), #c, __LINE__)

void percentile_selection() {
  using namespace perfbench;
  EXPECT(percentile_rank(50, 1) == 1);
  EXPECT(percentile_rank(50, 100) == 50);
  EXPECT(percentile_rank(90, 100) == 90);
  EXPECT(percentile_rank(90, 99) == 90);  // ceil(89.1)
  EXPECT(percentile_rank(99.9, 1000) == 999);
  EXPECT(percentile_rank(100, 7) == 7);
  // "At least ten samples beyond": p90 needs 100 samples, p99 needs 1000.
  EXPECT(samples_beyond(90, 100) == 10);
  EXPECT(samples_beyond(90, 99) == 9);
  EXPECT(samples_beyond(99, 1000) == 10);
  EXPECT(samples_beyond(99, 999) == 9);
  EXPECT(samples_beyond(50, 0) == 0);
  const std::vector<double> cands{50, 90, 99, 99.9};
  EXPECT(highest_supported_percentile(19, cands) == 0);
  EXPECT(highest_supported_percentile(20, cands) == 50);
  EXPECT(highest_supported_percentile(99, cands) == 50);
  EXPECT(highest_supported_percentile(100, cands) == 90);
  EXPECT(highest_supported_percentile(999, cands) == 90);
  EXPECT(highest_supported_percentile(1000, cands) == 99);
  EXPECT(highest_supported_percentile(10000, cands) == 99.9);
  // Nearest-rank values on 1..100.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT(percentile(v, 50) == 50);
  EXPECT(percentile(v, 90) == 90);
  EXPECT(median({3, 1, 2}) == 2);
  std::vector<double> empty;
  EXPECT(percentile(empty, 90) == 0);
}

void sample_log() {
  using namespace perfbench;
  SampleLog<double> log(8);
  for (int i = 0; i < 5; ++i) log.add(i);
  EXPECT(log.values() == std::vector<double>({0, 1, 2, 3, 4}));
  for (int i = 5; i < 20; ++i) log.add(i);
  // Full at 8 -> keep even indices; full again at 16 -> keep multiples of 4.
  EXPECT(log.values() == std::vector<double>({0, 4, 8, 12, 16}));
  EXPECT(log.seen() == 20);
  EXPECT(log.stride() == 4);
  SampleLog<double> big(1 << 10);
  for (int i = 0; i < 100000; ++i) big.add(i % 100);
  std::vector<double> v = big.values();
  EXPECT(v.size() >= 512 && v.size() <= 1024);
  EXPECT(std::abs(percentile(v, 90) - 89) <= 1);
}

/// `n` requests, one every 10 ms with 1 ms latency, except requests
/// [stall_begin, stall_end), which take 50 ms and complete 50 ms apart.
std::vector<perfbench::Completion> closed_loop(int n, int stall_begin, int stall_end) {
  std::vector<perfbench::Completion> v;
  double t = 0;
  for (int i = 0; i < n; ++i) {
    const bool stalled = i >= stall_begin && i < stall_end;
    t += stalled ? 0.05 : 0.01;
    v.push_back({stalled ? 50.0 : 1.0, t});
  }
  return v;
}

void run_summary() {
  using namespace perfbench;
  EXPECT(chunk_bounds(150, 100, 16) == std::vector<std::size_t>({0, 150}));
  EXPECT(chunk_bounds(10, 100, 16) == std::vector<std::size_t>({0, 10}));
  EXPECT(chunk_bounds(450, 100, 16) == std::vector<std::size_t>({0, 112, 225, 337, 450}));
  EXPECT(chunk_bounds(100000, 100, 32).size() == 33);
  // The slowest quarter of the chunks is dropped, none below 4 chunks.
  EXPECT(chunks_trimmed(3) == 0);
  EXPECT(chunks_trimmed(4) == 1);
  EXPECT(chunks_trimmed(12) == 3);
  EXPECT(chunks_trimmed(32) == 8);
  // A stall inside one chunk is dropped with it.
  const RunSummary brief = summarize_run(closed_loop(400, 100, 120), 1);
  EXPECT(brief.chunks == 20);
  EXPECT(brief.trimmed == 5);
  EXPECT(brief.kept_samples == 300);
  EXPECT(brief.p50_ms == 1.0 && brief.p90_ms == 1.0);
  EXPECT(std::abs(brief.rate_per_s - 100.0) < 1e-6);
  // A slowdown over 40% of the run (8 of 20 chunks) is not hidden: three
  // stalled chunks remain among the 15 kept, so p90 and the rate move.
  const RunSummary slow = summarize_run(closed_loop(400, 100, 260), 1);
  EXPECT(slow.trimmed == 5);
  EXPECT(slow.p50_ms == 1.0);
  EXPECT(slow.p90_ms == 50.0);
  EXPECT(std::abs(slow.rate_per_s - 300.0 / 5.4) < 1e-6);
  // gram_large's ~240 requests keep enough samples for p90.
  EXPECT(samples_beyond(90, summarize_run(closed_loop(240, 0, 0), 1).kept_samples) >= 10);
  // A run too short to trim reports its own figures.
  const RunSummary few = summarize_run(closed_loop(60, 40, 60), 1);
  EXPECT(few.chunks == 3 && few.trimmed == 0);
  EXPECT(few.p90_ms == 50.0);
  EXPECT(std::abs(few.rate_per_s - 60.0 / 1.4) < 1e-6);
  // A thinned log counts stride requests per kept sample.
  std::vector<Completion> half;
  const auto all = closed_loop(400, 0, 0);
  for (std::size_t i = 0; i < all.size(); i += 2) half.push_back(all[i]);
  const RunSummary h = summarize_run(half, 2);
  EXPECT(h.chunks == 10 && h.trimmed == 2);
  EXPECT(std::abs(h.rate_per_s - 100.0) < 0.5);  // the first chunk starts one stride early

  // Steal spans count in proportion to their overlap.
  const std::vector<StealSpan> two{{0.0, 1.0, 10, 100}, {1.0, 2.0, 0, 100}};
  EXPECT(std::abs(stolen_share(two, 0.5, 1.5) - 0.05) < 1e-12);
  EXPECT(stolen_share(two, 3.0, 4.0) == 0.0);
  // A slowdown over 8 of 20 chunks during which the host stole CPU time is
  // dropped whole, not just its slowest quarter.
  const auto stall = closed_loop(400, 100, 260);
  const double s0 = stall[99].done_s, s1 = stall[259].done_s;
  const std::vector<StealSpan> during{
      {0.0, s0, 0, 1000}, {s0, s1, 200, 1000}, {s1, stall.back().done_s, 0, 1000}};
  const RunSummary stolen = summarize_run(stall, 1, during);
  EXPECT(stolen.trimmed == 8 && stolen.trimmed_stolen == 8);
  EXPECT(stolen.p90_ms == 1.0);
  EXPECT(std::abs(stolen.rate_per_s - 100.0) < 1e-6);
  // Steal at or below kStolenShare is no reason to drop a chunk.
  const std::vector<StealSpan> faint{{0.0, stall.back().done_s, 10, 1000}};
  const RunSummary f = summarize_run(stall, 1, faint);
  EXPECT(f.trimmed == 5 && f.trimmed_stolen == 0 && f.p90_ms == 50.0);
  // Steal over the whole run drops at most three quarters of the chunks,
  // the earlier ones on a tie.
  const std::vector<StealSpan> always{{0.0, stall.back().done_s, 200, 1000}};
  const RunSummary a = summarize_run(stall, 1, always);
  EXPECT(a.trimmed == 15 && a.trimmed_stolen == 15 && a.kept_samples == 100);
  // Trimming never leaves fewer than kMinKept samples.
  const auto short_run = closed_loop(120, 0, 0);
  const RunSummary k = summarize_run(short_run, 1, {{0.0, short_run.back().done_s, 200, 1000}});
  EXPECT(k.chunks == 6 && k.trimmed == 1 && k.kept_samples == RunSummary::kMinKept);
}

void failure_accounting() {
  using namespace perfbench;
  Tally t;
  std::vector<std::promise<void>> ps(4);
  std::vector<std::future<void>> fs;
  for (auto& p : ps) fs.push_back(p.get_future());
  ps[0].set_value();
  ps[1].set_exception(std::make_exception_ptr(std::runtime_error("task failed")));
  ps[2].set_value();
  ps[3].set_value();
  t.attempted = 5;  // four futures plus one refused at submit
  ++t.refused;
  EXPECT(t.settle(fs[0]));
  EXPECT(!t.settle(fs[1]));
  EXPECT(t.settle(fs[2]));
  EXPECT(t.settle(fs[3]));
  t.mark_wrong();  // the fourth settled but its output failed the check
  EXPECT(t.ok == 2);
  EXPECT(t.failed == 2);
  EXPECT(t.wrong == 1);
  EXPECT(t.errors() == 3);
  EXPECT(t.balanced());
  EXPECT(t.error_rate() == 3.0 / 5.0);
  Tally none;
  EXPECT(none.error_rate() == 0.0);
  EXPECT(none.balanced());
  Tally lost;
  lost.attempted = 2;
  lost.ok = 1;
  EXPECT(!lost.balanced());  // an attempt that ended in no outcome
}

void pin_check() {
  using namespace perfbench;
  const Pins pins = parse_pins(
      "avx512 f64 131072\navx512 f32 262144\navx512 f64-ts 2\n"
      "garbage line\navx2 f64 0\n\navx512 f32-ts 4\n");
  EXPECT(pins.size() == 4);
  EXPECT(pins.at("avx512 f64") == 131072);
  EXPECT(pins.count("avx2 f64") == 0);  // non-positive values are not pins
  EXPECT(pin_mismatches(pins, {{"avx512 f64", 131072}, {"avx512 f32-ts", 4}}).empty());
  EXPECT(pin_mismatches(pins, {{"avx512 f64", 51199}}).size() == 1);
  EXPECT(pin_mismatches(pins, {{"avx2 f64", 131072}}).size() == 1);  // missing pin
  EXPECT(pin_mismatches(pins, {{"avx512 f64", 1}, {"avx512 f32", 1}, {"avx512 f64-ts", 2}})
             .size() == 2);
}

void self_time() {
  using namespace perfbench;
  // request [0, 100) with children api.submit [0, 10), api.wait [50, 100)
  // and an overlapping child [40, 60): covered = [0,10) + [40,100) = 70.
  // The last child's parent (id 3) has left the ring.
  std::vector<Span> spans{{"request", 0, 100, 7, -1, 0},
                          {"api.submit", 0, 10, 8, 7, 0},
                          {"api.wait", 50, 100, 9, 7, 0},
                          {"bench.check", 40, 60, 10, 7, 0},
                          {"blas.syrk", 200, 260, 11, -1, -1},
                          {"blas.pack", 210, 230, 12, 3, -1}};
  const auto self = self_time_by_layer(spans);
  EXPECT(self.at("request") == 30);
  EXPECT(self.at("api") == 60);
  EXPECT(self.at("bench") == 20);
  EXPECT(self.at("blas") == 80);
  EXPECT(layer_of("strassen.tuner") == "strassen");
  EXPECT(layer_of("request") == "request");
  Tracer off(false);
  EXPECT(off.begin("x") == -1);
  EXPECT(off.spans().empty());
  // A full ring keeps the newest spans, oldest first, and ids stay unique.
  Tracer ring(true, 4);
  for (int i = 0; i < 6; ++i) ring.add("api.submit", i, i + 1);
  const auto kept = ring.spans();
  EXPECT(kept.size() == 4);
  EXPECT(kept.front().id == 2 && kept.back().id == 5);
  EXPECT(ring.recorded() == 6);
  const auto open = ring.begin("api.wait");
  ring.end(open);
  EXPECT(ring.spans().back().end_ns >= ring.spans().back().start_ns);
}

}  // namespace

int main() {
  percentile_selection();
  sample_log();
  run_summary();
  failure_accounting();
  pin_check();
  self_time();
  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}
