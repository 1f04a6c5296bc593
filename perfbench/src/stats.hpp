#pragma once
// The benchmark's own bookkeeping, kept free of library types so the
// self-test (selftest.cpp) can check it in isolation:
//   - nearest-rank percentiles and the "at least ten samples beyond" rule
//     that decides which percentile a run may report;
//   - the outcome tally behind error_rate (every attempted request ends in
//     exactly one of ok / failed / refused);
//   - the pinned tuning-cache parser and the check that the values the
//     process resolved equal the pinned ones.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

/// Rank (1-based) of percentile `q` in (0, 100] among `n` sorted samples,
/// nearest-rank definition: ceil(q/100 * n), at least 1. The ratio is
/// computed in integers so q = 90, n = 100 gives exactly rank 90.
inline std::size_t percentile_rank(double q, std::size_t n) {
  if (n == 0) return 0;
  const auto scaled = static_cast<std::uint64_t>(std::llround(q * 1000.0));  // q in 1/1000 %
  const std::uint64_t num = scaled * n;
  std::uint64_t rank = (num + 100000 - 1) / 100000;
  rank = std::clamp<std::uint64_t>(rank, 1, n);
  return static_cast<std::size_t>(rank);
}

/// Samples strictly beyond percentile `q` of `n` samples.
inline std::size_t samples_beyond(double q, std::size_t n) {
  return n == 0 ? 0 : n - percentile_rank(q, n);
}

/// Nearest-rank percentile of `v` (sorted in place). 0 when empty.
inline double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[percentile_rank(q, v.size()) - 1];
}

inline double median(std::vector<double> v) { return percentile(v, 50.0); }

/// The highest of `candidates` that leaves at least `min_beyond` samples
/// beyond it among `n`; 0 if none does. A reported tail percentile must
/// pass this test, or its value rests on fewer samples than the rule asks.
inline double highest_supported_percentile(std::size_t n, const std::vector<double>& candidates,
                                           std::size_t min_beyond = 10) {
  double best = 0.0;
  for (double q : candidates) {
    if (samples_beyond(q, n) >= min_beyond) best = std::max(best, q);
  }
  return best;
}

/// Per-request samples in a buffer that is touched in full when
/// constructed, so the process's peak RSS does not depend on how many
/// requests a run completes. When the buffer fills, every other stored
/// sample is dropped and from then on only every second sample is kept: a
/// systematic subsample of the stream (every stride()-th request), so its
/// quantiles stay those of the stream. `capacity` must be a power of two.
template <typename S>
class SampleLog {
 public:
  explicit SampleLog(std::size_t capacity) : buf_(capacity, S{}) {}

  void add(const S& v) {
    const std::uint64_t index = seen_++;
    if (index % stride_ != 0) return;
    if (n_ == buf_.size()) {
      for (std::size_t i = 0; i < n_ / 2; ++i) buf_[i] = buf_[2 * i];
      n_ /= 2;
      stride_ *= 2;
      if (index % stride_ != 0) return;
    }
    buf_[n_++] = v;
  }
  /// Samples offered, kept or not.
  std::uint64_t seen() const { return seen_; }
  /// Requests per kept sample.
  std::uint64_t stride() const { return stride_; }
  std::vector<S> values() const {
    return std::vector<S>(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(n_));
  }

 private:
  std::vector<S> buf_;
  std::size_t n_ = 0;
  std::uint64_t stride_ = 1;
  std::uint64_t seen_ = 0;
};

/// Boundaries of `k` contiguous chunks over `n` in-order samples, where
/// k = min(max_chunks, n / min_chunk), at least 1. Chunk c is
/// [b[c], b[c+1]).
inline std::vector<std::size_t> chunk_bounds(std::size_t n, std::size_t min_chunk,
                                             std::size_t max_chunks) {
  const std::size_t k = std::max<std::size_t>(1, std::min(max_chunks, n / min_chunk));
  std::vector<std::size_t> b;
  for (std::size_t c = 0; c <= k; ++c) b.push_back(c * n / k);
  return b;
}

/// One completed request: its latency and when it completed.
struct Completion {
  double latency_ms = 0;
  double done_s = 0;  ///< measured seconds since the phase began
};

/// CPU time the host stole from this VM over a stretch of measured time:
/// the "steal" column of /proc/stat's cpu line against the sum of all its
/// columns, in clock ticks, summed over CPUs.
struct StealSpan {
  double t0_s = 0, t1_s = 0;  ///< measured seconds
  double stolen = 0, total = 0;
};

/// Share of CPU time stolen over measured time [a, b]; spans that overlap
/// it in part count in proportion. 0 when no span covers it.
inline double stolen_share(const std::vector<StealSpan>& spans, double a, double b) {
  double stolen = 0, total = 0;
  for (const auto& s : spans) {
    const double lo = std::max(a, s.t0_s), hi = std::min(b, s.t1_s);
    if (hi <= lo) continue;
    const double f = (hi - lo) / (s.t1_s - s.t0_s);
    stolen += f * s.stolen;
    total += f * s.total;
  }
  return total > 0 ? stolen / total : 0.0;
}

/// Steady-state summary of a closed loop: the whole run's figures with the
/// stretches the host disturbed left out. The completions are cut into
/// contiguous chunks of at least kChunk requests (at most kMaxChunks
/// chunks). Chunks from which the host stole more than kStolenShare of the
/// CPU time are dropped, most stolen first, up to three quarters of the
/// chunks; if that is less than a quarter, the slowest of the rest by rate
/// make up the quarter (nothing is dropped below kMinChunksToTrim chunks,
/// and nothing that would leave fewer than kMinKept samples). The rate, p50
/// and p90 are taken over every request of the kept chunks. A host stall
/// that CPU steal does not show, within a few chunks, goes with the slowest
/// quarter; a slowdown the program causes over more than a quarter of the
/// run moves every figure, since the program does not make the host steal.
struct RunSummary {
  static constexpr std::size_t kChunk = 20;
  static constexpr std::size_t kMaxChunks = 32;
  static constexpr std::size_t kMinChunksToTrim = 4;
  static constexpr double kStolenShare = 0.02;
  static constexpr std::size_t kMinKept = 100;

  std::size_t chunks = 0;           ///< chunks the run was cut into
  std::size_t trimmed = 0;          ///< chunks left out
  std::size_t trimmed_stolen = 0;   ///< of those, left out for CPU steal
  std::size_t kept_samples = 0;     ///< samples behind p50 and p90
  double p50_ms = 0;
  double p90_ms = 0;
  double rate_per_s = 0;             ///< requests per second
  std::vector<double> chunk_rates;   ///< per chunk, in order
  std::vector<double> chunk_stolen;  ///< stolen share per chunk, in order
};

/// Chunks dropped from a run cut into `chunks` chunks when the host stole
/// from none of them.
inline std::size_t chunks_trimmed(std::size_t chunks) {
  return chunks < RunSummary::kMinChunksToTrim ? 0 : chunks / 4;
}

/// `v` are the kept samples in completion order, `stride` requests apart,
/// with completion times in measured seconds from the start of the phase;
/// `steal` covers the measured time. A chunk's time runs from the previous
/// chunk's last completion (the phase start for the first chunk) to its own
/// last completion.
inline RunSummary summarize_run(const std::vector<Completion>& v, std::uint64_t stride,
                                const std::vector<StealSpan>& steal = {}) {
  RunSummary s;
  if (v.empty()) return s;
  const auto b = chunk_bounds(v.size(), RunSummary::kChunk, RunSummary::kMaxChunks);
  s.chunks = b.size() - 1;
  std::vector<double> secs;
  for (std::size_t c = 0; c < s.chunks; ++c) {
    const double t0 = c == 0 ? 0.0 : v[b[c] - 1].done_s;
    const double t1 = v[b[c + 1] - 1].done_s;
    const double reqs = static_cast<double>((b[c + 1] - b[c]) * stride);
    secs.push_back(t1 - t0);
    s.chunk_rates.push_back(t1 > t0 ? reqs / (t1 - t0) : 0.0);
    s.chunk_stolen.push_back(stolen_share(steal, t0, t1));
  }
  // Stolen chunks first, most stolen first; then the slowest. Ties go to
  // the earlier chunk, so the choice is stable.
  std::vector<std::size_t> order(s.chunks);
  for (std::size_t c = 0; c < s.chunks; ++c) order[c] = c;
  const auto stolen = [&s](std::size_t c) {
    return s.chunk_stolen[c] > RunSummary::kStolenShare ? s.chunk_stolen[c] : 0.0;
  };
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    if (stolen(x) != stolen(y)) return stolen(x) > stolen(y);
    return s.chunk_rates[x] < s.chunk_rates[y];
  });
  std::vector<bool> keep(s.chunks, true);
  std::size_t kept = v.size();
  if (s.chunks >= RunSummary::kMinChunksToTrim) {
    for (std::size_t c : order) {
      const bool by_steal = stolen(c) > 0 && s.trimmed < 3 * s.chunks / 4;
      if (!by_steal && s.trimmed >= chunks_trimmed(s.chunks)) break;
      const std::size_t size = b[c + 1] - b[c];
      if (kept - size < RunSummary::kMinKept) break;
      keep[c] = false;
      kept -= size;
      ++s.trimmed;
      if (by_steal) ++s.trimmed_stolen;
    }
  }
  std::vector<double> lat;
  double kept_s = 0;
  for (std::size_t c = 0; c < s.chunks; ++c) {
    if (!keep[c]) continue;
    kept_s += secs[c];
    for (std::size_t i = b[c]; i < b[c + 1]; ++i) lat.push_back(v[i].latency_ms);
  }
  s.kept_samples = lat.size();
  s.rate_per_s = kept_s > 0 ? static_cast<double>(lat.size() * stride) / kept_s : 0.0;
  s.p50_ms = percentile(lat, 50);
  s.p90_ms = percentile(lat, 90);
  return s;
}

/// Outcome of every request a workload attempted. A request the server
/// refused at submit time never gets a future; one whose future carries an
/// exception failed. Both count against error_rate.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;   ///< future settled with an exception
  std::uint64_t refused = 0;  ///< submit threw (overload, shutdown, bad input)
  /// Settled outputs whose checked entries were out of tolerance. These
  /// requests also count as failed.
  std::uint64_t wrong = 0;

  std::uint64_t errors() const { return failed + refused; }
  double error_rate() const {
    return attempted == 0 ? 0.0 : static_cast<double>(errors()) / static_cast<double>(attempted);
  }
  /// Every attempt accounted for exactly once.
  bool balanced() const { return ok + failed + refused == attempted; }

  /// Wait for `f` and record its outcome. Returns true if it settled with
  /// a value.
  bool settle(std::future<void>& f) {
    try {
      f.get();
      ++ok;
      return true;
    } catch (...) {
      ++failed;
      return false;
    }
  }
  /// A settled-ok request whose output then failed the correctness check.
  void mark_wrong() {
    ++wrong;
    --ok;
    ++failed;
  }
};

/// Pinned tuner values, keyed like the library's tuning cache file: one
/// "<isa> <f32|f64>[-ts] <value>" line per entry ("avx512 f64" -> base-case
/// cut-off, "avx512 f64-ts" -> tall-skinny ratio). Lines that do not parse
/// as three fields with a positive value are ignored, like the library's
/// own reader does.
using Pins = std::map<std::string, std::int64_t>;

inline Pins parse_pins(const std::string& text) {
  Pins pins;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string isa, dtype;
    long long value = 0;
    if ((ls >> isa >> dtype >> value) && value > 0) pins[isa + ' ' + dtype] = value;
  }
  return pins;
}

/// One resolved value the process actually uses, to be checked against the
/// pin of the same key.
struct Resolved {
  std::string key;
  std::int64_t value = 0;
};

/// Human-readable mismatches between `resolved` and `pins`; empty when every
/// resolved value has a pin and equals it. A missing pin is a mismatch: the
/// tuner would then have measured instead of reading the pin.
inline std::vector<std::string> pin_mismatches(const Pins& pins,
                                               const std::vector<Resolved>& resolved) {
  std::vector<std::string> out;
  for (const auto& r : resolved) {
    auto it = pins.find(r.key);
    if (it == pins.end()) {
      out.push_back("no pin for '" + r.key + "' (resolved " + std::to_string(r.value) + ")");
    } else if (it->second != r.value) {
      out.push_back("'" + r.key + "' resolved " + std::to_string(r.value) + ", pinned " +
                    std::to_string(it->second));
    }
  }
  return out;
}

}  // namespace perfbench
