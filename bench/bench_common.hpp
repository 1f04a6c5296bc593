#pragma once
// Shared helpers for the benchmark harness.
//
// Every bench binary regenerates one table or figure of the paper (see
// DESIGN.md §4). Sizes are scaled down from the paper's cluster runs via
// --scale so a laptop-class machine finishes in seconds; pass --scale 4 or
// more to push toward the asymptotic regime on bigger hardware.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "blas/kernels/registry.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "matrix/generate.hpp"
#include "strassen/options.hpp"

namespace atalib::bench {

/// Shortest wall time of one sample: one JSON rate tools/perf_gate.py gates,
/// or one side of one pair of a paired comparison.
inline constexpr double kMinSampleSeconds = 0.25;

struct Sample {
  double seconds = 0;  // wall time of all passes
  int passes = 0;
};

/// Runs `pass` (one pass over a timed stream) until kMinSampleSeconds passed.
template <typename Pass>
Sample timed_sample(Pass&& pass) {
  Sample s;
  Timer t;
  do {
    pass();
    ++s.passes;
  } while (t.seconds() < kMinSampleSeconds);
  s.seconds = t.seconds();
  return s;
}

/// Wall seconds per call of `call`, over one timed_sample.
template <typename Call>
double seconds_per_call(Call&& call) {
  const Sample s = timed_sample(call);
  return s.seconds / s.passes;
}

/// Pairs per paired comparison. As in tools/perf_gate.py, the 3rd smallest
/// to the 3rd largest of the 10 sorted ratios span the median's sign-test
/// interval; each end errs with probability 56/1024 (5.5%).
inline constexpr int kPairs = 10;
inline constexpr int kIntervalRank = 2;

/// A comparison of two sides over kPairs pairs of samples.
struct Paired {
  std::vector<double> ratios;  // per pair, in run order: B's sample / A's
  double median = 0;           // of the ratios
  double lo = 0, hi = 0;       // the median's sign-test interval
  double a = 0, b = 0;         // median sample of each side
};

inline double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Runs `sample_a()` and `sample_b()` (each returns one measurement, such as
/// seconds per call) in kPairs ABBA pairs: pair 0 samples A first, pair 1 B
/// first, and so on. A stall or a burst of CPU steal then hits both sides of
/// a pair alike, and the pair's ratio cancels it (Kalibera and Jones,
/// "Rigorous Benchmarking in Reasonable Time", ISMM 2013).
template <typename SampleA, typename SampleB>
Paired paired(SampleA&& sample_a, SampleB&& sample_b) {
  Paired p;
  std::vector<double> as, bs;
  for (int i = 0; i < kPairs; ++i) {
    double a, b;
    if (i % 2 == 0) {
      a = sample_a();
      b = sample_b();
    } else {
      b = sample_b();
      a = sample_a();
    }
    as.push_back(a);
    bs.push_back(b);
    p.ratios.push_back(b / a);
  }
  std::vector<double> sorted = p.ratios;
  std::sort(sorted.begin(), sorted.end());
  p.median = median_of(sorted);
  p.lo = sorted[kIntervalRank];
  p.hi = sorted[kPairs - 1 - kIntervalRank];
  p.a = median_of(as);
  p.b = median_of(bs);
  return p;
}

/// Times calls A and B in ABBA pairs of timed_samples. The ratio is B's
/// seconds per call over A's, so it is above 1 when A is faster.
template <typename CallA, typename CallB>
Paired time_pair(CallA&& call_a, CallB&& call_b) {
  return paired([&] { return seconds_per_call(call_a); },
                [&] { return seconds_per_call(call_b); });
}

/// A comparison's interval as a table cell.
inline std::string interval_cell(const Paired& p) {
  return Table::num(p.lo, 3) + "-" + Table::num(p.hi, 3);
}

/// Standard flags shared by every bench binary.
inline void add_common_flags(CliFlags& flags) {
  flags.add_double("scale", 1.0, "size multiplier vs the built-in laptop defaults");
  flags.add_int("base-elements", 0, "AtA/Strassen base-case threshold (0 = probe cache)");
  flags.add_string("json", "", "also write results as a JSON array to this path (\"\" = off)");
}

/// Machine-readable bench output: a JSON array of flat objects, one per
/// measured configuration, written next to the human table so the
/// BENCH_*.json perf trajectory can diff runs across commits. Values are
/// either numbers (num; non-finite doubles become null) or strings (str,
/// escaped); keys must be plain identifiers. Every record ends with the
/// host stamp (see stamp()).
class JsonWriter {
 public:
  /// Empty path disables the writer; add()/flush() become no-ops. The
  /// stamp is taken here, before a bench forces a dispatch path.
  explicit JsonWriter(std::string path) : path_(std::move(path)), stamp_(stamp()) {}

  bool enabled() const { return !path_.empty(); }

  class Record {
   public:
    Record& num(const char* key, double v) {
      if (!std::isfinite(v)) return raw(key, "null");  // JSON has no nan/inf
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      return raw(key, buf);
    }
    Record& num(const char* key, std::uint64_t v) { return raw(key, std::to_string(v)); }
    Record& num(const char* key, int v) { return raw(key, std::to_string(v)); }
    Record& str(const char* key, const std::string& v) {
      std::string quoted = "\"";
      for (char c : v) {
        if (c == '"' || c == '\\') {
          quoted += '\\';
          quoted += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          quoted += buf;
        } else {
          quoted += c;
        }
      }
      quoted += '"';
      return raw(key, quoted);
    }
    /// A paired comparison: its pair count, median ratio and interval.
    Record& paired(const Paired& p) {
      return num("pairs", static_cast<int>(p.ratios.size()))
          .num("ratio", p.median)
          .num("ratio_lo", p.lo)
          .num("ratio_hi", p.hi);
    }

   private:
    friend class JsonWriter;
    Record& raw(const char* key, const std::string& rendered) {
      if (!first_) os_ << ", ";
      first_ = false;
      os_ << "\"" << key << "\": " << rendered;
      return *this;
    }
    std::ostringstream os_;
    bool first_ = true;
  };

  /// Append one object, host stamp included. No-op when disabled.
  void add(const Record& r) {
    if (!enabled()) return;
    if (count_++ > 0) rows_ << ",\n";
    rows_ << "  {" << r.os_.str() << ", " << stamp_.os_.str() << "}";
  }

  /// Write the array and report the path on stdout. Returns false (with a
  /// stderr message) if the file could not be written, so callers can
  /// propagate a nonzero exit; no-op true when disabled.
  bool flush() const {
    if (!enabled()) return true;
    std::ofstream out(path_);
    out << "[\n" << rows_.str() << "\n]\n";
    out.flush();
    if (!out) {
      std::fprintf(stderr, "error: could not write JSON output to %s\n", path_.c_str());
      return false;
    }
    std::printf("wrote %d JSON records to %s\n", count_, path_.c_str());
    return true;
  }

 private:
  /// Where a record was measured, as perfbench stamps it: CPU model, CPUs
  /// this process may use, dispatched kernel per dtype, build type and the
  /// configure-time git sha (defined by CMakeLists.txt). Not part of a
  /// record's identity to tools/perf_gate.py.
  static Record stamp() {
    std::string model = "unknown";
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; model == "unknown" && std::getline(in, line);) {
      const auto at = line.find_first_not_of(' ', line.find(':') + 1);
      if (line.rfind("model name", 0) == 0 && at != std::string::npos) model = line.substr(at);
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    const int nproc = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
    Record r;
    r.str("cpu_model", model)
        .num("nproc", nproc)
        .str("isa_f64", blas::kernels::active_config<double>().name)
        .str("isa_f32", blas::kernels::active_config<float>().name)
        .str("build_type", ATALIB_BUILD_TYPE)
        .str("git_sha", ATALIB_GIT_SHA);
    return r;
  }

  std::string path_;
  Record stamp_;
  std::ostringstream rows_;
  int count_ = 0;
};

inline RecurseOptions recurse_from_flags(const CliFlags& flags) {
  RecurseOptions opts;
  opts.base_case_elements = flags.get_int("base-elements");
  return opts;
}

/// Scale a base size, keeping it even-ish for prettier splits.
inline index_t scaled(index_t base, double scale) {
  auto v = static_cast<index_t>(static_cast<double>(base) * scale);
  return std::max<index_t>(v, 16);
}

/// A labeled experiment header.
inline void print_banner(const std::string& what, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", what.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

}  // namespace atalib::bench
