// End-to-end benchmark of the serving stack (api::Server) with per-layer
// probes into blas, strassen, ata, sched, runtime and api.
//
//   perfbench --workload gram_large|batch_tall|serve_small --seed N
//             --seconds S --trace 0|1 --pins FILE [--trace-out FILE]
//   perfbench --probe-tuner ISA
//
// Every workload is a closed loop driven by this one client thread against
// one 4-slot Server (3 workers; the client blocks in future::get), so at
// most 3 threads compute at once. The run fails, printing no numbers, if
// the tuner's resolved values differ from the pinned FILE, if any output
// is wrong or any request failed, or if the warm path built a schedule,
// grew a workspace or allocated a pack buffer.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same loop in
// alternating untraced/traced slices, then the per-layer probes, writes the
// client spans as Chrome trace-event JSON, and prints the per-layer
// metrics. The last stdout line is the result object; the line before it
// stamps the host and build. --probe-tuner prints one fresh in-memory
// tuner's picks for the given ISA tier (perfbench/pin.py pins from these).

#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "api/plan.hpp"
#include "api/server.hpp"
#include "ata/ata.hpp"
#include "blas/gemm.hpp"
#include "blas/kernels/pack.hpp"
#include "blas/kernels/registry.hpp"
#include "blas/syrk.hpp"
#include "common/cli.hpp"
#include "matrix/generate.hpp"
#include "matrix/matrix.hpp"
#include "sched/shared_schedule.hpp"
#include "stats.hpp"
#include "strassen/strassen.hpp"
#include "strassen/tuner.hpp"
#include "strassen/workspace.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace atalib;
using perfbench::Tally;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

/// Server slots: 3 workers plus the caller slot, which the client never
/// drains (it waits in future::get), so 3 threads compute.
constexpr int kSlots = 4;
constexpr int kBusyThreads = kSlots - 1;
/// An untraced run measures in kSlices slices and times setup in one round
/// before each, so setup_s samples the whole run: the host's speed at
/// syscalls and thread wake-ups, which setup is made of, drifts by a
/// quarter from one second to the next. A round repeats setup at least once
/// and until kSetupRoundS of setup time has been spent (at most
/// kSetupRoundMaxReps), so a cheap setup's median rests on many
/// repetitions and not on the first, slower ones alone.
constexpr int kSlices = 10;
constexpr double kSetupRoundS = 0.05;
constexpr int kSetupRoundMaxReps = 20;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Clock::time_point plus_seconds(Clock::time_point t0, double s) {
  return t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Shape {
  index_t m = 0;
  index_t n = 0;
};

/// Clock ticks of /proc/stat's cpu line, summed over CPUs: the time the
/// host stole from this VM, and all time. Zeros where there is no such file.
struct CpuTicks {
  double steal = 0, total = 0;
};

CpuTicks read_cpu_ticks() {
  CpuTicks t;
  const int fd = ::open("/proc/stat", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return t;
  char buf[512];
  const ssize_t got = ::read(fd, buf, sizeof(buf) - 1);
  ::close(fd);
  if (got <= 0) return t;
  buf[got] = '\0';
  unsigned long long v[8] = {};
  if (std::sscanf(buf, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2], &v[3],
                  &v[4], &v[5], &v[6], &v[7]) != 8) {
    return t;
  }
  for (unsigned long long x : v) t.total += static_cast<double>(x);
  t.steal = static_cast<double>(v[7]);
  return t;
}

/// What the measured slices of a closed loop observed. Every sample buffer
/// is touched in full up front, so the loop never grows one.
struct Phase {
  static constexpr std::size_t kLogCapacity = std::size_t{1} << 18;
  /// CPU steal is read about this often, at the next completion.
  static constexpr double kStealTickS = 0.1;

  /// `client_spans`: the slices are traced and keep client span lengths.
  explicit Phase(bool client_spans = false)
      : submit_us(client_spans ? kLogCapacity : 1), wait_us(client_spans ? kLogCapacity : 1) {
    steal.reserve(std::size_t{1} << 15);
  }

  double seconds = 0;       ///< measured time of the finished slices
  std::uint64_t grams = 0;  ///< requests completed
  perfbench::SampleLog<perfbench::Completion> log{kLogCapacity};
  perfbench::SampleLog<double> submit_us, wait_us;  ///< client spans, microseconds
  std::vector<perfbench::StealSpan> steal;          ///< over measured time only
  Clock::time_point start;                          ///< start of the current slice

  void begin_slice() {
    start = Clock::now();
    ticks_ = read_cpu_ticks();
    tick_s_ = seconds;
    next_tick_ = plus_seconds(start, kStealTickS);
  }
  void end_slice() {
    const auto now = Clock::now();
    sample_steal(now);
    seconds += std::chrono::duration<double>(now - start).count();
  }
  /// Completion times count measured time only, so chunks that straddle a
  /// slice boundary leave out what ran between the slices.
  void completed(Clock::time_point t_submit, Clock::time_point t_done) {
    ++grams;
    log.add({std::chrono::duration<double, std::milli>(t_done - t_submit).count(),
             seconds + std::chrono::duration<double>(t_done - start).count()});
    if (t_done >= next_tick_) sample_steal(t_done);
  }
  std::vector<double> latencies_ms() const {
    std::vector<double> v;
    for (const auto& c : log.values()) v.push_back(c.latency_ms);
    return v;
  }
  /// Share of CPU time the host stole over the measured slices.
  double stolen_share() const {
    return steal.empty() ? 0.0 : perfbench::stolen_share(steal, 0.0, steal.back().t1_s);
  }

 private:
  void sample_steal(Clock::time_point now) {
    const CpuTicks t = read_cpu_ticks();
    const double at = seconds + std::chrono::duration<double>(now - start).count();
    if (steal.size() < steal.capacity()) {
      steal.push_back({tick_s_, at, t.steal - ticks_.steal, t.total - ticks_.total});
    }
    ticks_ = t;
    tick_s_ = at;
    next_tick_ = plus_seconds(now, kStealTickS);
  }

  CpuTicks ticks_;
  double tick_s_ = 0;
  Clock::time_point next_tick_;
};

/// Relative errors of checked lower(C) entries.
struct ErrStats {
  long double max = 0.0L;
  long double sumsq = 0.0L;
  std::uint64_t count = 0;

  long double rms() const { return count == 0 ? 0.0L : std::sqrt(sumsq / count); }
};

// --- Inputs, reference entries and checked outputs ------------------------

/// One input matrix with a seeded sample of lower(C) entries and their
/// long-double reference values a_i . a_j, plus the scale ||a_i|| ||a_j||
/// errors are measured against.
template <typename T>
struct Input {
  Matrix<T> a;
  std::vector<std::pair<index_t, index_t>> samples;
  std::vector<long double> ref;
  std::vector<long double> scale;
};

/// `nsamples == 0` samples every lower entry.
template <typename T>
Input<T> make_input(Shape s, std::uint64_t seed, std::size_t nsamples) {
  Input<T> in{random_uniform<T>(s.m, s.n, seed), {}, {}, {}};
  if (nsamples == 0) {
    for (index_t i = 0; i < s.n; ++i) {
      for (index_t j = 0; j <= i; ++j) in.samples.push_back({i, j});
    }
  } else {
    // A fixed share of diagonal entries: their errors are larger than the
    // off-diagonal ones (|c_ii| = ||a_i||^2), so a random share would make
    // the RMS error depend on how many the draw happened to pick.
    std::mt19937_64 rng(mix_seed(seed, 0x5a));
    std::uniform_int_distribution<index_t> pick(0, s.n - 1);
    const std::size_t ndiag = nsamples / 8;
    for (std::size_t k = 0; k < ndiag; ++k) {
      const index_t i = pick(rng);
      in.samples.push_back({i, i});
    }
    while (in.samples.size() < nsamples) {
      const index_t i = pick(rng), j = pick(rng);
      if (i != j) in.samples.push_back({std::max(i, j), std::min(i, j)});
    }
  }
  std::vector<long double> norm(static_cast<std::size_t>(s.n), 0.0L);
  const T* a = in.a.data();
  for (index_t r = 0; r < s.m; ++r) {
    for (index_t c = 0; c < s.n; ++c) {
      const long double v = a[r * s.n + c];
      norm[static_cast<std::size_t>(c)] += v * v;
    }
  }
  for (auto [i, j] : in.samples) {
    long double dot = 0.0L;
    for (index_t r = 0; r < s.m; ++r) {
      dot += static_cast<long double>(a[r * s.n + i]) * static_cast<long double>(a[r * s.n + j]);
    }
    in.ref.push_back(dot);
    in.scale.push_back(std::sqrt(norm[static_cast<std::size_t>(i)]) *
                       std::sqrt(norm[static_cast<std::size_t>(j)]));
  }
  return in;
}

/// An n x n output whose strict upper triangle holds a sentinel the library
/// must never write (it computes lower(C) only).
template <typename T>
struct Output {
  static constexpr T kSentinel = T(-4096.5);
  Matrix<T> c;

  explicit Output(index_t n) : c(Matrix<T>::zeros(n, n)) {
    for (index_t i = 0; i < n; ++i) {
      std::fill(c.data() + i * n + i + 1, c.data() + (i + 1) * n, kSentinel);
    }
  }
  void zero_lower() {
    const index_t n = c.rows();
    for (index_t i = 0; i < n; ++i) std::fill(c.data() + i * n, c.data() + i * n + i + 1, T(0));
  }
  bool sentinel_intact() const {
    const index_t n = c.rows();
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = i + 1; j < n; ++j) {
        if (c.data()[i * n + j] != kSentinel) return false;
      }
    }
    return true;
  }
};

/// Checks samples [first, first + count) (cyclically) of `in` against `c`.
/// Adds their relative errors to `err` and returns false if an entry is off
/// by more than 16 m u relative to ||a_i|| ||a_j||, which no correct
/// summation order exceeds and any misplaced or missing contribution does.
template <typename T>
bool check_entries(const Input<T>& in, const Output<T>& out, std::size_t first, std::size_t count,
                   ErrStats& err) {
  const long double u = std::numeric_limits<T>::epsilon() / 2;
  const long double tol = 16.0L * static_cast<long double>(in.a.rows()) * u;
  const index_t n = out.c.rows();
  const std::size_t total = in.samples.size();
  bool ok = true;
  for (std::size_t k = 0; k < std::min(count, total); ++k) {
    const std::size_t s = (first + k) % total;
    const auto [i, j] = in.samples[s];
    const long double got = out.c.data()[i * n + j];
    const long double denom = in.scale[s] > 0 ? in.scale[s] : 1.0L;
    const long double rel = std::fabs(got - in.ref[s]) / denom;
    if (!(rel <= tol)) ok = false;  // also catches NaN
    if (rel > err.max || std::isnan(static_cast<double>(rel))) err.max = rel;
    err.sumsq += rel * rel;
    ++err.count;
  }
  return ok;
}

// --- Workloads --------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  virtual bool f32() const = 0;
  /// Distinct request shapes, in first-request order.
  virtual std::vector<Shape> shapes() const = 0;
  /// Plan-width options the server applies to this workload's requests.
  virtual SharedOptions served_options() const = 0;
  /// Serve the first request of every shape and wait for each (the end
  /// point of setup_s).
  virtual void first_requests(api::Server& srv, Tally& t) = 0;
  /// Serve every input once and check it; untimed.
  virtual void validate(api::Server& srv, Tally& t) = 0;
  /// The closed loop, until `until`.
  virtual void loop(api::Server& srv, Clock::time_point until, Tracer& tr, Phase& ph,
                    Tally& t) = 0;
  virtual bool sentinels_intact() const = 0;
  /// syrk and gemm_tn leaf shapes of this workload for the blas probe:
  /// syrk on (m, n), gemm_tn on (m x n)^T (m x k).
  virtual std::pair<Shape, std::array<index_t, 3>> leaf_shapes() const = 0;

  /// Errors of the validation pass: every input served once, a fixed set
  /// of entries checked, so the figures depend only on the seed and the
  /// arithmetic, not on how many requests a run completes.
  const ErrStats& validated() const { return validated_; }
  /// Errors of every other checked request.
  const ErrStats& measured() const { return measured_; }

 protected:
  ErrStats validated_;
  ErrStats measured_;
  std::int64_t next_request_ = 0;
};

/// Settle `f` into the tally, then check its output; records latency and
/// client spans. Shared by the three loops.
template <typename T>
void finish(std::future<void>& f, const Input<T>& in, const Output<T>& out,
            std::size_t sample_first, std::size_t sample_count, Clock::time_point t_submit,
            Clock::time_point t_submitted, std::int64_t id, Tracer& tr, Phase* ph, Tally& t,
            ErrStats& err) {
  const auto t_wait = Clock::now();
  const bool ok = t.settle(f);
  const auto t_done = Clock::now();
  if (ok && !check_entries(in, out, sample_first, sample_count, err)) t.mark_wrong();
  if (ph == nullptr) return;
  ph->completed(t_submit, t_done);
  if (tr.on()) {
    const auto ns = [](Clock::time_point tp) {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(tp.time_since_epoch()).count();
    };
    ph->submit_us.add(std::chrono::duration<double, std::micro>(t_submitted - t_submit).count());
    ph->wait_us.add(std::chrono::duration<double, std::micro>(t_done - t_wait).count());
    const auto rid = tr.add("request", ns(t_submit), ns(t_done), -1, id);
    tr.add("api.submit", ns(t_submit), ns(t_submitted), rid, id);
    tr.add("api.wait", ns(t_wait), ns(t_done), rid, id);
  }
}

/// f64 2048 x 2048 Grams, one Server::submit at a time, default options
/// (plan width = 4 slots, oversub 2: eight AtA-S stripes).
class GramLarge final : public Workload {
 public:
  static constexpr Shape kShape{2048, 2048};
  static constexpr std::size_t kSamples = 4096;

  explicit GramLarge(std::uint64_t seed) : out_(kShape.n) {
    for (std::uint64_t k = 0; k < 2; ++k) {
      inputs_.push_back(make_input<double>(kShape, mix_seed(seed, k), kSamples));
    }
  }
  bool f32() const override { return false; }
  std::vector<Shape> shapes() const override { return {kShape}; }
  SharedOptions served_options() const override {
    SharedOptions o;
    o.threads = kSlots;
    o.oversub = 2;
    return o;
  }
  void first_requests(api::Server& srv, Tally& t) override {
    serve(srv, 0, nullptr, t, nullptr, measured_);
  }
  void validate(api::Server& srv, Tally& t) override {
    for (std::size_t k = 0; k < inputs_.size(); ++k) serve(srv, k, nullptr, t, nullptr, validated_);
  }
  void loop(api::Server& srv, Clock::time_point until, Tracer& tr, Phase& ph,
            Tally& t) override {
    while (Clock::now() < until) {
      serve(srv, static_cast<std::size_t>(next_request_), &tr, t, &ph, measured_);
    }
  }
  bool sentinels_intact() const override { return out_.sentinel_intact(); }
  std::pair<Shape, std::array<index_t, 3>> leaf_shapes() const override {
    // The syrk block ata() bottoms out at on this A, and the gemm_tn leaf
    // of the 2048 x 1024 C21 product, under the pinned f64 cut-off.
    const index_t base = strassen::Tuner::global().base_case_elements(sizeof(double));
    const RecurseOptions r;
    Shape s = kShape;
    while (!ata_base_case(s.m, s.n, base, r.min_dim)) s = {half_up(s.m), half_up(s.n)};
    index_t m = kShape.m, n = kShape.n / 2, k = kShape.n / 2;
    while (!gemm_base_case(m, n, k, base, r.min_dim)) {
      m = half_up(m);
      n = half_up(n);
      k = half_up(k);
    }
    return {s, {m, n, k}};
  }

 private:
  void serve(api::Server& srv, std::size_t k, Tracer* tr, Tally& t, Phase* ph, ErrStats& err) {
    const Input<double>& in = inputs_[k % inputs_.size()];
    out_.zero_lower();
    const std::int64_t id = next_request_++;
    ++t.attempted;
    const auto t0 = Clock::now();
    std::future<void> f;
    try {
      f = srv.submit(1.0, in.a.const_view(), out_.c.view());
    } catch (...) {
      ++t.refused;
      return;
    }
    const auto t1 = Clock::now();
    Tracer off(false);
    finish(f, in, out_, 0, in.samples.size(), t0, t1, id, tr ? *tr : off, ph, t, err);
  }

  std::vector<Input<double>> inputs_;
  Output<double> out_;
};

/// f32 batches of 64 independent 2048 x 256 Grams per submit_batch, one
/// batch in flight. m/n = 8 is served by the tall-skinny planner.
class BatchTall final : public Workload {
 public:
  static constexpr Shape kShape{2048, 256};
  static constexpr int kBatch = 64;
  static constexpr std::size_t kSamples = 256;

  explicit BatchTall(std::uint64_t seed) {
    for (int k = 0; k < kBatch; ++k) {
      inputs_.push_back(
          make_input<float>(kShape, mix_seed(seed, static_cast<std::uint64_t>(k)), kSamples));
      outs_.emplace_back(kShape.n);
    }
    for (int k = 0; k < kBatch; ++k) {
      reqs_.push_back({1.0f, inputs_[static_cast<std::size_t>(k)].a.const_view(),
                       outs_[static_cast<std::size_t>(k)].c.view()});
    }
  }
  bool f32() const override { return true; }
  std::vector<Shape> shapes() const override { return {kShape}; }
  SharedOptions served_options() const override { return SharedOptions{}; }
  void first_requests(api::Server& srv, Tally& t) override {
    Tracer off(false);
    serve(srv, 1, off, t, nullptr, measured_);
  }
  void validate(api::Server& srv, Tally& t) override {
    Tracer off(false);
    serve(srv, kBatch, off, t, nullptr, validated_);
  }
  void loop(api::Server& srv, Clock::time_point until, Tracer& tr, Phase& ph,
            Tally& t) override {
    while (Clock::now() < until) serve(srv, kBatch, tr, t, &ph, measured_);
  }
  bool sentinels_intact() const override {
    return std::all_of(outs_.begin(), outs_.end(),
                       [](const Output<float>& o) { return o.sentinel_intact(); });
  }
  std::pair<Shape, std::array<index_t, 3>> leaf_shapes() const override {
    return {kShape, {kShape.m, kShape.n, kShape.n}};
  }

 private:
  void serve(api::Server& srv, int count, Tracer& tr, Tally& t, Phase* ph, ErrStats& err) {
    for (int k = 0; k < count; ++k) outs_[static_cast<std::size_t>(k)].zero_lower();
    const std::int64_t id0 = next_request_;
    next_request_ += count;
    t.attempted += static_cast<std::uint64_t>(count);
    const auto t0 = Clock::now();
    std::vector<std::future<void>> futs;
    try {
      futs = srv.submit_batch<float>(
          std::span<const api::AtaRequest<float>>(reqs_.data(), static_cast<std::size_t>(count)));
    } catch (...) {
      t.refused += static_cast<std::uint64_t>(count);
      return;
    }
    const auto t1 = Clock::now();
    for (int k = 0; k < count; ++k) {
      const auto ks = static_cast<std::size_t>(k);
      finish(futs[ks], inputs_[ks], outs_[ks], 0, kSamples, t0, t1, id0 + k, tr, ph, t, err);
    }
  }

  std::vector<Input<float>> inputs_;
  std::vector<Output<float>> outs_;
  std::vector<api::AtaRequest<float>> reqs_;
};

/// f64 one-request submit_batch calls over four small shapes in seeded
/// order, 128 requests kept outstanding: m = 4 updates at n = 32 and 64,
/// and m = 8n Grams at n = 32 and 64. With that many outstanding, a
/// worker's wake-up overlaps the client's next submissions, so the client's
/// per-request path sets the rate rather than the host's wake-up latency.
class ServeSmall final : public Workload {
 public:
  static constexpr int kWindow = 128;
  static constexpr int kInputsPerShape = 16;
  static constexpr std::size_t kSequence = 4096;
  static constexpr std::size_t kChecked = 16;  ///< entries checked per measured request

  explicit ServeSmall(std::uint64_t seed) : shapes_{{4, 32}, {4, 64}, {256, 32}, {512, 64}} {
    for (std::size_t s = 0; s < shapes_.size(); ++s) {
      inputs_.emplace_back();
      for (int k = 0; k < kInputsPerShape; ++k) {
        inputs_[s].push_back(make_input<double>(
            shapes_[s], mix_seed(seed, 100 * (s + 1) + static_cast<std::uint64_t>(k)), 0));
      }
    }
    for (int w = 0; w < kWindow; ++w) {
      slots_.emplace_back();
      for (const Shape& sh : shapes_) slots_.back().outs.emplace_back(sh.n);
    }
    std::mt19937_64 rng(mix_seed(seed, 0xa11));
    std::uniform_int_distribution<int> pick_shape(0, static_cast<int>(shapes_.size()) - 1);
    std::uniform_int_distribution<int> pick_input(0, kInputsPerShape - 1);
    for (std::size_t k = 0; k < kSequence; ++k) order_.push_back({pick_shape(rng), pick_input(rng)});
  }
  bool f32() const override { return false; }
  std::vector<Shape> shapes() const override { return shapes_; }
  SharedOptions served_options() const override { return SharedOptions{}; }
  void first_requests(api::Server& srv, Tally& t) override {
    for (int s = 0; s < static_cast<int>(shapes_.size()); ++s) serve_one(srv, s, 0, t, measured_);
  }
  void validate(api::Server& srv, Tally& t) override {
    for (int s = 0; s < static_cast<int>(shapes_.size()); ++s) {
      for (int k = 0; k < kInputsPerShape; ++k) serve_one(srv, s, k, t, validated_);
    }
  }
  void loop(api::Server& srv, Clock::time_point until, Tracer& tr, Phase& ph,
            Tally& t) override {
    int oldest = 0, inflight = 0;
    for (; inflight < kWindow; ++inflight) issue(srv, inflight, t);
    while (inflight > 0) {
      Slot& sl = slots_[static_cast<std::size_t>(oldest)];
      if (sl.live) {
        const auto& in = inputs_[static_cast<std::size_t>(sl.shape)][static_cast<std::size_t>(sl.input)];
        finish(sl.fut, in, sl.outs[static_cast<std::size_t>(sl.shape)],
               static_cast<std::size_t>(sl.id) * kChecked, kChecked, sl.t_submit, sl.t_submitted,
               sl.id, tr, &ph, t, measured_);
        sl.live = false;
      }
      if (Clock::now() < until) {
        issue(srv, oldest, t);
      } else {
        --inflight;
      }
      oldest = (oldest + 1) % kWindow;
    }
  }
  bool sentinels_intact() const override {
    for (const Slot& sl : slots_) {
      for (const auto& o : sl.outs) {
        if (!o.sentinel_intact()) return false;
      }
    }
    return true;
  }
  std::pair<Shape, std::array<index_t, 3>> leaf_shapes() const override {
    return {shapes_[3], {shapes_[3].m, shapes_[3].n, shapes_[3].n}};
  }

 private:
  struct Slot {
    std::vector<Output<double>> outs;  ///< one per shape
    std::future<void> fut;
    bool live = false;
    int shape = 0, input = 0;
    std::int64_t id = 0;
    Clock::time_point t_submit, t_submitted;
  };

  /// Submit the next request of the seeded order into window slot `w`.
  void issue(api::Server& srv, int w, Tally& t) {
    Slot& sl = slots_[static_cast<std::size_t>(w)];
    sl.id = next_request_++;
    const auto [shape, input] = order_[static_cast<std::size_t>(sl.id) % kSequence];
    sl.shape = shape;
    sl.input = input;
    Output<double>& out = sl.outs[static_cast<std::size_t>(shape)];
    out.zero_lower();
    const api::AtaRequest<double> req{
        1.0, inputs_[static_cast<std::size_t>(shape)][static_cast<std::size_t>(input)].a.const_view(),
        out.c.view()};
    ++t.attempted;
    sl.t_submit = Clock::now();
    try {
      sl.fut = std::move(srv.submit_batch<double>(std::span<const api::AtaRequest<double>>(&req, 1))[0]);
    } catch (...) {
      ++t.refused;
      return;
    }
    sl.t_submitted = Clock::now();
    sl.live = true;
  }

  /// One request, waited for and fully checked (setup and validation).
  void serve_one(api::Server& srv, int shape, int input, Tally& t, ErrStats& err) {
    Slot& sl = slots_[0];
    const auto& in = inputs_[static_cast<std::size_t>(shape)][static_cast<std::size_t>(input)];
    Output<double>& out = sl.outs[static_cast<std::size_t>(shape)];
    out.zero_lower();
    const api::AtaRequest<double> req{1.0, in.a.const_view(), out.c.view()};
    ++t.attempted;
    const auto t0 = Clock::now();
    std::future<void> f;
    try {
      f = std::move(srv.submit_batch<double>(std::span<const api::AtaRequest<double>>(&req, 1))[0]);
    } catch (...) {
      ++t.refused;
      return;
    }
    Tracer off(false);
    finish(f, in, out, 0, in.samples.size(), t0, Clock::now(), next_request_++, off, nullptr, t,
           err);
  }

  std::vector<Shape> shapes_;
  std::vector<std::vector<Input<double>>> inputs_;  ///< [shape][input]
  std::vector<Slot> slots_;
  std::vector<std::pair<int, int>> order_;  ///< seeded (shape, input) sequence
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "gram_large") return std::make_unique<GramLarge>(seed);
  if (name == "batch_tall") return std::make_unique<BatchTall>(seed);
  if (name == "serve_small") return std::make_unique<ServeSmall>(seed);
  return nullptr;
}

// --- Counters the warm-path gates read ---------------------------------------

struct Counters {
  std::uint64_t schedule_builds = 0;
  std::uint64_t workspace_grows = 0;
  std::uint64_t pack_allocs = 0;
  std::uint64_t local_steals = 0;
  std::uint64_t remote_steals = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;

  static Counters read(api::Server& srv) {
    Counters c;
    c.schedule_builds = sched::shared_schedule_builds();
    auto& pool = srv.executor();
    for (int s = 0; s < pool.concurrency(); ++s) c.workspace_grows += pool.workspace(s).grow_count();
    c.pack_allocs = blas::kernels::thread_pack_allocs().load();
    c.local_steals = pool.local_steals();
    c.remote_steals = pool.remote_steals();
    const api::PlanCacheStats plans = srv.plan_stats();
    c.plan_hits = plans.hits;
    c.plan_misses = plans.misses;
    return c;
  }
  /// Add the movement from `before` to `after`.
  void add_delta(const Counters& before, const Counters& after) {
    schedule_builds += after.schedule_builds - before.schedule_builds;
    workspace_grows += after.workspace_grows - before.workspace_grows;
    pack_allocs += after.pack_allocs - before.pack_allocs;
    local_steals += after.local_steals - before.local_steals;
    remote_steals += after.remote_steals - before.remote_steals;
    plan_hits += after.plan_hits - before.plan_hits;
    plan_misses += after.plan_misses - before.plan_misses;
  }
};

// --- Host stamp -------------------------------------------------------------

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

std::string quoted(const std::string& s) {
  std::string q = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') q += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) q += ch;
  }
  return q + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --- Pins -------------------------------------------------------------------

/// The four values the process's tuner resolved, keyed like the pin file.
std::vector<perfbench::Resolved> resolved_tuning() {
  auto& tuner = strassen::Tuner::global();
  const std::string i64 = blas::kernels::isa_name(blas::kernels::active_config<double>().isa);
  const std::string i32 = blas::kernels::isa_name(blas::kernels::active_config<float>().isa);
  return {{i64 + " f64", tuner.base_case_elements(sizeof(double))},
          {i32 + " f32", tuner.base_case_elements(sizeof(float))},
          {i64 + " f64-ts", tuner.tall_skinny_ratio(sizeof(double))},
          {i32 + " f32-ts", tuner.tall_skinny_ratio(sizeof(float))}};
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

/// A fresh in-memory tuner's picks and the time it took to make them.
struct TunerPicks {
  double seconds = 0;
  index_t base_f64 = 0, base_f32 = 0, ts_f64 = 0, ts_f32 = 0;
};

TunerPicks fresh_tuner_picks() {
  strassen::Tuner fresh("");
  const auto t0 = Clock::now();
  TunerPicks p;
  p.base_f64 = fresh.base_case_elements(sizeof(double));
  p.base_f32 = fresh.base_case_elements(sizeof(float));
  p.ts_f64 = fresh.tall_skinny_ratio(sizeof(double));
  p.ts_f32 = fresh.tall_skinny_ratio(sizeof(float));
  p.seconds = seconds_since(t0);
  return p;
}

int probe_tuner(const std::string& isa_name) {
  using blas::kernels::Isa;
  const std::map<std::string, Isa> isas{{"scalar", Isa::kScalar},
                                        {"neon", Isa::kNeon},
                                        {"avx2", Isa::kAvx2},
                                        {"avx512", Isa::kAvx512}};
  const auto it = isas.find(isa_name);
  if (it == isas.end()) {
    std::fprintf(stderr, "perfbench: unknown ISA tier '%s'\n", isa_name.c_str());
    return 2;
  }
  try {
    blas::kernels::set_forced_isa(it->second);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  const TunerPicks p = fresh_tuner_picks();
  std::printf(
      "{\"isa\": \"%s\", \"f64\": %lld, \"f32\": %lld, \"f64-ts\": %lld, \"f32-ts\": %lld, "
      "\"seconds\": %.6f}\n",
      isa_name.c_str(), static_cast<long long>(p.base_f64), static_cast<long long>(p.base_f32),
      static_cast<long long>(p.ts_f64), static_cast<long long>(p.ts_f32), p.seconds);
  return 0;
}

// --- Per-layer probes -------------------------------------------------------

/// Median seconds per call of `fn`: calls are grouped so one sample lasts
/// at least ~5 ms, and the median of `samples` samples is returned.
template <typename Fn>
double time_per_call(Fn&& fn, int samples = 7) {
  auto t0 = Clock::now();
  fn();
  const double once = std::max(seconds_since(t0), 1e-7);
  const int iters = std::max(1, static_cast<int>(std::ceil(0.005 / once)));
  std::vector<double> v;
  for (int s = 0; s < samples; ++s) {
    t0 = Clock::now();
    for (int i = 0; i < iters; ++i) fn();
    v.push_back(seconds_since(t0) / iters);
  }
  return perfbench::median(v);
}

/// Time `fn` once as a probe span named `name`.
template <typename Fn>
auto spanned(Tracer& tr, const char* name, Fn&& fn) {
  const auto id = tr.begin(name);
  auto r = fn();
  tr.end(id);
  return r;
}

template <typename T>
std::pair<double, double> blas_gflops(Shape syrk, std::array<index_t, 3> g, std::uint64_t seed) {
  const auto a = random_uniform<T>(syrk.m, syrk.n, mix_seed(seed, 0xb1));
  auto c = Matrix<T>::zeros(syrk.n, syrk.n);
  const double t_syrk = time_per_call([&] { blas::syrk_ln(T(1), a.const_view(), c.view()); });
  const auto x = random_uniform<T>(g[0], g[1], mix_seed(seed, 0xb2));
  const auto y = random_uniform<T>(g[0], g[2], mix_seed(seed, 0xb3));
  auto z = Matrix<T>::zeros(g[1], g[2]);
  const double t_gemm =
      time_per_call([&] { blas::gemm_tn(T(1), x.const_view(), y.const_view(), z.view()); });
  const double syrk_flops = static_cast<double>(syrk.m) * syrk.n * (syrk.n + 1);
  const double gemm_flops = 2.0 * g[0] * g[1] * g[2];
  return {syrk_flops / t_syrk * 1e-9, gemm_flops / t_gemm * 1e-9};
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string pins;
  std::string trace_out;
  std::string source_id;
};

/// Print the result line. A failed run prints no metrics.
void print_result(bool correct, const Tally& t,
                  const std::vector<std::tuple<std::string, double, std::string>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.errors()));
  if (correct) {
    bool first = true;
    for (const auto& [name, value, unit] : metrics) {
      std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                  num(value).c_str(), unit.c_str());
      first = false;
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const Args& args) {
  const int cpus = online_cpus();
  if (cpus < kSlots) {
    std::fprintf(stderr,
                 "perfbench: %d CPUs available; the benchmark keeps %d threads busy and needs at "
                 "least %d CPUs so it never oversubscribes\n",
                 cpus, kBusyThreads, kSlots);
    return 3;
  }
  if (std::getenv("ATALIB_TUNING_CACHE") == nullptr) {
    std::fprintf(stderr, "perfbench: ATALIB_TUNING_CACHE must point at the pinned tuning cache\n");
    return 2;
  }
  std::string pin_text;
  if (!read_file(args.pins, pin_text)) {
    std::fprintf(stderr, "perfbench: cannot read pins file '%s'\n", args.pins.c_str());
    return 2;
  }
  const auto resolved = resolved_tuning();
  const auto mismatches = perfbench::pin_mismatches(perfbench::parse_pins(pin_text), resolved);
  Tally tally;
  if (!mismatches.empty()) {
    for (const auto& m : mismatches) std::fprintf(stderr, "perfbench: pin check: %s\n", m.c_str());
    print_result(false, tally, {});
    return 1;
  }

  // Stamp before any result, so every output names its host and build.
  {
    std::string pins = "{";
    for (std::size_t i = 0; i < resolved.size(); ++i) {
      pins += (i ? ", " : "") + quoted(resolved[i].key) + ": " + std::to_string(resolved[i].value);
    }
    pins += "}";
    std::printf(
        "{\"stamp\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
        "\"cpu_model\": %s, \"nproc\": %d, \"busy_threads\": %d, \"isa_f64\": %s, \"isa_f32\": "
        "%s, \"build_type\": %s, \"source\": %s, \"pins\": %s}}\n",
        quoted(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
        num(args.seconds).c_str(), args.trace ? 1 : 0, quoted(cpu_model()).c_str(), cpus,
        kBusyThreads, quoted(blas::kernels::active_config<double>().name).c_str(),
        quoted(blas::kernels::active_config<float>().name).c_str(),
        quoted(PERFBENCH_BUILD_TYPE).c_str(), quoted(args.source_id).c_str(), pins.c_str());
  }

  auto wl = make_workload(args.workload, args.seed);

  // Setup: Server construction until the first request of every shape has
  // completed. A round repeats it; the last server built is the one the
  // next slice measures.
  std::vector<double> setup_s;
  std::unique_ptr<api::Server> srv;
  const auto setup_round = [&] {
    double spent = 0;
    for (int rep = 0; rep < kSetupRoundMaxReps && (rep == 0 || spent < kSetupRoundS); ++rep) {
      srv.reset();
      const auto t0 = Clock::now();
      api::Server::Options o;
      o.threads = kSlots;
      srv = std::make_unique<api::Server>(o);
      wl->first_requests(*srv, tally);
      setup_s.push_back(seconds_since(t0));
      spent += setup_s.back();
    }
  };
  setup_round();
  if (srv->executor().concurrency() != kSlots) {
    std::fprintf(stderr, "perfbench: server has %d slots, expected %d\n",
                 srv->executor().concurrency(), kSlots);
    return 2;
  }
  wl->validate(*srv, tally);

  // Measured phase, in slices. An untraced run sets up a fresh server
  // before every slice after the first. A traced run keeps one server, so
  // its Server::stats() cover the whole phase, and alternates untraced and
  // traced slices (U T T U) so both see the same drift. The warm-path
  // counters are summed over the slices only.
  Tracer tracer(false);
  Phase untraced, traced(args.trace);
  Counters warm;
  const int slices = args.trace ? 4 : kSlices;
  for (int s = 0; s < slices; ++s) {
    if (s > 0 && !args.trace) setup_round();
    const bool on = args.trace && (s == 1 || s == 2);
    tracer.set_on(on);
    Phase& ph = on ? traced : untraced;
    const Counters before = Counters::read(*srv);
    ph.begin_slice();
    wl->loop(*srv, plus_seconds(ph.start, args.seconds / slices), tracer, ph, tally);
    ph.end_slice();
    warm.add_delta(before, Counters::read(*srv));
  }
  const double measured_s = untraced.seconds + traced.seconds;
  // Read before the summaries below allocate their copies of the log.
  const double mem_peak_mib = peak_rss_mib();
  const metrics::ServerStats sstats = srv->stats();
  const perfbench::RunSummary summary =
      perfbench::summarize_run(untraced.log.values(), untraced.log.stride(), untraced.steal);

  // Correctness and warm-path gates.
  std::vector<std::string> gate_failures;
  if (!tally.balanced()) gate_failures.push_back("outcome tally does not balance");
  if (tally.errors() != 0) {
    gate_failures.push_back(std::to_string(tally.errors()) + " of " +
                            std::to_string(tally.attempted) + " requests failed or were refused (" +
                            std::to_string(tally.wrong) + " wrong outputs)");
  }
  if (!wl->sentinels_intact()) gate_failures.push_back("strict upper triangle was written");
  if (warm.schedule_builds != 0) gate_failures.push_back("warm path built schedules");
  if (warm.workspace_grows != 0) gate_failures.push_back("warm path grew workspaces");
  if (warm.pack_allocs != 0) gate_failures.push_back("warm path allocated pack buffers");
  std::vector<double> lat_ms = untraced.latencies_ms();
  if (!args.trace && perfbench::highest_supported_percentile(summary.kept_samples, {50, 90}) < 90) {
    gate_failures.push_back("only " + std::to_string(summary.kept_samples) +
                            " latency samples; p90 needs at least 10 beyond it");
  }
  if (untraced.grams == 0 || (args.trace && traced.grams == 0)) {
    gate_failures.push_back("no request completed in the measured phase");
  }
  if (!gate_failures.empty()) {
    for (const auto& g : gate_failures) std::fprintf(stderr, "perfbench: gate: %s\n", g.c_str());
    print_result(false, tally, {});
    return 1;
  }

  const double rate_u = static_cast<double>(untraced.grams) / untraced.seconds;
  const double max_rel_err =
      static_cast<double>(std::max(wl->validated().max, wl->measured().max));
  // Figures that are not metrics but say how the run went.
  {
    std::string rates = "[";
    for (std::size_t c = 0; c < summary.chunk_rates.size(); ++c) {
      rates += (c ? ", " : "") + num(summary.chunk_rates[c]);
    }
    std::string stolen = "[";
    for (std::size_t c = 0; c < summary.chunk_stolen.size(); ++c) {
      stolen += (c ? ", " : "") + num(summary.chunk_stolen[c]);
    }
    std::string setups = "[";
    for (std::size_t r = 0; r < setup_s.size(); ++r) setups += (r ? ", " : "") + num(setup_s[r]);
    std::printf(
        "{\"detail\": {\"requests\": %llu, \"measured_s\": %s, \"latency_samples\": %zu, "
        "\"max_rel_err\": %s, \"validated_entries\": %llu, \"setup_s\": %s], "
        "\"chunks\": %zu, \"chunks_trimmed\": %zu, \"chunks_trimmed_stolen\": %zu, "
        "\"stolen_share\": %s, \"whole_run\": {\"grams_per_s\": %s, \"latency_p50_ms\": %s, "
        "\"latency_p90_ms\": %s}, \"grams_per_s_by_chunk\": %s], \"stolen_share_by_chunk\": %s], "
        "\"vm_hwm_mib\": %s}}\n",
        static_cast<unsigned long long>(untraced.grams), num(measured_s).c_str(), lat_ms.size(),
        num(max_rel_err).c_str(), static_cast<unsigned long long>(wl->validated().count),
        setups.c_str(), summary.chunks, summary.trimmed, summary.trimmed_stolen,
        num(untraced.stolen_share()).c_str(), num(rate_u).c_str(),
        num(perfbench::percentile(lat_ms, 50)).c_str(),
        num(perfbench::percentile(lat_ms, 90)).c_str(), rates.c_str(), stolen.c_str(),
        num(mem_peak_mib).c_str());
  }
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  if (!args.trace) {
    metrics = {
        {"grams_per_s", summary.rate_per_s, "1/s"},
        {"latency_p50_ms", summary.p50_ms, "ms"},
        {"latency_p90_ms", summary.p90_ms, "ms"},
        {"setup_s", perfbench::median(setup_s), "s"},
        {"mem_peak_mib", mem_peak_mib, "MiB"},
        {"rms_rel_err", static_cast<double>(wl->validated().rms()), "rel"},
    };
    print_result(true, tally, metrics);
    return 0;
  }

  // --- Traced run: per-layer probes on the idle server's client thread ----
  tracer.set_on(true);
  const double rate_t = static_cast<double>(traced.grams) / traced.seconds;
  const double p50_s = perfbench::percentile(lat_ms, 50) / 1e3;

  // blas: one thread, the workload's leaf shapes.
  const auto [syrk_shape, gemm_shape] = wl->leaf_shapes();
  const auto [syrk_gf, gemm_gf] = spanned(tracer, "blas.leaf_probe", [&] {
    return wl->f32() ? blas_gflops<float>(syrk_shape, gemm_shape, args.seed)
                     : blas_gflops<double>(syrk_shape, gemm_shape, args.seed);
  });

  // strassen and ata: one thread, on gram_large's A (f64 2048 x 2048).
  const auto big = random_uniform<double>(GramLarge::kShape.m, GramLarge::kShape.n,
                                          mix_seed(args.seed, 0));
  const RecurseOptions pinned;  // base 0 = the tuner's (pinned) cut-off
  const double vs_gemm = spanned(tracer, "strassen.vs_gemm_probe", [&] {
    const index_t half = GramLarge::kShape.n / 2;
    const auto a11 = big.block(0, 0, GramLarge::kShape.m, half);
    const auto a12 = big.block(0, half, GramLarge::kShape.m, half);
    auto c21 = Matrix<double>::zeros(half, half);
    const double t_gemm = time_per_call([&] { blas::gemm_tn(1.0, a12, a11, c21.view()); }, 5);
    const double t_str =
        time_per_call([&] { fast_strassen(1.0, a12, a11, c21.view(), pinned); }, 5);
    return t_gemm / t_str;
  });
  double t_ata = 0;
  const double vs_syrk = spanned(tracer, "ata.vs_syrk_probe", [&] {
    const index_t n = GramLarge::kShape.n;
    auto c = Matrix<double>::zeros(n, n);
    Arena<double> arena(static_cast<std::size_t>(
        ata_workspace_bound(GramLarge::kShape.m, n, pinned, sizeof(double))));
    const double t_syrk = time_per_call([&] { blas::syrk_ln(1.0, big.const_view(), c.view()); }, 5);
    t_ata = time_per_call([&] { ata(1.0, big.const_view(), c.view(), arena, pinned); }, 5);
    return t_syrk / t_ata;
  });

  // parallel: one-thread time per Gram over 3 x the served time per Gram.
  // gram_large serves one request at a time, so its served time is the p50
  // and its one-thread time is ata(); the others run their own loop on a
  // one-slot (workerless, inline) server.
  double efficiency = 0;
  if (args.workload == "gram_large") {
    efficiency = t_ata / (kBusyThreads * p50_s);
  } else {
    Tally t1;
    Phase ph1;
    Tracer off(false);
    api::Server::Options o;
    o.threads = 1;
    api::Server one(o);
    wl->first_requests(one, t1);
    ph1.begin_slice();
    wl->loop(one, plus_seconds(ph1.start, std::min(2.0, args.seconds / 4)), off, ph1, t1);
    ph1.end_slice();
    const double rate_1 = static_cast<double>(ph1.grams) / ph1.seconds;
    efficiency = rate_u / (kBusyThreads * rate_1);
    tally.attempted += t1.attempted;
    tally.ok += t1.ok;
    tally.failed += t1.failed;
    tally.refused += t1.refused;
    tally.wrong += t1.wrong;
  }

  // strassen: a fresh in-memory tuner, so the pin cannot hide instability.
  const TunerPicks tuner = spanned(tracer, "strassen.tuner", fresh_tuner_picks);

  // sched: plan build time per shape (the max over shapes is reported).
  const SharedOptions served = wl->served_options();
  const api::Dtype dtype = wl->f32() ? api::Dtype::kF32 : api::Dtype::kF64;
  double plan_build_ms = 0;
  std::string plan_build_detail = "{";
  for (const Shape& s : wl->shapes()) {
    const api::PlanKey key = api::shared_plan_key(dtype, s.m, s.n, served);
    const double ms = spanned(tracer, "sched.plan_build", [&] {
      return 1e3 * time_per_call([&] { (void)api::AtaPlan::build(key); }, 5);
    });
    plan_build_ms = std::max(plan_build_ms, ms);
    plan_build_detail += (plan_build_detail.size() > 1 ? ", " : "") +
                         quoted(std::to_string(s.m) + "x" + std::to_string(s.n)) + ": " + num(ms);
  }
  plan_build_detail += "}";

  // runtime: empty one-task round trip on the server's 4-slot pool.
  const double dispatch_us = spanned(tracer, "runtime.dispatch", [&] {
    auto& pool = srv->executor();
    const runtime::TaskFn noop = [](int, runtime::TaskContext&) {};
    return 1e6 * time_per_call([&] { pool.submit(1, noop).get(); }, 9);
  });

  // api: a plan-cache hit on the served key of the first shape.
  const Shape s0 = wl->shapes().front();
  const api::PlanKey hit_key = api::shared_plan_key(dtype, s0.m, s0.n, served);
  const auto misses0 = srv->plan_stats().misses;
  const double plan_hit_us = spanned(tracer, "api.plan_hit", [&] {
    return 1e6 * time_per_call([&] { (void)srv->plans().get_or_build(hit_key); }, 9);
  });
  if (srv->plan_stats().misses != misses0) {
    std::fprintf(stderr, "perfbench: plan-hit probe missed: probe key differs from served key\n");
    return 2;
  }

  const auto us = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e3; };
  const auto spans_self = perfbench::self_time_by_layer(tracer.spans());
  if (!args.trace_out.empty()) {
    std::map<std::string, std::string> meta;
    std::string self = "{";
    for (const auto& [layer, ns] : spans_self) {
      self += (self.size() > 1 ? ", " : "") + quoted(layer) + ": " + num(static_cast<double>(ns) / 1e6);
    }
    meta["self_ms_by_layer"] = self + "}";
    meta["plan_build_ms_by_shape"] = plan_build_detail;
    meta["spans_recorded"] = std::to_string(tracer.recorded());
    meta["workload"] = quoted(args.workload);
    meta["seed"] = std::to_string(args.seed);
    meta["isa_f64"] = quoted(blas::kernels::active_config<double>().name);
    meta["isa_f32"] = quoted(blas::kernels::active_config<float>().name);
    meta["source"] = quoted(args.source_id);
    if (!perfbench::write_chrome_trace(args.trace_out, tracer.spans(), meta)) {
      std::fprintf(stderr, "perfbench: cannot write trace to '%s'\n", args.trace_out.c_str());
      return 2;
    }
  }

  metrics = {
      {"blas.syrk_gflops", syrk_gf, "GFLOP/s"},
      {"blas.gemm_tn_gflops", gemm_gf, "GFLOP/s"},
      {"strassen.vs_gemm", vs_gemm, "ratio"},
      {"strassen.tuner_s", tuner.seconds, "s"},
      {"strassen.tuner_base_f64", static_cast<double>(tuner.base_f64), "elements"},
      {"strassen.tuner_base_f32", static_cast<double>(tuner.base_f32), "elements"},
      {"strassen.tuner_ts_f64", static_cast<double>(tuner.ts_f64), "ratio"},
      {"strassen.tuner_ts_f32", static_cast<double>(tuner.ts_f32), "ratio"},
      {"ata.vs_syrk", vs_syrk, "ratio"},
      {"parallel.efficiency", efficiency, "ratio"},
      {"sched.plan_build_ms", plan_build_ms, "ms"},
      {"sched.builds_warm", static_cast<double>(warm.schedule_builds), "count"},
      {"runtime.dispatch_us", dispatch_us, "us"},
      {"runtime.local_steals", static_cast<double>(warm.local_steals), "count"},
      {"runtime.remote_steals", static_cast<double>(warm.remote_steals), "count"},
      {"runtime.grows_warm", static_cast<double>(warm.workspace_grows), "count"},
      {"kernels.pack_allocs_warm", static_cast<double>(warm.pack_allocs), "count"},
      {"api.submit_us", perfbench::median(traced.submit_us.values()), "us"},
      {"api.wait_us", perfbench::median(traced.wait_us.values()), "us"},
      {"api.plan_hit_us", plan_hit_us, "us"},
      {"api.plan_hits", static_cast<double>(warm.plan_hits), "count"},
      {"api.plan_misses", static_cast<double>(warm.plan_misses), "count"},
      {"api.admission_wait_p50_us", us(sstats.admission_wait.p50_ns), "us"},
      {"api.queue_wait_p50_us", us(sstats.queue_wait.p50_ns), "us"},
      {"api.queue_wait_p99_us", us(sstats.queue_wait.p99_ns), "us"},
      {"api.compute_p50_us", us(sstats.compute.p50_ns), "us"},
      {"api.compute_p99_us", us(sstats.compute.p99_ns), "us"},
      {"error_rate", tally.error_rate(), "ratio"},
      {"max_rel_err", max_rel_err, "rel"},
      {"trace.overhead", rate_u / rate_t, "ratio"},
  };
  if (tally.errors() != 0) {
    std::fprintf(stderr, "perfbench: gate: one-slot efficiency run had failures\n");
    print_result(false, tally, {});
    return 1;
  }
  print_result(true, tally, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // Blocks above 128 KiB always come from mmap and go back on free. By
  // default glibc raises this threshold after the first such free, and an
  // untraced run frees a server before each slice; the freed workspaces
  // then stay in the heap, and peak RSS varied by up to 31 MiB between
  // runs of one seed depending on which heap the next server's threads got.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  CliFlags flags;
  flags.add_string("workload", "", "gram_large | batch_tall | serve_small");
  flags.add_int("seed", 1, "input seed");
  flags.add_double("seconds", 10, "length of the measured phase");
  flags.add_int("trace", 0, "1 = traced run with per-layer probes");
  flags.add_string("pins", "", "pinned tuning cache the resolved tuner values must equal");
  flags.add_string("trace-out", "", "Chrome trace-event JSON output (traced runs)");
  flags.add_string("source-id", "unknown", "identifier of the source tree, for the stamp");
  flags.add_string("probe-tuner", "", "print a fresh tuner's picks for this ISA tier and exit");
  if (!flags.parse(argc, argv)) return 2;
  if (!flags.get_string("probe-tuner").empty()) return probe_tuner(flags.get_string("probe-tuner"));

  Args args;
  args.workload = flags.get_string("workload");
  args.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  args.seconds = flags.get_double("seconds");
  args.trace = flags.get_int("trace") != 0;
  args.pins = flags.get_string("pins");
  args.trace_out = flags.get_string("trace-out");
  args.source_id = flags.get_string("source-id");
  if (args.workload != "gram_large" && args.workload != "batch_tall" &&
      args.workload != "serve_small") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (!(args.seconds > 0)) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
