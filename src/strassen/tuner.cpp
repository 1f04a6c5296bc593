#include "strassen/tuner.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "ata/ata.hpp"
#include "blas/gemm.hpp"
#include "blas/kernels/registry.hpp"
#include "blas/syrk.hpp"
#include "common/cacheinfo.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "matrix/matrix.hpp"
#include "strassen/strassen.hpp"
#include "strassen/workspace.hpp"

namespace atalib::strassen {
namespace {

/// ATALIB_FORCE_SCALAR_KERNELS, read once: the kernel registry pins its
/// dispatch at first use the same way.
bool env_forces_scalar() {
  static const bool forced = [] {
    const char* v = std::getenv("ATALIB_FORCE_SCALAR_KERNELS");
    return v != nullptr && *v != '\0' && std::string_view(v) != "0";
  }();
  return forced;
}

const char* dtype_tag(std::size_t elem_bytes) {
  return elem_bytes == sizeof(float) ? "f32" : "f64";
}

using blas::kernels::Isa;

Isa active_isa(std::size_t elem_bytes) {
  return elem_bytes == sizeof(float) ? blas::kernels::active_config<float>().isa
                                     : blas::kernels::active_config<double>().isa;
}

/// Memo slot index: the tuned value is a property of (ISA, dtype) on this
/// machine, so forced-ISA toggles in tests re-tune rather than reuse a
/// crossover measured on a different tier.
std::size_t memo_index(Isa isa, std::size_t elem_bytes) {
  return 2 * static_cast<std::size_t>(isa) + (elem_bytes == sizeof(float) ? 1 : 0);
}

/// Cache-file key of the same (ISA, dtype) pair.
std::string tuning_key(Isa isa, std::size_t elem_bytes) {
  return std::string(blas::kernels::isa_name(isa)) + ' ' + dtype_tag(elem_bytes);
}

/// Best-of-`reps` times of two rivals, timed alternately: the tuner runs
/// first thing in a fresh process, and timing one side's reps before the
/// other's lets a clock ramp or a noisy neighbour during one side decide
/// the race.
template <typename F, typename G>
std::pair<double, double> race(F&& f, G&& g, int reps) {
  double tf = 1e300, tg = 1e300;
  for (int r = 0; r < reps; ++r) {
    tf = std::min(tf, min_time_of(f, 1));
    tg = std::min(tg, min_time_of(g, 1));
  }
  return {tf, tg};
}

/// Time the registry gemm against exactly one Strassen level at square size
/// n and return the crossover threshold, or 0 if Strassen never wins on the
/// ladder. base = n*n makes the top (n, n, n) call recurse (footprint 2n^2)
/// while all seven half-size children fire the base case (footprint ~n^2/2),
/// so the comparison isolates "one level of Strassen + fused adds" against
/// "one registry gemm" — the quantity the cut-off actually trades.
template <typename T>
index_t measure_crossover() {
  constexpr index_t kLadder[] = {96, 128, 160, 192, 256, 320};
  constexpr int kReps = 3;
  const index_t nmax = kLadder[sizeof(kLadder) / sizeof(kLadder[0]) - 1];

  Matrix<T> a(nmax, nmax), b(nmax, nmax), c(nmax, nmax);
  Xoshiro256 rng(0x5eed5eedULL);
  for (index_t i = 0; i < nmax * nmax; ++i) {
    a.data()[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
    b.data()[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
    c.data()[i] = T(0);
  }

  for (const index_t n : kLadder) {
    const ConstMatrixView<T> av(a.data(), n, n, nmax);
    const ConstMatrixView<T> bv(b.data(), n, n, nmax);
    MatrixView<T> cv(c.data(), n, n, nmax);

    RecurseOptions one_level;
    one_level.base_case_elements = n * n;  // explicit: never re-enters the tuner
    Arena<T> arena(static_cast<std::size_t>(
        strassen_workspace_bound(n, n, n, one_level, sizeof(T))));
    const auto [t_gemm, t_strassen] =
        race([&] { blas::gemm_tn(T(1), av, bv, cv); },
             [&] { strassen_tn(T(1), av, bv, cv, arena, one_level); }, kReps);

    if (t_strassen < t_gemm) {
      // Smallest ladder size where one Strassen level wins: pick the largest
      // base budget that still makes (n, n, n) recurse.
      return 2 * n * n - 1;
    }
  }
  return 0;
}

/// Time the Strassen AtA recursion against the blocked syrk (the kBlas
/// engine) on m = ratio * n inputs (n fixed small, the serving shape) and
/// return the smallest ladder ratio where syrk wins, or 0 if it never
/// does. `base` is the already-resolved Strassen base-case cut-off, passed
/// in so this measurement can never re-enter the tuner.
template <typename T>
index_t measure_ts_crossover(index_t base) {
  constexpr index_t kN = 64;
  constexpr index_t kRatios[] = {2, 4, 8, 16, 32};
  constexpr int kReps = 3;
  const index_t mmax = kRatios[sizeof(kRatios) / sizeof(kRatios[0]) - 1] * kN;

  Matrix<T> a(mmax, kN);
  Matrix<T> c(kN, kN);
  Xoshiro256 rng(0x7a11f1a7ULL);
  for (index_t i = 0; i < mmax * kN; ++i) {
    a.data()[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
  }
  for (index_t i = 0; i < kN * kN; ++i) c.data()[i] = T(0);

  RecurseOptions rec;
  rec.base_case_elements = base;  // explicit: never re-enters the tuner
  for (const index_t ratio : kRatios) {
    const index_t m = ratio * kN;
    const ConstMatrixView<T> av(a.data(), m, kN, kN);
    MatrixView<T> cv = c.view();

    Arena<T> arena(static_cast<std::size_t>(
        std::max(ata_workspace_bound(m, kN, rec, sizeof(T)),
                 blas::syrk_workspace_bound<T>(m, kN))));
    const auto [t_strassen, t_syrk] = race([&] { ata(T(1), av, cv, arena, rec); },
                                           [&] {
                                             arena.reset();
                                             blas::syrk_ln(T(1), av, cv, &arena);
                                           },
                                           kReps);
    if (t_syrk < t_strassen) return ratio;
  }
  return 0;
}

}  // namespace

index_t Tuner::load_cached(const std::string& key) const {
  if (cache_path_.empty()) return 0;
  std::ifstream in(cache_path_);
  if (!in) return 0;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string isa, dtype;
    long long value = 0;
    if ((ls >> isa >> dtype >> value) && isa + ' ' + dtype == key && value > 0) {
      return static_cast<index_t>(value);
    }
  }
  return 0;
}

void Tuner::store(const std::string& key, index_t value) const {
  if (cache_path_.empty()) return;
  // Rewrite the file keeping other (isa, dtype) entries; best-effort — a
  // missing or unwritable cache only costs a re-measurement next process.
  std::ostringstream out;
  {
    std::ifstream in(cache_path_);
    std::string line;
    while (in && std::getline(in, line)) {
      std::istringstream ls(line);
      std::string isa, dtype;
      if ((ls >> isa >> dtype) && isa + ' ' + dtype == key) continue;
      if (!line.empty()) out << line << '\n';
    }
  }
  out << key << ' ' << value << '\n';
  std::ofstream f(cache_path_, std::ios::trunc);
  if (f) f << out.str();
}

index_t Tuner::base_case_elements(std::size_t elem_bytes) {
  const Isa isa = active_isa(elem_bytes);
  const index_t memo = base_[memo_index(isa, elem_bytes)].load(std::memory_order_acquire);
  return memo != 0 ? memo : resolve_base(isa, elem_bytes);
}

index_t Tuner::tall_skinny_ratio(std::size_t elem_bytes) {
  const Isa isa = active_isa(elem_bytes);
  const index_t memo = ratio_[memo_index(isa, elem_bytes)].load(std::memory_order_acquire);
  return memo != 0 ? memo : resolve_ratio(isa, elem_bytes);
}

index_t Tuner::resolve_base(Isa isa, std::size_t elem_bytes) {
  const index_t probed =
      static_cast<index_t>(default_base_case_elements(elem_bytes));
  std::atomic<index_t>& slot = base_[memo_index(isa, elem_bytes)];
  MutexLock lock(mu_);
  if (const index_t memo = slot.load(std::memory_order_relaxed)) return memo;
  const std::string key = tuning_key(isa, elem_bytes);
  // The forced-scalar CI leg must behave identically across machines, so it
  // ignores both the cache file and the measurement.
  index_t value = env_forces_scalar() ? probed : load_cached(key);
  if (value == 0) {
    const index_t measured = elem_bytes == sizeof(float)
                                 ? measure_crossover<float>()
                                 : measure_crossover<double>();
    // No crossover on the ladder -> the static cache probe is the best
    // information we have. Clamp a measured value so a noisy run cannot
    // produce a degenerate cut-off.
    value = measured == 0 ? probed
                          : std::min(std::max<index_t>(measured, 1024), 4 * probed);
    store(key, value);
  }
  slot.store(value, std::memory_order_release);
  return value;
}

index_t Tuner::resolve_ratio(Isa isa, std::size_t elem_bytes) {
  // Static default when measurement is unavailable: m/n >= 8 is deep into
  // the territory where the recursion's n-extent halving has hit min_dim.
  constexpr index_t kDefault = 8;
  // Resolve the Strassen side's cut-off first (its own lock acquisition, so
  // the measurement below can never re-enter the tuner lock).
  const index_t base = env_forces_scalar() ? 0 : base_case_elements(elem_bytes);

  std::atomic<index_t>& slot = ratio_[memo_index(isa, elem_bytes)];
  MutexLock lock(mu_);
  if (const index_t memo = slot.load(std::memory_order_relaxed)) return memo;
  const std::string key = tuning_key(isa, elem_bytes) + "-ts";
  index_t value = env_forces_scalar() ? kDefault : load_cached(key);
  if (value == 0) {
    const index_t measured = elem_bytes == sizeof(float)
                                 ? measure_ts_crossover<float>(base)
                                 : measure_ts_crossover<double>(base);
    // No crossover on the ladder -> syrk never won; a huge ratio keeps the
    // planner on the recursion for every realistic shape.
    value = measured == 0 ? (index_t{1} << 20)
                          : std::min(std::max<index_t>(measured, 2), index_t{64});
    store(key, value);
  }
  slot.store(value, std::memory_order_release);
  return value;
}

Tuner& Tuner::global() {
  static Tuner tuner = [] {
    const char* path = std::getenv("ATALIB_TUNING_CACHE");
    return Tuner(path != nullptr ? std::string(path) : std::string());
  }();
  return tuner;
}

}  // namespace atalib::strassen

namespace atalib {

index_t tuned_base_case_elements(std::size_t elem_bytes) {
  return strassen::Tuner::global().base_case_elements(elem_bytes);
}

index_t tuned_tall_skinny_ratio(std::size_t elem_bytes) {
  return strassen::Tuner::global().tall_skinny_ratio(elem_bytes);
}

}  // namespace atalib
