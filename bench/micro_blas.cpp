// Microbenchmarks for the leaf BLAS kernels (bench_common harness).
//
// Everything in the reproduction — AtA, Strassen, both parallel algorithms
// and all baselines — bottoms out in gemm/syrk, so their GFLOP/s set the
// absolute height of every figure. This bench times each kernel under every
// dispatch path the machine offers (the cpuid-selected SIMD tier and the
// portable scalar tile), reports the SIMD-vs-scalar speedup, and writes the
// per-path records to --json (BENCH_blas.json), the repo's leaf-kernel perf
// baseline. The `microkernel` records are the ceiling those rates are read
// against: the register tile alone, in L1, at the configured KC. The
// `served` syrk_ln records are the leaf calls the perfbench workloads make
// (m x n inputs at fixed shapes, whatever --scale says), keyed by the
// workload that serves them. Each rate is one sample of at least
// bench::kMinSampleSeconds of back-to-back calls after one warm-up call,
// long enough for tools/perf_gate.py to compare with the parent build.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "blas/gemm.hpp"
#include "blas/kernels/registry.hpp"
#include "blas/syrk.hpp"
#include "matrix/matrix.hpp"

namespace {

using namespace atalib;
using blas::kernels::Isa;

/// Seconds per call of `fn`: one untimed warm-up call, then the mean over
/// a sample of at least bench::kMinSampleSeconds.
template <typename Fn>
double seconds_per_call(Fn&& fn) {
  fn();
  const bench::Sample s = bench::timed_sample(fn);
  return s.seconds / s.passes;
}

struct Measurement {
  std::string bench;
  std::string dtype;
  index_t n = 0;
  double seconds = 0;
  double gflops = 0;
  std::string dispatch;
  index_t m = 0;       // rows of A (syrk_ln rows; recorded for served rows only)
  std::string served;  // workload whose leaf this is; empty for the sweep rows
};

template <typename T>
Measurement time_gemm_tn(const char* name, index_t n, const std::string& dispatch) {
  const auto a = random_uniform<T>(n, n, 1);
  const auto b = random_uniform<T>(n, n, 2);
  auto c = Matrix<T>::zeros(n, n);
  const double secs =
      seconds_per_call([&] { blas::gemm_tn(T(1), a.const_view(), b.const_view(), c.view()); });
  const double flops = 2.0 * static_cast<double>(n) * n * n;
  return {name, sizeof(T) == 4 ? "f32" : "f64", n, secs, flops / secs / 1e9, dispatch};
}

template <typename T>
Measurement time_gemm_nn(const char* name, index_t n, const std::string& dispatch) {
  const auto a = random_uniform<T>(n, n, 3);
  const auto b = random_uniform<T>(n, n, 4);
  auto c = Matrix<T>::zeros(n, n);
  const double secs =
      seconds_per_call([&] { blas::gemm_nn(T(1), a.const_view(), b.const_view(), c.view()); });
  const double flops = 2.0 * static_cast<double>(n) * n * n;
  return {name, sizeof(T) == 4 ? "f32" : "f64", n, secs, flops / secs / 1e9, dispatch};
}

// syrk_ln on an m x n A: n^2 * m useful flops on the lower triangle (the
// paper's syrk count). `served` names the perfbench workload that makes
// this leaf call; empty for the square sweep (m == n).
template <typename T>
Measurement time_syrk(index_t m, index_t n, const std::string& dispatch,
                      const char* served = "") {
  const auto a = random_uniform<T>(m, n, 5);
  auto c = Matrix<T>::zeros(n, n);
  const double secs = seconds_per_call([&] { blas::syrk_ln(T(1), a.const_view(), c.view()); });
  const double flops = static_cast<double>(n) * n * m;
  return {"syrk_ln", sizeof(T) == 4 ? "f32" : "f64", n, secs, flops / secs / 1e9,
          dispatch, m, served};
}

// One packed MR x kc A micro-panel and one kc x NR B micro-panel (kc = the
// dispatch path's KC, so both stay in L1) swept repeatedly into one C tile:
// no packing, no cache misses, only the register tile's k-loop and
// writeback. n in the record is kc.
template <typename T>
Measurement time_microkernel(Isa isa, const std::string& dispatch) {
  const auto& cfg = blas::kernels::config_for<T>(isa);
  const index_t mr = cfg.uk.mr, nr = cfg.uk.nr, kc = cfg.blocks.kc;
  const auto a = random_uniform<T>(kc, mr, 6);
  const auto b = random_uniform<T>(kc, nr, 7);
  auto c = Matrix<T>::zeros(mr, nr);
  const double flops_per_call = 2.0 * static_cast<double>(mr) * nr * kc;
  const long calls = std::max(1L, static_cast<long>(2e8 / flops_per_call));
  const double secs = seconds_per_call([&] {
    for (long i = 0; i < calls; ++i) {
      cfg.uk.fn(kc, T(1), a.data(), mr, b.data(), nr, c.data(), nr, mr, nr);
    }
  });
  return {"microkernel", sizeof(T) == 4 ? "f32" : "f64", kc, secs,
          flops_per_call * static_cast<double>(calls) / secs / 1e9, dispatch};
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.add_double("scale", 1.0, "size multiplier vs the built-in laptop defaults");
  flags.add_string("json", "", "also write results as a JSON array to this path (\"\" = off)");
  if (!flags.parse(argc, argv)) return 1;
  const double scale = flags.get_double("scale");
  atalib::bench::JsonWriter json(flags.get_string("json"));

  atalib::bench::print_banner(
      "Leaf BLAS microkernels: GFLOP/s per dispatch path",
      "kernel calibration for Figs. 3-6 (absolute heights, not a paper figure)");

  // The automatic (cpuid-best) path first, then the forced-scalar path so
  // the JSON carries the SIMD speedup on every machine.
  std::vector<Isa> paths{blas::kernels::active_config<double>().isa};
  if (paths.front() != Isa::kScalar) paths.push_back(Isa::kScalar);

  const std::vector<index_t> sizes{atalib::bench::scaled(128, scale),
                                   atalib::bench::scaled(256, scale),
                                   atalib::bench::scaled(512, scale)};

  Table table("leaf kernels, mean over a sample of at least " +
              Table::num(atalib::bench::kMinSampleSeconds, 2) + " s");
  table.set_header({"bench", "dtype", "n", "m", "ms", "GFLOP/s", "dispatch", "served"});
  std::map<std::string, double> gemm_tn_gflops;  // dispatch -> largest-size GFLOP/s

  std::vector<Measurement> results;
  for (const Isa isa : paths) {
    blas::kernels::set_forced_isa(isa);
    const std::string dispatch = blas::kernels::isa_name(isa);
    for (const index_t n : sizes) {
      const Measurement tn = time_gemm_tn<double>("gemm_tn", n, dispatch);
      if (n == sizes.back()) gemm_tn_gflops[dispatch] = tn.gflops;
      results.push_back(tn);
      results.push_back(time_syrk<double>(n, n, dispatch));
    }
    results.push_back(time_gemm_nn<double>("gemm_nn", sizes[1], dispatch));
    results.push_back(time_gemm_tn<float>("gemm_tn", sizes[1], dispatch));
    results.push_back(time_syrk<float>(sizes[1], sizes[1], dispatch));
    results.push_back(time_microkernel<double>(isa, dispatch));
    results.push_back(time_microkernel<float>(isa, dispatch));
    results.push_back(time_syrk<float>(2048, 256, dispatch, "batch_tall"));
    results.push_back(time_syrk<double>(256, 256, dispatch, "gram_large"));
    results.push_back(time_syrk<double>(512, 64, dispatch, "serve_small"));
    results.push_back(time_syrk<double>(256, 32, dispatch, "serve_small"));
  }
  blas::kernels::set_forced_isa(std::nullopt);

  for (const Measurement& r : results) {
    table.add_row({r.bench, r.dtype, std::to_string(r.n), r.served.empty() ? "" : std::to_string(r.m),
                   Table::num(r.seconds * 1e3), Table::num(r.gflops, 2), r.dispatch, r.served});
    atalib::bench::JsonWriter::Record rec;
    rec.str("bench", r.bench)
        .str("dtype", r.dtype)
        .num("n", static_cast<std::uint64_t>(r.n))
        .num("seconds", r.seconds)
        .num("gflops", r.gflops)
        .str("dispatch", r.dispatch);
    if (!r.served.empty()) rec.num("m", static_cast<std::uint64_t>(r.m)).str("served", r.served);
    json.add(rec);
  }
  table.print();

  const std::string active = blas::kernels::isa_name(paths.front());
  if (paths.size() > 1) {
    std::printf("\ngemm_tn f64 n=%ld speedup (%s vs scalar): %.2fx\n",
                static_cast<long>(sizes.back()), active.c_str(),
                gemm_tn_gflops[active] / gemm_tn_gflops["scalar"]);
  } else {
    std::printf("\nonly the scalar path is available on this machine\n");
  }

  return json.flush() ? 0 : 1;
}
