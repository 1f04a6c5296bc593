#include "blas/kernels/registry.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/cacheinfo.hpp"

namespace atalib::blas::kernels {
namespace {

bool env_forces_scalar() {
  const char* v = std::getenv("ATALIB_FORCE_SCALAR_KERNELS");
  return v != nullptr && *v != '\0' && std::string_view(v) != "0";
}

/// The process default: -1 = automatic (best supported), or scalar when
/// ATALIB_FORCE_SCALAR_KERNELS was set at startup — the env pin survives
/// set_forced_isa(nullopt), which restores this default, not plain
/// automatic.
int default_state() {
  static const int def = env_forces_scalar() ? static_cast<int>(Isa::kScalar) : -1;
  return def;
}

/// Current dispatch override; initialized from the env-derived default at
/// first access so the pin applies regardless of when the first gemm runs.
std::atomic<int>& forced_state() {
  static std::atomic<int> state{default_state()};
  return state;
}

index_t round_down(index_t v, index_t mult) { return v / mult * mult; }
index_t round_up(index_t v, index_t mult) { return (v + mult - 1) / mult * mult; }

BlockSizes pick_blocks(index_t mr, index_t nr, std::size_t elem) {
  const CacheInfo ci = probe_cache_info();
  const auto div = [](std::size_t bytes, std::size_t per) {
    return static_cast<index_t>(bytes / per);
  };
  index_t kc = div(ci.l1_data_bytes, static_cast<std::size_t>(mr + nr) * elem);
  kc = std::clamp<index_t>(round_down(kc, 8), 64, 320);
  index_t mc = div(ci.l2_bytes / 2, static_cast<std::size_t>(kc) * elem);
  mc = std::max(mr, round_down(std::min<index_t>(mc, 768), mr));
  index_t nc = div(ci.l3_bytes / 2, static_cast<std::size_t>(kc) * elem);
  nc = std::max(nr, round_down(std::min<index_t>(nc, 2048), nr));
  return BlockSizes{mc, kc, nc, static_cast<index_t>(ci.l2_bytes * 3 / 16)};
}

const KernelEntry* find_compiled(Isa isa) {
  for (const KernelEntry* e : compiled_kernels()) {
    if (e->isa == isa) return e;
  }
  return nullptr;
}

template <typename T>
Microkernel<T> entry_kernel(const KernelEntry& e);
template <>
Microkernel<float> entry_kernel<float>(const KernelEntry& e) {
  return e.f32;
}
template <>
Microkernel<double> entry_kernel<double>(const KernelEntry& e) {
  return e.f64;
}

/// Config for `isa` if compiled + supported, else nullptr. Built once per
/// (Isa, dtype); the cacheinfo probe runs at most kIsaCount times.
template <typename T>
const KernelConfig<T>* try_config(Isa isa) {
  static std::array<KernelConfig<T>, kIsaCount> configs;
  static std::array<std::once_flag, kIsaCount> built;
  const KernelEntry* e = find_compiled(isa);
  if (e == nullptr || !e->supported()) return nullptr;
  const auto i = static_cast<std::size_t>(isa);
  std::call_once(built[i], [&] {
    const Microkernel<T> uk = entry_kernel<T>(*e);
    // The packed-SYRK diagonal temporary is a fixed kMaxMR x kMaxNR stack
    // tile; a wider registered kernel would silently overrun it.
    if (uk.mr <= 0 || uk.nr <= 0 || uk.mr > kMaxMR || uk.nr > kMaxNR) {
      throw std::logic_error(std::string("kernel tile out of range for ") + isa_name(isa) +
                             ": raise kMaxMR/kMaxNR in microkernel.hpp");
    }
    configs[i] = KernelConfig<T>{isa, isa_name(isa), uk, pick_blocks(uk.mr, uk.nr, sizeof(T))};
  });
  return &configs[i];
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kNeon:
      return "neon";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

const std::vector<const KernelEntry*>& compiled_kernels() {
  static const std::vector<const KernelEntry*> kernels = [] {
    std::vector<const KernelEntry*> v;
#if defined(ATALIB_KERNELS_AVX512)
    v.push_back(&avx512_kernel_entry());
#endif
#if defined(ATALIB_KERNELS_AVX2)
    v.push_back(&avx2_kernel_entry());
#endif
#if defined(ATALIB_KERNELS_NEON)
    v.push_back(&neon_kernel_entry());
#endif
    v.push_back(&scalar_kernel_entry());
    return v;
  }();
  return kernels;
}

std::vector<const KernelEntry*> available_kernels() {
  std::vector<const KernelEntry*> v;
  for (const KernelEntry* e : compiled_kernels()) {
    if (e->supported()) v.push_back(e);
  }
  return v;
}

void set_forced_isa(std::optional<Isa> isa) {
  if (isa.has_value()) {
    const KernelEntry* e = find_compiled(*isa);
    if (e == nullptr || !e->supported()) {
      throw std::invalid_argument(std::string("kernel ISA not available here: ") +
                                  isa_name(*isa));
    }
  }
  forced_state().store(isa ? static_cast<int>(*isa) : default_state(),
                       std::memory_order_relaxed);
}

std::optional<Isa> forced_isa() {
  const int v = forced_state().load(std::memory_order_relaxed);
  if (v < 0) return std::nullopt;
  return static_cast<Isa>(v);
}

template <typename T>
const KernelConfig<T>& active_config() {
  const int forced = forced_state().load(std::memory_order_relaxed);
  if (forced >= 0) {
    if (const KernelConfig<T>* cfg = try_config<T>(static_cast<Isa>(forced))) return *cfg;
  }
  for (const KernelEntry* e : compiled_kernels()) {
    if (const KernelConfig<T>* cfg = try_config<T>(e->isa)) return *cfg;
  }
  // Unreachable: the scalar entry is always compiled and always supported.
  return *try_config<T>(Isa::kScalar);
}

namespace {

template <typename T>
const TileOps<T>& entry_tileops(const KernelEntry& e);
template <>
const TileOps<float>& entry_tileops<float>(const KernelEntry& e) {
  return e.f32_ops;
}
template <>
const TileOps<double>& entry_tileops<double>(const KernelEntry& e) {
  return e.f64_ops;
}

}  // namespace

template <typename T>
const TileOps<T>& active_tileops() {
  // Same pinning rules as active_config(); tile ops need no blocking or
  // cacheinfo, so the entry table is consulted directly.
  const int forced = forced_state().load(std::memory_order_relaxed);
  if (forced >= 0) {
    const KernelEntry* e = find_compiled(static_cast<Isa>(forced));
    if (e != nullptr && e->supported()) return entry_tileops<T>(*e);
  }
  for (const KernelEntry* e : compiled_kernels()) {
    if (e->supported()) return entry_tileops<T>(*e);
  }
  return entry_tileops<T>(scalar_kernel_entry());
}

template <typename T>
const KernelConfig<T>& config_for(Isa isa) {
  if (const KernelConfig<T>* cfg = try_config<T>(isa)) return *cfg;
  throw std::invalid_argument(std::string("kernel ISA not available here: ") + isa_name(isa));
}

template <typename T>
PackExtents pack_extents(const KernelConfig<T>& cfg, index_t m, index_t n, index_t k) {
  const index_t kc = std::min(cfg.blocks.kc, k);
  const index_t mc = std::min(cfg.blocks.mc, round_up(m, cfg.uk.mr));
  const index_t nc = std::min(cfg.blocks.nc, round_up(n, cfg.uk.nr));
  return PackExtents{mc * kc, kc * nc};
}

template <typename T>
index_t pack_bound(index_t m, index_t n, index_t k) {
  index_t bound = 0;
  for (const KernelEntry* e : compiled_kernels()) {
    const KernelConfig<T>* cfg = try_config<T>(e->isa);
    if (cfg == nullptr) continue;
    const PackExtents ext = pack_extents(*cfg, m, n, k);
    bound = std::max(bound, ext.a + ext.b);
  }
  return bound;
}

#define ATALIB_KERNELS_INST(T)                                                        \
  template const KernelConfig<T>& active_config<T>();                                 \
  template const TileOps<T>& active_tileops<T>();                                     \
  template const KernelConfig<T>& config_for<T>(Isa);                                 \
  template PackExtents pack_extents<T>(const KernelConfig<T>&, index_t, index_t,      \
                                       index_t);                                      \
  template index_t pack_bound<T>(index_t, index_t, index_t)
ATALIB_KERNELS_INST(float);
ATALIB_KERNELS_INST(double);
#undef ATALIB_KERNELS_INST

}  // namespace atalib::blas::kernels
