#include "strassen/tuner.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "blas/kernels/registry.hpp"
#include "common/cacheinfo.hpp"

namespace atalib::strassen {
namespace {

using blas::kernels::Isa;

/// Table slot of an (ISA, dtype) pair: the cut-off is a property of the
/// dispatched tier, so forced-ISA toggles read that tier's own entry.
std::size_t slot(Isa isa, bool f32) {
  return 2 * static_cast<std::size_t>(isa) + (f32 ? 1 : 0);
}

std::size_t active_slot(std::size_t elem_bytes) {
  const bool f32 = elem_bytes == sizeof(float);
  return slot(f32 ? blas::kernels::active_config<float>().isa
                  : blas::kernels::active_config<double>().isa,
              f32);
}

}  // namespace

Tuner::Tuner(const std::string& cache_path) {
  const auto probe_f64 = static_cast<index_t>(default_base_case_elements(sizeof(double)));
  const auto probe_f32 = static_cast<index_t>(default_base_case_elements(sizeof(float)));
  for (int i = 0; i < blas::kernels::kIsaCount; ++i) {
    const auto isa = static_cast<Isa>(i);
    base_[slot(isa, false)] = probe_f64;
    base_[slot(isa, true)] = probe_f32;
    ratio_[slot(isa, false)] = ratio_[slot(isa, true)] = 2;
  }
  if (cache_path.empty()) return;
  std::ifstream in(cache_path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string isa_tag, dtype;
    long long value = 0;
    if (!(ls >> isa_tag >> dtype >> value) || value <= 0) continue;
    for (int i = 0; i < blas::kernels::kIsaCount; ++i) {
      const auto isa = static_cast<Isa>(i);
      if (isa_tag != blas::kernels::isa_name(isa)) continue;
      if (dtype == "f64") base_[slot(isa, false)] = static_cast<index_t>(value);
      if (dtype == "f32") base_[slot(isa, true)] = static_cast<index_t>(value);
      if (dtype == "f64-ts") ratio_[slot(isa, false)] = static_cast<index_t>(value);
      if (dtype == "f32-ts") ratio_[slot(isa, true)] = static_cast<index_t>(value);
    }
  }
}

index_t Tuner::base_case_elements(std::size_t elem_bytes) const {
  return base_[active_slot(elem_bytes)];
}

index_t Tuner::tall_skinny_ratio(std::size_t elem_bytes) const {
  return ratio_[active_slot(elem_bytes)];
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

}  // namespace atalib
