#include "common/cacheinfo.hpp"

#include <unistd.h>

namespace atalib {
namespace {

std::size_t sysconf_or(int name, std::size_t fallback) {
#ifdef _SC_LEVEL1_DCACHE_SIZE
  long v = ::sysconf(name);
  if (v > 0) return static_cast<std::size_t>(v);
#else
  (void)name;
#endif
  return fallback;
}

}  // namespace

CacheInfo probe_cache_info() {
  CacheInfo info{};
#ifdef _SC_LEVEL1_DCACHE_SIZE
  info.l1_data_bytes = sysconf_or(_SC_LEVEL1_DCACHE_SIZE, 32u * 1024);
  info.l2_bytes = sysconf_or(_SC_LEVEL2_CACHE_SIZE, 256u * 1024);
  info.l3_bytes = sysconf_or(_SC_LEVEL3_CACHE_SIZE, 8u * 1024 * 1024);
#else
  info.l1_data_bytes = 32u * 1024;
  info.l2_bytes = 256u * 1024;
  info.l3_bytes = 8u * 1024 * 1024;
#endif
  if (info.l1_data_bytes == 0) info.l1_data_bytes = 32u * 1024;
  if (info.l2_bytes == 0) info.l2_bytes = 256u * 1024;
  if (info.l3_bytes == 0) info.l3_bytes = 8u * 1024 * 1024;
  return info;
}

std::size_t default_base_case_elements(std::size_t elem_bytes) {
  const CacheInfo info = probe_cache_info();
  return info.l2_bytes / 2 / elem_bytes;
}

}  // namespace atalib
