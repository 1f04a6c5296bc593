#include "common/cacheinfo.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

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

namespace {

/// Parse a kernel cpulist ("0-3,8,10-11") into cpu ids; nullopt on junk.
std::optional<std::vector<int>> parse_cpulist(const std::string& list) {
  std::vector<int> cpus;
  std::istringstream in(list);
  std::string range;
  while (std::getline(in, range, ',')) {
    // Trim whitespace (the sysfs file ends with '\n').
    const auto b = range.find_first_not_of(" \t\n");
    const auto e = range.find_last_not_of(" \t\n");
    if (b == std::string::npos) continue;
    range = range.substr(b, e - b + 1);
    std::size_t pos = 0;
    long lo = 0, hi = 0;
    try {
      lo = std::stol(range, &pos);
    } catch (...) {
      return std::nullopt;
    }
    if (pos < range.size() && range[pos] == '-') {
      std::size_t pos2 = 0;
      try {
        hi = std::stol(range.substr(pos + 1), &pos2);
      } catch (...) {
        return std::nullopt;
      }
      if (pos + 1 + pos2 != range.size()) return std::nullopt;
    } else {
      if (pos != range.size()) return std::nullopt;
      hi = lo;
    }
    if (lo < 0 || hi < lo) return std::nullopt;
    for (long c = lo; c <= hi; ++c) cpus.push_back(static_cast<int>(c));
  }
  if (cpus.empty()) return std::nullopt;
  return cpus;
}

NumaTopology single_node_fallback() {
  NumaTopology topo;
  int n = static_cast<int>(std::thread::hardware_concurrency());
  if (n < 1) n = 1;
  NumaNode node;
  node.id = 0;
  node.cpus.reserve(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) node.cpus.push_back(c);
  topo.nodes.push_back(std::move(node));
  return topo;
}

/// First line of `path`, or nullopt when the file cannot be opened.
std::optional<std::string> read_line(const std::string& path) {
  std::ifstream f(path);
  if (!f) return std::nullopt;
  std::string line;
  std::getline(f, line);
  return line;
}

}  // namespace

std::optional<NumaTopology> probe_sysfs_topology(const std::string& root) {
  // Node ids are not necessarily dense: `online` lists the ones that exist,
  // in the same range syntax as a cpulist.
  const auto online = read_line(root + "/online");
  if (!online) return std::nullopt;
  const auto ids = parse_cpulist(*online);
  if (!ids) return std::nullopt;
  NumaTopology topo;
  for (int id : *ids) {
    const auto list = read_line(root + "/node" + std::to_string(id) + "/cpulist");
    if (!list) continue;
    auto cpus = parse_cpulist(*list);
    if (!cpus) continue;  // memory-only node (no CPUs): skip for scheduling
    NumaNode node;
    node.id = id;
    node.cpus = std::move(*cpus);
    topo.nodes.push_back(std::move(node));
  }
  if (topo.nodes.empty()) return std::nullopt;
  return topo;
}

int NumaTopology::total_cpus() const {
  int n = 0;
  for (const NumaNode& node : nodes) n += static_cast<int>(node.cpus.size());
  return n;
}

int NumaTopology::node_of_cpu(int cpu) const {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (std::find(nodes[i].cpus.begin(), nodes[i].cpus.end(), cpu) != nodes[i].cpus.end()) {
      return static_cast<int>(i);
    }
  }
  return 0;
}

std::optional<NumaTopology> parse_fake_numa(const std::string& spec) {
  std::size_t pos = 0;
  long nnodes = 0, ncpus = 0;
  try {
    nnodes = std::stol(spec, &pos);
  } catch (...) {
    return std::nullopt;
  }
  if (pos >= spec.size() || (spec[pos] != 'x' && spec[pos] != 'X')) return std::nullopt;
  std::size_t pos2 = 0;
  try {
    ncpus = std::stol(spec.substr(pos + 1), &pos2);
  } catch (...) {
    return std::nullopt;
  }
  if (pos + 1 + pos2 != spec.size()) return std::nullopt;
  if (nnodes < 1 || ncpus < 1 || nnodes > 1024 || ncpus > 4096) return std::nullopt;
  NumaTopology topo;
  topo.fake = true;
  int cpu = 0;
  for (long n = 0; n < nnodes; ++n) {
    NumaNode node;
    node.id = static_cast<int>(n);
    for (long c = 0; c < ncpus; ++c) node.cpus.push_back(cpu++);
    topo.nodes.push_back(std::move(node));
  }
  return topo;
}

NumaTopology probe_numa_topology() {
  if (const char* env = std::getenv("ATALIB_FAKE_NUMA"); env != nullptr && env[0] != '\0') {
    auto fake = parse_fake_numa(env);
    if (!fake) {
      throw std::invalid_argument(
          std::string("ATALIB_FAKE_NUMA must be \"<nodes>x<cpus>\" with positive counts, "
                      "got \"") +
          env + "\"");
    }
    return *fake;
  }
  if (auto sysfs = probe_sysfs_topology("/sys/devices/system/node")) return *sysfs;
  return single_node_fallback();
}

}  // namespace atalib
