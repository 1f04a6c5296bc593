#pragma once
// Runtime cache-size and NUMA-topology probes.
//
// AtA's base-case condition is "the sub-problem fits in cache" (Algorithm 1,
// line 2). The algorithm is cache-oblivious — the threshold only decides
// where recursion hands off to the leaf BLAS kernel — but picking it near
// the actual cache size is what makes the leaf kernel efficient, so we read
// the hierarchy from the OS when available and fall back to common values.
//
// The NUMA half feeds the topology-aware runtime (DESIGN.md §7): on the
// multi-socket boxes a serving deployment runs on, a leaf GEMM against a
// remote-node packed panel throws away the SIMD-kernel wins, so the
// ThreadPool groups workers by node and places memory node-locally. The
// probe reads /sys/devices/system/node on Linux and degrades to one node
// spanning every CPU elsewhere; ATALIB_FAKE_NUMA=<nodes>x<cpus> synthesizes
// a multi-node topology so those code paths run deterministically on
// single-node CI machines.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace atalib {

struct CacheInfo {
  std::size_t l1_data_bytes;
  std::size_t l2_bytes;
  std::size_t l3_bytes;
};

/// Probe L1d/L2/L3 sizes via sysconf; zero entries are replaced by
/// conservative defaults (32 KiB / 256 KiB / 8 MiB).
CacheInfo probe_cache_info();

/// Default AtA/Strassen base-case threshold in *elements* for element size
/// `elem_bytes`: the number of scalars that fit in half the L2 cache
/// (operands of the leaf multiply should fit concurrently).
std::size_t default_base_case_elements(std::size_t elem_bytes);

/// One memory node and the CPUs whose local memory it is.
struct NumaNode {
  int id = 0;
  std::vector<int> cpus;
};

struct NumaTopology {
  std::vector<NumaNode> nodes;  ///< never empty; sorted by id
  /// True when the topology was synthesized from ATALIB_FAKE_NUMA. Fake
  /// CPU ids need not exist on the host, so consumers must not pin threads
  /// to them — placement logic still runs, affinity syscalls do not.
  bool fake = false;

  int num_nodes() const { return static_cast<int>(nodes.size()); }
  int total_cpus() const;
  /// Node owning `cpu`, or 0 when the cpu is not listed (always a valid
  /// index, so callers need no fallback path).
  int node_of_cpu(int cpu) const;
};

/// Parse a "<nodes>x<cpus>" spec (e.g. "2x4": 2 nodes, 4 CPUs each, cpu
/// ids assigned blockwise 0..7). Returns nullopt on malformed input or
/// non-positive counts. Exposed for direct unit testing.
std::optional<NumaTopology> parse_fake_numa(const std::string& spec);

/// Read the NUMA topology from a Linux sysfs node directory (normally
/// /sys/devices/system/node): the node ids listed in `<root>/online`, each
/// with the CPUs in `<root>/node<id>/cpulist`. Memory-only nodes (empty
/// cpulist) are skipped. Returns nullopt when `online` is missing or
/// malformed or no listed node has CPUs. Exposed for direct unit testing.
std::optional<NumaTopology> probe_sysfs_topology(const std::string& root);

/// Discover the NUMA topology. Order of precedence:
///   1. ATALIB_FAKE_NUMA=<nodes>x<cpus> (throws std::invalid_argument on a
///      malformed value — a typo'd override must fail loudly, not silently
///      change placement),
///   2. probe_sysfs_topology("/sys/devices/system/node") on Linux,
///   3. a single node spanning hardware_concurrency CPUs.
/// Reads the environment on every call (no process-wide cache) so tests and
/// freshly constructed pools honor the current override.
NumaTopology probe_numa_topology();

}  // namespace atalib
