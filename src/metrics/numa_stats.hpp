#pragma once
// Topology and steal-locality counters for the NUMA-aware runtime.
//
// Plain data, deliberately free of any runtime/ dependency: metrics/ sits
// at the bottom of the layering (DESIGN.md §1), so the producer lives above
// it — runtime::ThreadPool::numa_stats() fills one of these, and the
// serving introspection surface (api::Server::runtime_stats) and the
// runtime_pool bench report it. The per-node *scheduled* counts are
// assignment-time (where a task was enqueued, the Snippet-2-style test
// oracle — deterministic under the pool's block distribution); the *executed*
// counts are where tasks actually ran, which stealing may shift.

#include <cstdint>
#include <string>
#include <vector>

namespace atalib::metrics {

struct NumaPoolStats {
  int nodes = 1;
  bool fake_topology = false;  ///< synthesized via ATALIB_FAKE_NUMA
  std::vector<std::uint64_t> scheduled_per_node;  ///< tasks enqueued per node
  std::vector<std::uint64_t> executed_per_node;   ///< tasks executed per node
  std::uint64_t local_steals = 0;   ///< victim on the thief's own node
  std::uint64_t remote_steals = 0;  ///< victim on another node

  std::uint64_t total_scheduled() const;
  std::uint64_t total_executed() const;
  /// max − min over scheduled_per_node. Block distribution hands each slot
  /// ⌊n/S⌋ or ⌈n/S⌉ of a batch's n tasks over S slots, so on nodes with
  /// equal slot counts this stays within one batch's remainder (0 when S
  /// divides n). Queued submit() batches skip the caller slot, so that
  /// slot's node is scheduled correspondingly less.
  std::uint64_t scheduled_imbalance() const;
  /// local / (local + remote) in [0, 1]; 1.0 when no steal ever crossed a
  /// node boundary (including the no-steals-at-all case).
  double steal_locality() const;
  /// One-line human summary for logs and bench tables.
  std::string to_string() const;
};

}  // namespace atalib::metrics
