#pragma once
// Compile-once / execute-many plans for the serving front-end.
//
// The paper's schedules depend only on the problem *shape* — (m, n, P,
// oversub) for AtA-S, (m, n, P, alpha) for AtA-D — never on the matrix
// entries, so a repeated-traffic workload should pay for planning exactly
// once per shape. An AtaPlan freezes everything a request would otherwise
// recompute: the task tree (sched::build_shared_schedule or
// sched::build_dist_tree), the per-task workspace high-water marks from
// parallel/leaf_exec.hpp, the rank chains, and the engine/cut-off options.
// Plans are immutable after build and shared by const pointer, so any
// number of concurrent executions (api/execute.hpp, api/server.hpp) can
// read one plan without synchronization.

#include <cstdint>
#include <memory>
#include <vector>

#include "dist/options.hpp"
#include "parallel/ata_shared.hpp"
#include "sched/dist_tree.hpp"
#include "sched/shared_schedule.hpp"

namespace atalib::api {

/// Scalar type a plan was sized for. Workspace bounds depend on the
/// element size (the base-case cut-off is a cache footprint), so float and
/// double plans for one shape are distinct cache entries.
enum class Dtype { kF32, kF64 };

template <typename T>
constexpr Dtype dtype_of() {
  static_assert(std::is_same_v<T, float> || std::is_same_v<T, double>,
                "plans support float and double");
  return std::is_same_v<T, float> ? Dtype::kF32 : Dtype::kF64;
}

enum class PlanMode { kShared, kDist };

/// Everything schedule construction depends on — the plan-cache key. Two
/// requests with equal keys are served by one plan.
struct PlanKey {
  PlanMode mode = PlanMode::kShared;
  Dtype dtype = Dtype::kF64;
  index_t m = 0;  ///< input rows
  index_t n = 0;  ///< input cols (C is n x n)
  int p = 1;      ///< the paper's P: threads (shared) / processes (dist)
  int oversub = 1;         ///< shared only; always 1 for dist plans
  double lb_alpha = 0.0;   ///< dist only (§4.1.2); always 0 for shared plans
  /// The leaf engine the request named; the key builders never rewrite it.
  LeafEngine engine = LeafEngine::kBlas;
  /// kStrassen keys: the *resolved* cut-off (auto -> tuner value) and the
  /// request's min_dim. kBlas keys carry neither (0 and the default 8).
  index_t base_case_elements = 0;
  index_t min_dim = 8;

  bool operator==(const PlanKey&) const = default;

  RecurseOptions recurse() const {
    RecurseOptions r;
    r.base_case_elements = base_case_elements;
    r.min_dim = min_dim;
    return r;
  }
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const noexcept;
};

/// Key for an AtA-S request. `opts` must already be validated; its QoS
/// fields (priority, deadline) are not part of the key.
PlanKey shared_plan_key(Dtype dtype, index_t m, index_t n, const SharedOptions& opts);

/// Key for an AtA-D request.
PlanKey dist_plan_key(Dtype dtype, index_t m, index_t n, const dist::DistOptions& opts);

/// An immutable, shape-bound execution plan. Shared-mode plans carry the
/// AtA-S task list plus workspace bounds; dist-mode plans carry the AtA-D
/// tree, per-rank chains, and the rank-pool arena bound. All sizes are in
/// elements of key().dtype.
class AtaPlan {
 public:
  /// Build a plan from scratch (one schedule build). Most callers should
  /// go through PlanCache::get_or_build instead.
  static std::shared_ptr<const AtaPlan> build(const PlanKey& key);

  const PlanKey& key() const { return key_; }
  RecurseOptions recurse() const { return key_.recurse(); }
  LeafEngine engine() const { return key_.engine; }

  // --- Shared mode -------------------------------------------------------
  const sched::SharedSchedule& schedule() const { return schedule_; }
  /// Largest arena any one task needs (max leaf_op_workspace over every
  /// task's ops) — what every pool slot is warmed to (stealing may route
  /// any task to any slot). For dist plans: the per-rank bound
  /// (entry-region accumulator plus leaf scratch).
  std::size_t workspace_bound() const { return workspace_bound_; }

  // --- Dist mode ---------------------------------------------------------
  const sched::DistTree& tree() const { return tree_; }
  const std::vector<std::vector<int>>& rank_chains() const { return chains_; }
  /// Ranks the tree actually uses (== key().p except degenerate shapes).
  int ranks() const { return ranks_; }
  /// Largest per-leaf multiplication count (DistResult::max_leaf_flops).
  double max_leaf_flops() const { return max_leaf_flops_; }

 private:
  AtaPlan() = default;

  PlanKey key_;
  sched::SharedSchedule schedule_;
  std::size_t workspace_bound_ = 0;
  sched::DistTree tree_;
  std::vector<std::vector<int>> chains_;
  int ranks_ = 1;
  double max_leaf_flops_ = 0;
};

}  // namespace atalib::api
