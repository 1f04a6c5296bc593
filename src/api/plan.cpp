#include "api/plan.hpp"

#include <algorithm>

#include "parallel/leaf_exec.hpp"

namespace atalib::api {
namespace {

void hash_combine(std::size_t& seed, std::size_t v) {
  // splitmix-style mix; good enough for an unordered_map bucket spread.
  seed ^= v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
}

/// Largest arena request any op in `ops` can make, in elements of `dtype`.
index_t ops_workspace(const std::vector<sched::LeafOp>& ops, const PlanKey& key) {
  const RecurseOptions rec = key.recurse();
  index_t bound = 0;
  for (const auto& op : ops) {
    const index_t b = key.dtype == Dtype::kF32
                          ? leaf_op_workspace<float>(op, key.engine, rec)
                          : leaf_op_workspace<double>(op, key.engine, rec);
    bound = std::max(bound, b);
  }
  return bound;
}

/// The cut-off part of a key. Only the Strassen engine recurses, so only
/// its keys carry one, and they store the *resolved* value (auto -> tuning
/// cache or probe): a plan's workspace bounds then always match the leaves'
/// actual recursion. Classical keys keep the zero defaults, so they never
/// consult the tuner and requests that differ only in unused cut-offs
/// share one plan.
void set_cutoff(PlanKey& key, const RecurseOptions& recurse) {
  if (key.engine != LeafEngine::kStrassen) return;
  key.base_case_elements =
      recurse.resolved_base_elements(key.dtype == Dtype::kF32 ? sizeof(float) : sizeof(double));
  key.min_dim = recurse.min_dim;
}

}  // namespace

std::size_t PlanKeyHash::operator()(const PlanKey& k) const noexcept {
  std::size_t seed = 0;
  hash_combine(seed, static_cast<std::size_t>(k.mode));
  hash_combine(seed, static_cast<std::size_t>(k.dtype));
  hash_combine(seed, static_cast<std::size_t>(k.m));
  hash_combine(seed, static_cast<std::size_t>(k.n));
  hash_combine(seed, static_cast<std::size_t>(k.p));
  hash_combine(seed, static_cast<std::size_t>(k.oversub));
  hash_combine(seed, std::hash<double>{}(k.lb_alpha));
  hash_combine(seed, static_cast<std::size_t>(k.engine));
  hash_combine(seed, static_cast<std::size_t>(k.base_case_elements));
  hash_combine(seed, static_cast<std::size_t>(k.min_dim));
  return seed;
}

PlanKey shared_plan_key(Dtype dtype, index_t m, index_t n, const SharedOptions& opts) {
  PlanKey key;
  key.mode = PlanMode::kShared;
  key.dtype = dtype;
  key.m = m;
  key.n = n;
  key.p = opts.threads;
  key.oversub = opts.oversub;
  key.engine = opts.engine;
  set_cutoff(key, opts.recurse);
  return key;
}

PlanKey dist_plan_key(Dtype dtype, index_t m, index_t n, const dist::DistOptions& opts) {
  PlanKey key;
  key.mode = PlanMode::kDist;
  key.dtype = dtype;
  key.m = m;
  key.n = n;
  key.p = opts.procs;
  key.lb_alpha = opts.alpha;
  key.engine = opts.engine;
  set_cutoff(key, opts.recurse);
  return key;
}

std::shared_ptr<const AtaPlan> AtaPlan::build(const PlanKey& key) {
  auto plan = std::shared_ptr<AtaPlan>(new AtaPlan);
  plan->key_ = key;
  if (key.mode == PlanMode::kShared) {
    plan->schedule_ = sched::build_shared_schedule(key.m, key.n, key.p, key.oversub);
    for (const auto& task : plan->schedule_.tasks) {
      plan->workspace_bound_ = std::max(plan->workspace_bound_,
                                        static_cast<std::size_t>(ops_workspace(task.ops, key)));
    }
  } else {
    plan->tree_ = sched::build_dist_tree(key.m, key.n, key.p, key.lb_alpha);
    plan->chains_ = plan->tree_.rank_chains();
    plan->ranks_ = std::max(1, plan->tree_.used_procs);
    // Per-rank arena bound: the entry-region accumulator (non-root ranks)
    // plus the largest leaf-op scratch; max over ranks because stealing
    // may route any rank body to any pool slot.
    for (int r = 0; r < plan->ranks_; ++r) {
      const auto& chain = plan->chains_[static_cast<std::size_t>(r)];
      const sched::DistNode& entry = plan->tree_.node(chain.front());
      const sched::DistNode& leaf = plan->tree_.node(chain.back());
      const index_t scratch = ops_workspace(leaf.ops, key);
      double flops = 0;
      for (const auto& op : leaf.ops) flops += op.flops();
      plan->max_leaf_flops_ = std::max(plan->max_leaf_flops_, flops);
      const index_t region_elems = entry.parent < 0 ? 0 : entry.c.size();
      plan->workspace_bound_ =
          std::max(plan->workspace_bound_, static_cast<std::size_t>(region_elems + scratch));
    }
  }
  return plan;
}

}  // namespace atalib::api
