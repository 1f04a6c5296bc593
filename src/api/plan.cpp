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
  // Store the *resolved* cut-off (auto -> tuner), so the tuned value is part
  // of the cache identity: two processes with different tuning outcomes can
  // never share a serialized plan whose schedule assumed the other cut-off,
  // and a plan's workspace bounds always match the leaves' actual recursion.
  key.base_case_elements =
      opts.recurse.resolved_base_elements(dtype == Dtype::kF32 ? sizeof(float) : sizeof(double));
  key.min_dim = opts.recurse.min_dim;
  // Shape-aware engine choice: a kStrassen request whose m/n reaches the
  // tall-skinny crossover is served by the blocked kBlas kernels instead of
  // the recursion. The tuner is consulted *lazily* — only for shapes kBlas
  // could possibly win (m >= 2n, the smallest crossover the ladder can
  // report) — so square-ish traffic never pays the measurement. The
  // resolved engine is part of the key, so two processes with different
  // tuning outcomes never share a plan. tall_skinny_ratio: 0 = auto
  // (tuner), > 0 = forced threshold (clamped to the m >= 2n floor), -1 =
  // recursion only.
  if (opts.engine == LeafEngine::kStrassen && opts.tall_skinny_ratio >= 0 && n > 0 &&
      m >= 2 * n) {
    index_t ratio = opts.tall_skinny_ratio;
    if (ratio == 0) {
      ratio = tuned_tall_skinny_ratio(dtype == Dtype::kF32 ? sizeof(float) : sizeof(double));
    }
    if (m >= ratio * n) key.engine = LeafEngine::kBlas;
  }
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
  // Same resolved-cut-off rule as shared_plan_key (see above).
  key.base_case_elements =
      opts.recurse.resolved_base_elements(dtype == Dtype::kF32 ? sizeof(float) : sizeof(double));
  key.min_dim = opts.recurse.min_dim;
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
