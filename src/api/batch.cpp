#include "api/batch.hpp"

#include <algorithm>

namespace atalib::api {

template <typename T>
void build_batch_plan(PlanCache& cache, std::span<const AtaRequest<T>> requests,
                      const SharedOptions& opts, BatchPlan& batch) {
  batch.plans.clear();
  batch.plan_of_request.clear();
  batch.task_offset.clear();
  batch.workspace_bound = 0;
  batch.task_offset.push_back(0);

  // Group by plan key: one PlanCache round-trip per distinct shape in the
  // batch, however many requests share it. Every key component other than
  // (m, n) is fixed by `opts` and T, so a request joins the first plan of
  // its shape. Distinct shapes per batch are few (each is a cache entry),
  // so a scan over the batch's plans, starting at the previous request's,
  // beats hashing.
  int group = 0;
  for (const AtaRequest<T>& req : requests) {
    const int nplans = static_cast<int>(batch.plans.size());
    const auto same_shape = [&](int p) {
      const PlanKey& k = batch.plans[static_cast<std::size_t>(p)]->key();
      return k.m == req.a.rows && k.n == req.a.cols;
    };
    if (nplans == 0 || !same_shape(group)) {
      group = 0;
      while (group < nplans && !same_shape(group)) ++group;
      if (group == nplans) {
        auto plan = cache.get_or_build(
            shared_plan_key(dtype_of<T>(), req.a.rows, req.a.cols, opts));
        batch.workspace_bound = std::max(batch.workspace_bound, plan->workspace_bound());
        batch.plans.push_back(std::move(plan));
      }
    }
    const auto& plan = *batch.plans[static_cast<std::size_t>(group)];
    batch.plan_of_request.push_back(group);
    batch.task_offset.push_back(batch.task_offset.back() +
                                static_cast<int>(plan.schedule().tasks.size()));
  }
}

#define ATALIB_API_BATCH_INST(T)                                                         \
  template void build_batch_plan<T>(PlanCache&, std::span<const AtaRequest<T>>,          \
                                    const SharedOptions&, BatchPlan&)
ATALIB_API_BATCH_INST(float);
ATALIB_API_BATCH_INST(double);
#undef ATALIB_API_BATCH_INST

}  // namespace atalib::api
