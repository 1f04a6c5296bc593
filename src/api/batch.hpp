#pragma once
// Batched small-Gram serving: fuse many AtA requests into one executor
// batch (DESIGN.md §8).
//
// The serving shape the examples point at — thousands of small-to-medium
// Gram matrices per second — is throughput-bound on per-request overhead,
// not on any single multiplication: a per-request submit pays a future
// allocation, a pool wake-up, and a client round-trip per tiny product.
// submit_batch amortizes all three. A BatchPlan groups the requests by
// plan-cache key (one cache lookup per *distinct shape per batch*, not per
// request), flattens every request's tasks into one index space, and the
// Server schedules that as a single queued pool batch whose tasks share
// the per-worker pack buffers and arenas — so a warm batch performs zero
// schedule builds, zero workspace slab allocations, and zero thread-local
// pack allocations no matter how many requests it carries.
//
// Requests inside one batch share a scalar type (the dtype is part of
// every plan key; mixed-precision traffic is two batches) but not a shape:
// mixed shapes simply form more groups.

#include <memory>
#include <span>
#include <vector>

#include "api/plan_cache.hpp"

namespace atalib::api {

/// One lower(C) += alpha * A^T A request of a batch. The caller owns `a`
/// and `c`; both must stay valid until the request's future is ready, and
/// no two in-flight requests may alias an output.
template <typename T>
struct AtaRequest {
  T alpha = T(1);
  ConstMatrixView<T> a;
  MatrixView<T> c;
  /// Per-request QoS (api::Server; DESIGN.md §10). The batch's pool
  /// priority is the max over its requests and the SharedOptions priority;
  /// within the batch, higher-priority requests' tasks are ordered first.
  int priority = 0;
  /// Absolute steady-clock deadline; effective deadline is the min of this
  /// and SharedOptions::deadline. Expired requests settle with
  /// DeadlineExceeded without running their leaf GEMMs.
  std::chrono::steady_clock::time_point deadline = kNoDeadline;
};

/// The fused execution shape of one batch: the distinct plans it touches
/// and the request -> plan assignment, plus the flattened task count the
/// executor batch runs. Filled by build_batch_plan; the serving front-end
/// reuses one per recycled batch state, so its vectors keep their capacity.
struct BatchPlan {
  /// Distinct plans, in first-appearance order.
  std::vector<std::shared_ptr<const AtaPlan>> plans;
  /// plans[] index serving each request (parallel to the request span).
  std::vector<int> plan_of_request;
  /// Per-request offset into the flat task index space; back() is the
  /// total task count of the fused batch.
  std::vector<int> task_offset;
  /// Max workspace_bound() over plans[] — what the pool is warmed to once
  /// per batch.
  std::size_t workspace_bound = 0;

  int total_tasks() const { return task_offset.empty() ? 0 : task_offset.back(); }
};

/// Group `requests` by plan key through `cache` into `batch` (cleared
/// first). Each request's plan is selected by its own A shape and T, so it
/// matches the request by construction. Preconditions, checked once by the
/// caller (Server::enqueue_batch) before admission: `opts` is validated
/// and every request's C is n x n for its A's n. Cache accounting: one
/// hit-or-miss per distinct shape in the batch.
template <typename T>
void build_batch_plan(PlanCache& cache, std::span<const AtaRequest<T>> requests,
                      const SharedOptions& opts, BatchPlan& batch);

#define ATALIB_API_BATCH_EXTERN(T)                                                       \
  extern template void build_batch_plan<T>(PlanCache&, std::span<const AtaRequest<T>>,   \
                                           const SharedOptions&, BatchPlan&)
ATALIB_API_BATCH_EXTERN(float);
ATALIB_API_BATCH_EXTERN(double);
#undef ATALIB_API_BATCH_EXTERN

}  // namespace atalib::api
