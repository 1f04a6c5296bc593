#pragma once
// Execute a cached plan: the malloc-free, replanning-free half of the
// plan/execute split.
//
// The warm path — every call after a plan's first execution on a given
// pool — performs zero schedule builds (the plan is immutable) and zero
// workspace slab allocations (warm_for() raises the pool's per-slot arenas
// to the plan's high-water mark once; subsequent warms are two atomic
// loads). tests/test_api.cpp pins both properties
// with the sched build counters and the Workspace grow counters.
//
// These are the bodies the thin wrappers (ata_shared, ata_shared_profile,
// ata_dist) and the serving front-end (api::Server) all execute through,
// so the shared and distributed layers keep one planning path.

#include "api/plan.hpp"
#include "common/timer.hpp"
#include "dist/result.hpp"
#include "runtime/thread_pool.hpp"

namespace atalib::api {

/// lower(C) += alpha * A^T A over a shared-mode plan. A must be the
/// plan's m x n shape (C n x n) and T its dtype; throws
/// std::invalid_argument otherwise. `pool` null uses
/// runtime::ThreadPool::global(). A P = 1 plan runs all its tasks inline
/// on the calling thread, whatever its oversub.
template <typename T>
void execute(const AtaPlan& plan, T alpha, ConstMatrixView<T> a, MatrixView<T> c,
             runtime::ThreadPool* pool = nullptr);

/// Serial per-task timing of a shared-mode plan (see SharedProfile).
template <typename T>
SharedProfile execute_profile(const AtaPlan& plan, T alpha, ConstMatrixView<T> a,
                              MatrixView<T> c);

/// Run a dist-mode plan's distribute-compute-retrieve protocol on the rank
/// pool. By default wall time (DistResult::seconds) covers the run only —
/// plan lookup/build is the caller's (cached) concern, which is the point
/// of the split. Callers that account setup in wall time — ata_dist starts
/// its stopwatch before the plan fetch so Fig. 6 cold runs stay
/// apples-to-apples with the baselines' in-line setup — pass their own
/// already-running `wall`.
template <typename T>
dist::DistResult<T> execute_dist(const AtaPlan& plan, T alpha, const Matrix<T>& a,
                                 const Timer* wall = nullptr);

/// One task of a shared-mode plan on a pool slot — the batch body
/// execute() and Server::submit() both run. `task` indexes
/// plan.schedule().tasks; scratch comes from ctx's slot workspace, sized
/// to plan.workspace_bound().
template <typename T>
void run_plan_task(const AtaPlan& plan, int task, T alpha, ConstMatrixView<T> a,
                   MatrixView<T> c, runtime::TaskContext& ctx);

/// Pre-grow every pool slot to a shared-mode plan's workspace bound
/// (no-op once warm). Dtype-dispatches on the plan key.
void warm_for(const AtaPlan& plan, runtime::ThreadPool& pool);

/// Throw std::invalid_argument unless (mode, dtype, shape) all match.
template <typename T>
void check_shared(const AtaPlan& plan, ConstMatrixView<T> a, MatrixView<T> c);

#define ATALIB_API_EXECUTE_EXTERN(T)                                                       \
  extern template void execute<T>(const AtaPlan&, T, ConstMatrixView<T>, MatrixView<T>,    \
                                  runtime::ThreadPool*);                                   \
  extern template SharedProfile execute_profile<T>(const AtaPlan&, T, ConstMatrixView<T>,  \
                                                   MatrixView<T>);                         \
  extern template dist::DistResult<T> execute_dist<T>(const AtaPlan&, T, const Matrix<T>&, \
                                                      const Timer*);                       \
  extern template void run_plan_task<T>(const AtaPlan&, int, T, ConstMatrixView<T>,        \
                                        MatrixView<T>, runtime::TaskContext&);             \
  extern template void check_shared<T>(const AtaPlan&, ConstMatrixView<T>, MatrixView<T>)
ATALIB_API_EXECUTE_EXTERN(float);
ATALIB_API_EXECUTE_EXTERN(double);
#undef ATALIB_API_EXECUTE_EXTERN

}  // namespace atalib::api
