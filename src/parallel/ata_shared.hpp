#pragma once
// AtA-S (Algorithm 3): shared-memory parallel A^T A.
//
// Phase 1 fetches the task tree — P' = oversub * P tasks with pairwise
// disjoint C writes — from the process-wide plan cache (api/plan_cache.hpp;
// built once per (dtype, m, n, P, oversub, engine, cut-offs) shape via
// sched::build_shared_schedule). Phase 2 submits the tasks to the
// process-wide persistent work-stealing thread pool
// (runtime/thread_pool.hpp), whose warm workers and reusable per-worker
// workspace arenas make repeated calls thread-creation- and malloc-free.
// Callers that need a specific pool fetch the plan themselves and call
// api::execute(plan, alpha, a, c, &pool). Disjoint writes mean no locks
// and no atomics on C — the paper's "perfect parallelism".

#include <chrono>
#include <cstdint>
#include <vector>

#include "parallel/leaf_exec.hpp"
#include "strassen/options.hpp"

namespace atalib {

/// "No deadline": requests default to this and are never expired.
inline constexpr std::chrono::steady_clock::time_point kNoDeadline =
    std::chrono::steady_clock::time_point::max();

struct SharedOptions {
  /// The paper's P: the task tree is built as if for this many threads.
  /// Actual concurrency is min(P', pool slots).
  int threads = 1;
  /// Over-decomposition factor: build P' = oversub * threads tasks so a
  /// work-stealing pool can rebalance uneven tasks or oversubscribed
  /// cores. 1 reproduces the paper's one-task-per-thread schedule.
  int oversub = 1;
  RecurseOptions recurse{};
  /// Leaf engine: Strassen-accelerated AtA/FastStrassen (the paper's
  /// AtA-S) or the plain blocked BLAS kernels (the "MKL-style" execution
  /// used for the Fig. 5 baseline and for AtA-D leaf fallbacks). Shared
  /// with the distributed layer (parallel/leaf_exec.hpp).
  using Engine = LeafEngine;
  Engine engine = Engine::kStrassen;
  /// Tall-skinny planner knob (only meaningful with engine == kStrassen):
  /// when m/n reaches this ratio the plan is served by the kBlas engine
  /// instead of the recursion (api::shared_plan_key). 0 = auto — resolve
  /// the crossover through the measured tuner
  /// (strassen::Tuner::tall_skinny_ratio); > 0 = forced threshold (the
  /// planner floors it at 2 — below m = 2n the recursion always wins);
  /// -1 = recursion only (forced-recursive plans, the bench/test control).
  index_t tall_skinny_ratio = 0;
  /// Serving-layer QoS (api::Server; DESIGN.md §10) — ignored by the
  /// direct ata_shared() call paths and deliberately NOT part of the plan
  /// key (api::shared_plan_key), so traffic at every priority shares one
  /// cached plan per shape. Higher priority drains first at the pool's
  /// pop/steal points; FIFO within a class.
  int priority = 0;
  /// Batch-wide default deadline (steady clock, absolute). A request whose
  /// effective deadline — min of this and the per-request deadline — has
  /// passed before its tasks execute settles with api::DeadlineExceeded
  /// without running any leaf GEMM.
  std::chrono::steady_clock::time_point deadline = kNoDeadline;
};

/// Validate up front with a clear message (parity with
/// dist::validate(DistOptions)): throws std::invalid_argument on
/// threads <= 0, oversub <= 0, or bad recurse cut-offs.
void validate(const SharedOptions& opts);

/// lower(C) += alpha * A^T A in parallel. A is m x n, C is n x n.
template <typename T>
void ata_shared(T alpha, ConstMatrixView<T> a, MatrixView<T> c, const SharedOptions& opts);

/// Per-task timing of an AtA-S schedule, for benchmarking on hosts with
/// fewer cores than threads: tasks run *serially* (result identical), each
/// is timed, and max(task_seconds) is the critical-path time a machine
/// with >= P cores would see (tasks never synchronize, Algorithm 3).
struct SharedProfile {
  std::vector<double> task_seconds;
  double critical_path_seconds = 0;  ///< max over tasks
  double total_seconds = 0;          ///< sum over tasks (1-core wall time)
  /// Tasks the plan's round-robin placement homes on each NUMA node of the
  /// global pool's topology (AtaPlan::preferred_node). One entry on
  /// flat hosts; profiling itself stays serial either way.
  std::vector<std::uint64_t> tasks_per_node;
};

template <typename T>
SharedProfile ata_shared_profile(T alpha, ConstMatrixView<T> a, MatrixView<T> c,
                                 const SharedOptions& opts);

extern template void ata_shared<float>(float, ConstMatrixView<float>, MatrixView<float>,
                                       const SharedOptions&);
extern template void ata_shared<double>(double, ConstMatrixView<double>, MatrixView<double>,
                                        const SharedOptions&);
extern template SharedProfile ata_shared_profile<float>(float, ConstMatrixView<float>,
                                                        MatrixView<float>,
                                                        const SharedOptions&);
extern template SharedProfile ata_shared_profile<double>(double, ConstMatrixView<double>,
                                                         MatrixView<double>,
                                                         const SharedOptions&);

}  // namespace atalib
