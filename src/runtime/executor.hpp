#pragma once
// Execution layer shared by AtA-S, the parallel BLAS wrappers, and the
// benches.
//
// A batch is `ntasks` independent, pairwise write-disjoint tasks (the
// schedulers in sched/ guarantee disjointness), executed by an Executor.
// The library's executor is ThreadPool (thread_pool.hpp): persistent
// workers, per-worker queues, work stealing, reusable per-worker workspace
// arenas, and queued multi-batch admission (overlapping batches from
// independent client threads, plus an async submit() used by the
// api::Server serving front-end). ThreadPool::global() is the process-wide
// instance every entry point uses when the caller names no executor.
//
// Tasks receive a TaskContext naming the executing slot and its reusable
// Workspace; all scratch memory must come from there so repeated calls
// stay malloc-free once warm.

#include <functional>

#include "runtime/workspace.hpp"

namespace atalib::runtime {

/// Handed to each task invocation. `worker` is the executing slot id,
/// stable for the duration of the batch; `workspace` is that slot's
/// private reusable workspace (no other task runs on it concurrently).
struct TaskContext {
  int worker = 0;
  Workspace* workspace = nullptr;

  /// Shorthand for workspace->arena<T>(min_capacity).
  template <typename T>
  Arena<T>& arena(std::size_t min_capacity) {
    return workspace->arena<T>(min_capacity);
  }
};

/// fn(task, ctx) for task in [0, ntasks).
using TaskFn = std::function<void(int task, TaskContext& ctx)>;

/// Maps a task id to its preferred NUMA node (a hint, not a guarantee:
/// stealing may still execute the task anywhere). Values are folded modulo
/// the executor's numa_nodes(), so `t % nodes` and raw ids are both valid;
/// negative means no preference.
using NodeHintFn = std::function<int(int task)>;

class Executor {
 public:
  virtual ~Executor() = default;

  /// Number of execution slots (upper bound on concurrency).
  virtual int concurrency() const = 0;

  /// NUMA nodes the executor's slots span. Flat executors report 1; the
  /// ThreadPool reports its probed (or ATALIB_FAKE_NUMA-synthesized)
  /// topology so planners can spread write-disjoint output stripes across
  /// nodes (see run's `preferred_node`).
  virtual int numa_nodes() const { return 1; }

  /// Human-readable engine name for bench tables.
  virtual const char* name() const = 0;

  /// Execute fn(t, ctx) for every t in [0, ntasks); returns when all tasks
  /// have finished. `width` caps the concurrency actually used (0 = the
  /// executor's own limit); the pool treats it as advisory (idle
  /// persistent workers may still steal — tasks are write-disjoint, so
  /// extra concurrency is always safe). `preferred_node` (empty = none)
  /// is a per-task placement hint: a NUMA-aware executor enqueues each
  /// task on a worker of its preferred node (execution order and results
  /// are unaffected); flat executors ignore it.
  virtual void run(int ntasks, const TaskFn& fn, int width = 0,
                   const NodeHintFn& preferred_node = {}) = 0;

  /// Pre-grow every slot's workspace to the given element counts, so a
  /// following run() whose tasks request at most that much performs no
  /// slab allocation on any slot — even one executing its first task ever
  /// (stealing routes any task to any slot). No-op once warm. The pool
  /// orders growth against in-flight batches internally (warm requests at
  /// or below the warmed high-water mark return immediately, larger ones
  /// wait for quiescence).
  virtual void warm_workspaces(std::size_t float_elems, std::size_t double_elems) = 0;
};

}  // namespace atalib::runtime
