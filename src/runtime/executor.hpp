#pragma once
// Task vocabulary of the execution layer.
//
// A batch is `ntasks` independent, pairwise write-disjoint tasks (the
// schedulers in sched/ guarantee disjointness), executed by the
// persistent work-stealing ThreadPool (thread_pool.hpp) — the one executor
// AtA-S, the serving front-end and the distributed rank pool all run on.
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
/// the pool's numa_nodes(), so `t % nodes` and raw ids are both valid;
/// negative means no preference.
using NodeHintFn = std::function<int(int task)>;

}  // namespace atalib::runtime
