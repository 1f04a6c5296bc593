#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "common/checked.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace atalib::runtime {
namespace {

/// Nesting depth of pool task execution on the current thread. A run()
/// issued from inside a task must not block on its batch (the slot it
/// occupies may be the only one left), so it executes inline instead.
thread_local int tl_task_depth = 0;

/// Depth of inline batch execution on the current thread (see run()).
thread_local int tl_inline_depth = 0;

/// Workspace for inline execution paths (re-entrant or one-task batches).
/// Thread-local so concurrent inline clients never share arenas, and
/// persistent so even the inline path reuses its slab across calls.
Workspace& inline_workspace() {
  static thread_local Workspace ws;
  return ws;
}

}  // namespace

ThreadPool::ThreadPool(int threads) : topo_(probe_numa_topology()) {
  int n = threads > 0 ? threads : static_cast<int>(std::thread::hardware_concurrency());
  n = std::max(1, n);
  // Block slots over nodes proportionally to each node's CPU share, so a
  // pool smaller or larger than the machine still spreads across every
  // node: node i owns slots [n * cpus_before_i / total, n * cpus_thru_i /
  // total). Degenerate nodes (zero slots) simply never home a task.
  const int nnodes = topo_.num_nodes();
  const int total_cpus = std::max(1, topo_.total_cpus());
  node_of_slot_.resize(static_cast<std::size_t>(n));
  node_slots_.assign(static_cast<std::size_t>(nnodes), {});
  int cpus_seen = 0;
  int slot = 0;
  for (int node = 0; node < nnodes; ++node) {
    cpus_seen += static_cast<int>(topo_.nodes[static_cast<std::size_t>(node)].cpus.size());
    const int hi = (node == nnodes - 1)
                       ? n
                       : static_cast<int>(static_cast<long long>(n) * cpus_seen / total_cpus);
    for (; slot < hi; ++slot) {
      node_of_slot_[static_cast<std::size_t>(slot)] = node;
      node_slots_[static_cast<std::size_t>(node)].push_back(slot);
    }
  }
  scheduled_per_node_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(static_cast<std::size_t>(nnodes));
  executed_per_node_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(static_cast<std::size_t>(nnodes));
  for (int i = 0; i < nnodes; ++i) {
    scheduled_per_node_[static_cast<std::size_t>(i)].store(0, std::memory_order_relaxed);
    executed_per_node_[static_cast<std::size_t>(i)].store(0, std::memory_order_relaxed);
  }
  queues_.reserve(static_cast<std::size_t>(n));
  workspaces_.reserve(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    queues_.push_back(std::make_unique<Queue>());
    workspaces_.push_back(std::make_unique<Workspace>());
  }
  slot_warm_seen_.assign(static_cast<std::size_t>(n), 0);
  threads_.reserve(static_cast<std::size_t>(n - 1));
  for (int s = 0; s < n - 1; ++s) {
    threads_.emplace_back([this, s] { worker_main(s); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

bool ThreadPool::current_thread_in_task() { return tl_task_depth > 0 || tl_inline_depth > 0; }

void ThreadPool::pin_to_node(int slot) {
#if defined(__linux__)
  // Fake topologies name CPUs that need not exist; placement logic still
  // runs, affinity syscalls do not. Single-node pinning would be a no-op.
  if (topo_.fake || topo_.num_nodes() <= 1) return;
  const auto& cpus =
      topo_.nodes[static_cast<std::size_t>(node_of_slot(slot))].cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  bool any = false;
  for (int c : cpus) {
    if (c >= 0 && c < CPU_SETSIZE) {
      CPU_SET(c, &set);
      any = true;
    }
  }
  // Best effort: a failed pin costs locality, not correctness.
  if (any) (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)slot;
#endif
}

void ThreadPool::worker_main(int slot) {
  pin_to_node(slot);
  std::uint64_t seen = 0;
  UniqueLock lk(mu_);
  while (true) {
    while (!stop_ && generation_ == seen) work_cv_.wait(lk);
    if (stop_) return;
    seen = generation_;
    if (slot_warm_seen_[static_cast<std::size_t>(slot)] != warm_epoch_) {
      // A growing warm is in flight: grow *this* slot on *this* thread so
      // the slab pages are first-touched on the worker's node, then report
      // in. Admissions are queued behind the warm, so no task can race the
      // growth.
#if ATALIB_CHECKED
      // §5 ordering, machine-checked: workers only grow inside a quiesced
      // warm window — a batch in flight here means slot slabs could be
      // reallocated under a running task.
      if (active_batches_ != 0) {
        checked_abort("§5 warm-path ordering violated",
                      "worker-side warm growth with a batch in flight");
      }
#endif
      slot_warm_seen_[static_cast<std::size_t>(slot)] = warm_epoch_;
      const std::size_t f = warm_float_target_;
      const std::size_t d = warm_double_target_;
      lk.unlock();
      workspaces_[static_cast<std::size_t>(slot)]->warm_first_touch(f, d);
      lk.lock();
      if (--warm_pending_ == 0) quiesce_cv_.notify_all();
      continue;
    }
    lk.unlock();
    drain(slot);
    lk.lock();
  }
}

void ThreadPool::drain(int slot) {
  Item item;
  while (try_pop(slot, item) || try_steal(slot, item)) {
    execute(slot, std::move(item));
    item = Item{};
  }
}

void ThreadPool::drain_for(int slot, const Batch& batch) {
  // Like drain(), but stops once `batch` has retired: a run() caller is
  // glad to help with whatever is queued while its own batch is pending
  // (including other clients' tasks — that's throughput), but it must not
  // be conscripted into an unbounded stream of foreign work after its
  // batch completed.
  Item item;
  while (batch.remaining.load(std::memory_order_acquire) != 0 &&
         (try_pop(slot, item) || try_steal(slot, item))) {
    execute(slot, std::move(item));
    item = Item{};
  }
}

std::deque<ThreadPool::Item>& ThreadPool::class_for(Queue& q, int priority) {
  // Classes stay sorted descending; the common case (priority 0, one
  // class) hits the scan's first element.
  auto it = q.classes.begin();
  while (it != q.classes.end() && it->priority > priority) ++it;
  if (it == q.classes.end() || it->priority != priority) {
    it = q.classes.insert(it, Queue::Class{priority, {}});
  }
  return it->tasks;
}

bool ThreadPool::try_pop(int slot, Item& item) {
  Queue& q = *queues_[static_cast<std::size_t>(slot)];
  MutexLock lk(q.mu);
  if (q.classes.empty()) return false;
  // Highest priority class first (classes are sorted descending), hot end.
  auto& tasks = q.classes.front().tasks;
  item = std::move(tasks.front());
  tasks.pop_front();
  if (tasks.empty()) q.classes.erase(q.classes.begin());
  queued_tasks_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool ThreadPool::try_steal_from(int thief, int victim, Item& item) {
  Queue& q = *queues_[static_cast<std::size_t>(victim)];
  MutexLock lk(q.mu);
  if (q.classes.empty()) return false;
  // Steal from the cold end of the *highest* class: priority governs which
  // class drains, while within the class the victim pops its own front and
  // thieves take the back, so the two ends never contend on one task.
  auto& tasks = q.classes.front().tasks;
  item = std::move(tasks.back());
  tasks.pop_back();
  if (tasks.empty()) q.classes.erase(q.classes.begin());
  queued_tasks_.fetch_sub(1, std::memory_order_relaxed);
  if (node_of_slot(victim) == node_of_slot(thief)) {
    local_steals_.fetch_add(1, std::memory_order_relaxed);
  } else {
    remote_steals_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

bool ThreadPool::try_steal(int thief, Item& item) {
  // Locality-first steal order (DESIGN.md §7): drain same-node victims
  // before touching any remote node's queue — a stolen task's packed
  // panels and C stripe were placed for its home node, so a same-node
  // thief executes against local memory while a remote thief pays
  // cross-socket traffic for every leaf access.
  const auto& local = node_slots_[static_cast<std::size_t>(node_of_slot(thief))];
  const int nlocal = static_cast<int>(local.size());
  // Rotate by the thief's position within its node so same-node thieves
  // fan out over different victims instead of convoying on one queue.
  int my_pos = 0;
  for (int i = 0; i < nlocal; ++i) {
    if (local[static_cast<std::size_t>(i)] == thief) {
      my_pos = i;
      break;
    }
  }
  for (int d = 1; d < nlocal; ++d) {
    const int victim = local[static_cast<std::size_t>((my_pos + d) % nlocal)];
    if (try_steal_from(thief, victim, item)) return true;
  }
  // Only then cross nodes, nearest-slot rotation over the remainder.
  const int n = concurrency();
  for (int d = 1; d < n; ++d) {
    const int victim = (thief + d) % n;
    if (node_of_slot(victim) == node_of_slot(thief)) continue;
    if (try_steal_from(thief, victim, item)) return true;
  }
  return false;
}

void ThreadPool::execute(int slot, Item item) {
  Batch& batch = *item.batch;
  executed_per_node_[static_cast<std::size_t>(node_of_slot(slot))].fetch_add(
      1, std::memory_order_relaxed);
  TaskContext ctx;
  ctx.worker = slot;
  ctx.workspace = workspaces_[static_cast<std::size_t>(slot)].get();
  ++tl_task_depth;
  try {
    batch.fn(item.task, ctx);
  } catch (...) {
    MutexLock lk(batch.err_mu);
    if (!batch.first_error) batch.first_error = std::current_exception();
  }
  --tl_task_depth;
  if (batch.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last task: retire the batch. Deregister before fulfilling the
    // promise so a warm waiting for quiescence and a client waking on the
    // future observe a consistent order.
    {
      MutexLock lk(mu_);
      --active_batches_;
      if (active_batches_ == 0 && warm_waiters_ > 0) quiesce_cv_.notify_all();
    }
    // No task of this batch is running anymore (the acq_rel countdown
    // orders their error writes before this read; err_mu is uncontended
    // here and keeps the guarded access visible to the analysis).
    std::exception_ptr err;
    {
      MutexLock lk(batch.err_mu);
      err = batch.first_error;
    }
    if (err) {
      batch.done.set_exception(err);
    } else {
      batch.done.set_value();
    }
  }
}

std::shared_ptr<ThreadPool::Batch> ThreadPool::enqueue(int ntasks, TaskFn fn, int dist_slots,
                                                       const NodeHintFn* hint, int priority) {
  auto batch = std::make_shared<Batch>(ntasks, std::move(fn), priority);
  {
    // Register before any queue push: a pending warm must either see this
    // batch as active or admit it only after the warm finished — never
    // mutate slot workspaces while our tasks are poppable.
    UniqueLock lk(mu_);
    while (warm_waiters_ != 0) quiesce_cv_.wait(lk);
    ++active_batches_;
  }
  const int nnodes = topo_.num_nodes();
  if (hint == nullptr || nnodes == 0) {
    // Block distribution: slot s owns a contiguous chunk of task ids, so
    // the schedule's home-worker hints translate into locality; stealing
    // rebalances from there.
    for (int s = 0; s < dist_slots; ++s) {
      const int lo = static_cast<int>(static_cast<long long>(ntasks) * s / dist_slots);
      const int hi = static_cast<int>(static_cast<long long>(ntasks) * (s + 1) / dist_slots);
      if (hi == lo) continue;
      Queue& q = *queues_[static_cast<std::size_t>(s)];
      MutexLock qlk(q.mu);
      auto& tasks = class_for(q, priority);
      for (int t = lo; t < hi; ++t) tasks.push_back(Item{batch, t});
      queued_tasks_.fetch_add(static_cast<std::uint64_t>(hi - lo),
                              std::memory_order_relaxed);
      scheduled_per_node_[static_cast<std::size_t>(node_of_slot(s))].fetch_add(
          static_cast<std::uint64_t>(hi - lo), std::memory_order_relaxed);
    }
  } else {
    // Hinted distribution: bucket task t onto the slots of its preferred
    // node, round-robin within the node so same-node slots share the
    // node's work evenly. Nodes whose slots are all beyond dist_slots
    // (e.g. a single-slot last node excluded by a submit()) and negative
    // hints fall back to a flat rotation.
    std::vector<std::vector<int>> bucket(static_cast<std::size_t>(dist_slots));
    std::vector<int> cursor(static_cast<std::size_t>(nnodes), 0);
    int flat_cursor = 0;
    for (int t = 0; t < ntasks; ++t) {
      const int h = (*hint)(t);
      int slot = -1;
      if (h >= 0) {
        const int node = h % nnodes;
        const auto& slots = node_slots_[static_cast<std::size_t>(node)];
        int eligible = 0;
        for (int s : slots) {
          if (s < dist_slots) ++eligible;
        }
        if (eligible > 0) {
          int& cur = cursor[static_cast<std::size_t>(node)];
          slot = slots[static_cast<std::size_t>(cur % eligible)];
          ++cur;
        }
      }
      if (slot < 0) slot = (flat_cursor++) % dist_slots;
      bucket[static_cast<std::size_t>(slot)].push_back(t);
    }
    for (int s = 0; s < dist_slots; ++s) {
      const auto& ids = bucket[static_cast<std::size_t>(s)];
      if (ids.empty()) continue;
      Queue& q = *queues_[static_cast<std::size_t>(s)];
      MutexLock qlk(q.mu);
      auto& tasks = class_for(q, priority);
      for (int t : ids) tasks.push_back(Item{batch, t});
      queued_tasks_.fetch_add(ids.size(), std::memory_order_relaxed);
      scheduled_per_node_[static_cast<std::size_t>(node_of_slot(s))].fetch_add(
          ids.size(), std::memory_order_relaxed);
    }
  }
  {
    MutexLock lk(mu_);
    ++generation_;
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  work_cv_.notify_all();
  return batch;
}

void ThreadPool::run_inline(int ntasks, const TaskFn& fn) {
  // The thread-local workspace keeps this path warm across calls; a
  // *nested* inline batch (inside a pool task or another inline batch)
  // gets a private workspace instead, because the enclosing task may hold
  // a live arena in the shared one.
  const bool nested = tl_task_depth > 0 || tl_inline_depth > 0;
  Workspace local;
  TaskContext ctx;
  ctx.worker = 0;
  ctx.workspace = nested ? &local : &inline_workspace();
  ++tl_inline_depth;
  try {
    for (int t = 0; t < ntasks; ++t) fn(t, ctx);
  } catch (...) {
    --tl_inline_depth;
    throw;
  }
  --tl_inline_depth;
}

void ThreadPool::run(int ntasks, const TaskFn& fn, const NodeHintFn& preferred_node) {
  if (ntasks <= 0) return;
  const int nslots = concurrency();
  if (tl_task_depth > 0 || nslots == 1 || ntasks == 1) {
    run_inline(ntasks, fn);
    return;
  }
  auto batch = enqueue(ntasks, fn, nslots, preferred_node ? &preferred_node : nullptr,
                       /*priority=*/0);
  std::future<void> done = batch->done.get_future();
  // Participate as the caller slot if no other concurrent caller claimed
  // it; otherwise just wait (two callers must not share slot workspaces).
  bool expected = false;
  if (caller_slot_busy_.compare_exchange_strong(expected, true)) {
    drain_for(nslots - 1, *batch);
    caller_slot_busy_.store(false, std::memory_order_release);
  }
  done.get();  // waits for stolen stragglers; rethrows the first task error
}

std::future<void> ThreadPool::submit(int ntasks, TaskFn fn, const SubmitOptions& opts) {
  std::promise<void> ready;
  if (ntasks <= 0) {
    ready.set_value();
    return ready.get_future();
  }
  const int nslots = concurrency();
  if (tl_task_depth > 0 || tl_inline_depth > 0 || nslots == 1) {
    // No hand-off possible (workerless pool) or nested in a task: execute
    // inline now so the returned future can never deadlock a waiter.
    try {
      run_inline(ntasks, fn);
      ready.set_value();
    } catch (...) {
      ready.set_exception(std::current_exception());
    }
    return ready.get_future();
  }
  // Distribute over the worker slots only — nobody drains the caller slot
  // on this path until a worker steals from it.
  auto batch = enqueue(ntasks, std::move(fn), nslots - 1,
                       opts.preferred_node ? &opts.preferred_node : nullptr, opts.priority);
  return batch->done.get_future();
}

void ThreadPool::warm_workspaces(std::size_t float_elems, std::size_t double_elems) {
  // From inside a task the slot workspaces belong to in-flight batches and
  // the inline workspace may hold a live arena — nothing safe to warm.
  if (tl_task_depth > 0 || tl_inline_depth > 0) return;
  if (float_elems > warmed_float_.load(std::memory_order_acquire) ||
      double_elems > warmed_double_.load(std::memory_order_acquire)) {
    // Growth path: wait for the pool to quiesce (new admissions queue
    // behind warm_waiters_, so this cannot be starved), then have every
    // worker grow its *own* slot — the first write decides NUMA placement,
    // so growth must happen on the owning worker's thread, not here. The
    // caller slot has no worker; this thread grows it (run() callers drain
    // that slot themselves, so its pages belong on the client's node).
    UniqueLock lk(mu_);
    ++warm_waiters_;
    while (active_batches_ != 0 || warm_growing_) quiesce_cv_.wait(lk);
    const std::size_t tf = std::max(float_elems, warmed_float_.load(std::memory_order_relaxed));
    const std::size_t td =
        std::max(double_elems, warmed_double_.load(std::memory_order_relaxed));
    warm_growing_ = true;
    warm_float_target_ = tf;
    warm_double_target_ = td;
    warm_pending_ = static_cast<int>(threads_.size());
    ++warm_epoch_;
    const int caller_slot = concurrency() - 1;
    slot_warm_seen_[static_cast<std::size_t>(caller_slot)] = warm_epoch_;
    ++generation_;  // wake parked workers for the new epoch
    lk.unlock();
    work_cv_.notify_all();
    workspaces_[static_cast<std::size_t>(caller_slot)]->warm_first_touch(tf, td);
    lk.lock();
    while (warm_pending_ != 0) quiesce_cv_.wait(lk);
    if (tf > warmed_float_.load(std::memory_order_relaxed)) {
      warmed_float_.store(tf, std::memory_order_release);
    }
    if (td > warmed_double_.load(std::memory_order_relaxed)) {
      warmed_double_.store(td, std::memory_order_release);
    }
    warm_growing_ = false;
    --warm_waiters_;
    quiesce_cv_.notify_all();  // release queued admissions and queued warms
  }
  // Only a workerless pool routes batches through the calling thread's
  // inline workspace; warming it on a multi-slot pool would hand every
  // serving client thread a full-size slab it never touches (tasks run on
  // the worker slots). Width-1 and nested inline paths on multi-slot
  // pools warm their thread-local slab monotonically on first use.
  if (concurrency() == 1) inline_workspace().warm(float_elems, double_elems);
}

metrics::NumaPoolStats ThreadPool::numa_stats() const {
  metrics::NumaPoolStats stats;
  stats.nodes = topo_.num_nodes();
  stats.fake_topology = topo_.fake;
  stats.scheduled_per_node.reserve(static_cast<std::size_t>(stats.nodes));
  stats.executed_per_node.reserve(static_cast<std::size_t>(stats.nodes));
  for (int node = 0; node < stats.nodes; ++node) {
    stats.scheduled_per_node.push_back(scheduled_on_node(node));
    stats.executed_per_node.push_back(executed_on_node(node));
  }
  stats.local_steals = local_steals();
  stats.remote_steals = remote_steals();
  return stats;
}

}  // namespace atalib::runtime
