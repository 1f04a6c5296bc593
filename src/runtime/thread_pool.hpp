#pragma once
// Persistent work-stealing thread pool with queued multi-batch admission.
//
// W worker threads are created once and parked on a condition variable.
// A *batch* is one client's set of write-disjoint tasks; the pool admits
// batches from independent client threads concurrently — each batch's task
// indices are block-distributed over the per-slot deques and every slot
// drains its own queue front-first, then steals from the cold end of other
// slots' queues, regardless of which batch a task belongs to. Threads are
// never created and no workspace is allocated on the steady-state hot path
// — that is the whole point versus a per-call fork-join.
//
// Two admission styles share the machinery:
//   - run(ntasks, fn, preferred_node): blocking. The caller
//     additionally participates as the dedicated caller slot (first-come
//     among concurrent callers) and returns when its own batch has
//     finished, rethrowing the batch's first task exception.
//   - submit(ntasks, fn, opts): queued. Returns a std::future immediately;
//     the last finishing task fulfils it. This is what the serving
//     front-end (api::Server) uses so N clients' requests overlap on one
//     pool.
//
// Each slot owns a Workspace whose arenas grow monotonically to the
// high-water mark of the tasks that slot has executed; stealing moves a
// task, never its memory, so a stolen task simply warms the thief's arena.
// A task re-requests its arena at body start (Workspace::arena resets the
// slab), so interleaving tasks of different batches on one slot is safe —
// no task may hold arena memory across task boundaries.
//
// The pool is NUMA-topology-aware (DESIGN.md §7). Slots are grouped by the
// node a slot's worker is pinned to (probe_numa_topology(); the
// ATALIB_FAKE_NUMA override synthesizes multi-node layouts on flat CI
// hosts, skipping only the affinity syscalls). Three mechanisms follow
// from the grouping:
//   - placement: enqueue can honor a per-task preferred-node hint (run's
//     `preferred_node`, SubmitOptions::preferred_node), distributing each
//     task round-robin over its node's slots; per-node *scheduled*
//     counters record assignment deterministically.
//   - memory: a growing warm_workspaces() is executed by each worker on
//     its own slot (first touch), so a slot's arena pages live on the
//     worker's node — never on the admitting client's.
//   - stealing: locality-first order — own queue, then same-node victims,
//     then remote nodes, with separate local_steals()/remote_steals()
//     counters so benches can report the cross-node traffic they avoided.
//
// warm_workspaces() keeps its "no batch in flight" requirement internal:
// requests at or below the pool's warmed high-water mark return after two
// atomic loads (the serving hot path), larger requests wait for the pool
// to quiesce, have every worker grow its own slot (first touch, see
// above), and raise the mark. New batch admissions queue behind a waiting
// warm so it cannot be starved.
//
// Queues are tiny-critical-section mutex deques, not lock-free Chase-Lev:
// tasks here are matrix multiplications (micro- to milliseconds), so queue
// overhead is noise, and the mutex makes the exactly-once pop guarantee
// trivially auditable (see tests/test_runtime.cpp integrity test).
//
// Blocking batches: when a batch of ntasks <= concurrency() is the ONLY
// batch in flight, every task is guaranteed a slot of its own before any
// slot takes a second task (block distribution hands slot s task s; a slot
// only pops/steals after its current task completes; run()'s caller drains
// the caller slot). Tasks that block on external events — the mpisim rank
// bodies submitted via Communicator::run_on — are therefore deadlock-free
// at that width *given exclusive use of the pool*, which the distributed
// layer's rank pool guarantees by holding the RankPoolLease mutex for the
// whole communicator batch (src/dist/rank_pool.hpp). Do not change the
// distribution scheme without this invariant. (Hinted admission
// distributes differently, but the rank pool never passes hints, so the
// invariant binds only the unhinted path.)

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/cacheinfo.hpp"
#include "common/thread_annotations.hpp"
#include "metrics/numa_stats.hpp"
#include "runtime/executor.hpp"

namespace atalib::runtime {

/// Options for ThreadPool::submit (at namespace scope so the declaration
/// can default it with `= {}`).
struct SubmitOptions {
  /// Batch priority class: at every pop and steal point a slot drains the
  /// highest-priority class present, FIFO within the class. Equal
  /// priorities behave exactly like the historical single-deque pool.
  /// Priority reorders *queued* work only — it never preempts a running
  /// task — and the blocking-batch invariant (file comment) is unaffected
  /// because it binds only the unhinted run() path, which always enqueues
  /// at priority 0.
  int priority = 0;
  /// Per-task preferred-node hint (see ThreadPool::run); empty = none.
  NodeHintFn preferred_node;
};

class ThreadPool {
 public:
  /// threads <= 0 selects std::thread::hardware_concurrency(). `threads`
  /// counts total execution slots: threads-1 persistent workers plus the
  /// caller slot, drained by whichever run() caller claims it first.
  explicit ThreadPool(int threads = 0);
  /// Joins the workers. All batches must have completed (run() returned,
  /// submit() futures ready) before destruction.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of execution slots (upper bound on concurrency).
  int concurrency() const { return static_cast<int>(queues_.size()); }
  /// NUMA nodes the slots span: the probed (or ATALIB_FAKE_NUMA-synthesized)
  /// topology, so planners can spread write-disjoint output stripes across
  /// nodes (see run's `preferred_node`).
  int numa_nodes() const { return topo_.num_nodes(); }

  /// The topology the pool grouped its slots by (probed, or synthesized
  /// from ATALIB_FAKE_NUMA, at construction).
  const NumaTopology& topology() const { return topo_; }
  /// Node owning `slot` (slots are blocked over nodes proportionally to
  /// each node's CPU share; the caller slot is the last slot of the last
  /// node).
  int node_of_slot(int slot) const {
    return node_of_slot_[static_cast<std::size_t>(slot)];
  }

  /// Execute fn(t, ctx) for every t in [0, ntasks) and return when all
  /// tasks have finished; rethrows the first task exception after the
  /// batch drains (the pool stays usable). A one-task batch, and any
  /// submission from inside a task, executes inline on the calling
  /// thread. Batches from independent client threads overlap. With a
  /// `preferred_node` hint, task t is enqueued round-robin over the slots
  /// of node `preferred_node(t) % numa_nodes()` (negative hint: no
  /// preference). Stealing may still execute a task anywhere —
  /// locality-first order makes that the exception, and the write-disjoint
  /// task contract makes it always correct.
  void run(int ntasks, const TaskFn& fn, const NodeHintFn& preferred_node = {});

  /// Queued multi-batch admission: enqueue the batch and return a future
  /// that becomes ready when its last task finishes (exceptional with the
  /// batch's first task error). The calling thread does not participate;
  /// tasks are distributed over the worker slots. `fn` is owned by the
  /// batch and must tolerate concurrent invocation like run()'s. From
  /// inside a task (or on a workerless pool) the batch executes inline
  /// before returning, so the future is already ready — blocking on the
  /// future from task context can never deadlock. The serving front-end
  /// passes a priority and a hint pinning a plan's write-disjoint C
  /// stripes to nodes round-robin.
  std::future<void> submit(int ntasks, TaskFn fn, const SubmitOptions& opts = {});

  /// Tasks currently sitting in the slot queues (admitted, not yet popped
  /// or stolen). Instantaneous gauge for the serving metrics surface.
  std::uint64_t queue_depth() const {
    return queued_tasks_.load(std::memory_order_relaxed);
  }

  /// Pre-grow every slot's workspace to the given element counts, so a
  /// following batch whose tasks request at most that much performs no
  /// slab allocation on any slot — even one executing its first task ever
  /// (stealing routes any task to any slot). Requests at or below the
  /// warmed high-water mark return immediately; larger ones wait for the
  /// pool to quiesce (see the file comment).
  void warm_workspaces(std::size_t float_elems, std::size_t double_elems);

  /// The process-wide pool every entry point uses when the caller names no
  /// pool: hardware-sized, created on first use, workers persist until
  /// exit.
  static ThreadPool& global();

  /// True while the calling thread is executing a pool task or an inline
  /// batch (of ANY ThreadPool — the depth counters are thread-local, not
  /// per-pool). A run() issued from such a thread executes inline-serial,
  /// which breaks the blocking-batch guarantee above; callers that need
  /// true concurrency (mpisim::Communicator::run_on) use this to refuse
  /// nested submission instead of deadlocking.
  static bool current_thread_in_task();

  /// Tasks executed by a slot other than their home slot (lifetime total,
  /// local + remote).
  std::uint64_t steals() const { return local_steals() + remote_steals(); }
  /// Steals whose victim slot is on the thief's own node.
  std::uint64_t local_steals() const {
    return local_steals_.load(std::memory_order_relaxed);
  }
  /// Steals that crossed a node boundary (the traffic locality-first
  /// ordering exists to minimize).
  std::uint64_t remote_steals() const {
    return remote_steals_.load(std::memory_order_relaxed);
  }
  /// Tasks enqueued on slots of `node` (assignment-time, lifetime total).
  std::uint64_t scheduled_on_node(int node) const {
    return scheduled_per_node_[static_cast<std::size_t>(node)].load(
        std::memory_order_relaxed);
  }
  /// Tasks executed by slots of `node` (execution-time, lifetime total).
  std::uint64_t executed_on_node(int node) const {
    return executed_per_node_[static_cast<std::size_t>(node)].load(
        std::memory_order_relaxed);
  }
  /// Snapshot of the topology + locality counters for the metrics surface
  /// (api::Server::runtime_stats, bench/runtime_pool).
  metrics::NumaPoolStats numa_stats() const;
  /// Batches admitted to the queues (lifetime total; inline executions of
  /// nested or one-task work are not batches).
  std::uint64_t batches() const { return batches_.load(std::memory_order_relaxed); }
  /// Slot workspaces (workers are slots 0..concurrency()-2, the caller
  /// slot is the last one).
  Workspace& workspace(int slot) { return *workspaces_[static_cast<std::size_t>(slot)]; }

 private:
  /// One admitted batch: body, countdown, first task error, completion.
  struct Batch {
    Batch(int ntasks, TaskFn body, int prio)
        : fn(std::move(body)), remaining(ntasks), priority(prio) {}
    TaskFn fn;
    std::atomic<int> remaining;
    int priority;  // queue class its tasks were enqueued under
    Mutex err_mu;  // serializes concurrent failing tasks
    std::exception_ptr first_error ATALIB_GUARDED_BY(err_mu);
    std::promise<void> done;
  };

  /// Queue entry; the shared_ptr keeps the batch alive until its last
  /// task (and the completion it triggers) has run.
  struct Item {
    std::shared_ptr<Batch> batch;
    int task = -1;
  };

  /// Per-slot queue: one FIFO deque per priority class, kept sorted
  /// highest-priority-first. pop takes the hot end (front) and steal the
  /// cold end (back) of the *highest* class present, so a high-priority
  /// batch admitted behind queued low-priority work drains first at every
  /// pop/steal point without preempting anything already running. With a
  /// single class (the common case — priority 0) this degenerates to the
  /// historical one-deque behavior.
  struct Queue {
    struct Class {
      int priority = 0;
      std::deque<Item> tasks;
    };
    Mutex mu;
    std::vector<Class> classes ATALIB_GUARDED_BY(mu);  // descending priority
  };

  /// The class for `priority` in q (creating it in sorted position).
  static std::deque<Item>& class_for(Queue& q, int priority)
      ATALIB_REQUIRES(q.mu);

  /// Admit a batch: register it (queuing behind any waiting warm),
  /// distribute its tasks over the first `dist_slots` queues — blockwise
  /// without a hint, round-robin within each task's preferred node with one
  /// — and wake the workers. Returns the batch for completion waiting.
  std::shared_ptr<Batch> enqueue(int ntasks, TaskFn fn, int dist_slots,
                                 const NodeHintFn* hint, int priority);
  void run_inline(int ntasks, const TaskFn& fn);
  void worker_main(int slot);
  void pin_to_node(int slot);
  void drain(int slot);
  void drain_for(int slot, const Batch& batch);
  bool try_pop(int slot, Item& item);
  bool try_steal(int thief, Item& item);
  bool try_steal_from(int thief, int victim, Item& item);
  void execute(int slot, Item item);

  NumaTopology topo_;                  // probed (or faked) at construction
  std::vector<int> node_of_slot_;      // slot -> node index
  std::vector<std::vector<int>> node_slots_;  // node index -> its slots, ascending

  std::vector<std::unique_ptr<Queue>> queues_;          // one per slot
  std::vector<std::unique_ptr<Workspace>> workspaces_;  // parallel to queues_
  std::vector<std::thread> threads_;                    // the W workers

  /// Guards generation_/stop_/active_batches_/warm_* state. The
  /// condition variables are condition_variable_any so they wait on the
  /// capability-annotated UniqueLock (common/thread_annotations.hpp).
  Mutex mu_;
  std::condition_variable_any work_cv_;     // workers park here between batches
  std::condition_variable_any quiesce_cv_;  // warms wait for 0 batches; admissions wait for 0 warms
  std::uint64_t generation_ ATALIB_GUARDED_BY(mu_) = 0;
  bool stop_ ATALIB_GUARDED_BY(mu_) = false;
  int active_batches_ ATALIB_GUARDED_BY(mu_) = 0;  // admitted, not yet completed
  int warm_waiters_ ATALIB_GUARDED_BY(mu_) = 0;  // warms waiting for (or holding) quiescence

  /// Worker-side warm growth (first touch): a growing warm publishes the
  /// targets and a fresh epoch under mu_, wakes every worker, and waits for
  /// warm_pending_ to hit zero; each worker grows its *own* slot exactly
  /// once per epoch (slot_warm_seen_). warm_growing_ serializes concurrent
  /// growing warms.
  bool warm_growing_ ATALIB_GUARDED_BY(mu_) = false;
  std::uint64_t warm_epoch_ ATALIB_GUARDED_BY(mu_) = 0;
  int warm_pending_ ATALIB_GUARDED_BY(mu_) = 0;
  std::size_t warm_float_target_ ATALIB_GUARDED_BY(mu_) = 0;
  std::size_t warm_double_target_ ATALIB_GUARDED_BY(mu_) = 0;
  /// Last epoch each slot grew for.
  std::vector<std::uint64_t> slot_warm_seen_ ATALIB_GUARDED_BY(mu_);

  /// High-water marks warm_workspaces() has grown every slot to; requests
  /// at or below them skip the quiescence path entirely.
  std::atomic<std::size_t> warmed_float_{0};
  std::atomic<std::size_t> warmed_double_{0};

  /// Claimed by the first concurrent run() caller; later concurrent
  /// callers wait on their batch future without draining (two clients
  /// must never share the caller slot's workspace).
  std::atomic<bool> caller_slot_busy_{false};

  std::atomic<std::uint64_t> local_steals_{0};
  std::atomic<std::uint64_t> remote_steals_{0};
  std::atomic<std::uint64_t> batches_{0};
  /// Tasks in the slot queues right now (see queue_depth()); incremented
  /// at push, decremented at pop/steal.
  std::atomic<std::uint64_t> queued_tasks_{0};
  /// Per-node task counters (see scheduled_on_node/executed_on_node);
  /// heap-array because std::atomic is immovable and the node count is a
  /// construction-time constant.
  std::unique_ptr<std::atomic<std::uint64_t>[]> scheduled_per_node_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> executed_per_node_;
};

}  // namespace atalib::runtime
