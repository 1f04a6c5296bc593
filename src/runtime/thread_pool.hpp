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
//   - run(ntasks, fn): blocking. The caller
//     additionally participates as the dedicated caller slot (first-come
//     among concurrent callers) and returns when its own batch has
//     finished, rethrowing the batch's first task exception.
//   - submit(ntasks, fn, priority): queued. Returns a std::future immediately;
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
//   - placement: the one block distribution above. Slots are blocked over
//     nodes in proportion to each node's CPUs, so contiguous task chunks
//     spread over the nodes by that share; per-node *scheduled* counters
//     record assignment deterministically.
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
// Queues are tiny-critical-section mutex rings, not lock-free Chase-Lev:
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
// distribution scheme without this invariant. It binds every run() call;
// queued submit() batches smaller than the worker count start at a
// rotating slot instead, but the rank pool never uses submit().

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/cacheinfo.hpp"
#include "common/thread_annotations.hpp"
#include "metrics/numa_stats.hpp"
#include "runtime/executor.hpp"
#include "runtime/recycler.hpp"

namespace atalib::runtime {

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
  /// topology.
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
  /// thread. Batches from independent client threads overlap. Tasks are
  /// block-distributed over every slot; stealing may still execute a task
  /// anywhere — locality-first order makes a remote steal the exception,
  /// and the write-disjoint task contract makes it always correct.
  void run(int ntasks, const TaskFn& fn);

  /// Queued multi-batch admission: enqueue the batch and return a future
  /// that becomes ready when its last task finishes (exceptional with the
  /// batch's first task error). The calling thread does not participate;
  /// tasks are distributed over the worker slots. `fn` is owned by the
  /// batch and must tolerate concurrent invocation like run()'s. From
  /// inside a task (or on a workerless pool) the batch executes inline
  /// before returning, so the future is already ready — blocking on the
  /// future from task context can never deadlock.
  ///
  /// `priority` is the batch's class: at every pop and steal point a slot
  /// drains the highest-priority class present, FIFO within the class.
  /// Priority reorders *queued* work only — it never preempts a running
  /// task — and run() always enqueues at priority 0.
  std::future<void> submit(int ntasks, TaskFn fn, int priority = 0);

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
  /// Retired batches go back to a bounded free list (guarded by mu_) before
  /// their future is fulfilled, and are reused, so a warm admission
  /// allocates nothing.
  struct Batch {
    TaskFn owned;                 ///< submit()'s body; empty for run()
    const TaskFn* fn = nullptr;   ///< what tasks call: &owned, or run()'s caller's fn
    std::atomic<int> remaining{0};
    int priority = 0;  // queue class its tasks were enqueued under
    Mutex err_mu;      // serializes concurrent failing tasks
    std::exception_ptr first_error ATALIB_GUARDED_BY(err_mu);
    std::optional<std::promise<void>> done;  ///< set while admitted
    Batch* next_free = nullptr;  ///< free-list link (under mu_)
  };

  /// Queue entry. The batch stays alive (not recycled) until its last task
  /// has run and retired it.
  struct Item {
    Batch* batch = nullptr;
    int task = -1;
  };

  /// FIFO of queued tasks on a growable circular buffer. Once grown to the
  /// queue's high-water mark, pushes and pops never allocate (a std::deque
  /// frees and re-allocates a block every few dozen tasks).
  class Ring {
   public:
    bool empty() const { return size_ == 0; }
    void push_back(const Item& item) {
      if (size_ == buf_.size()) grow();
      buf_[(head_ + size_) & (buf_.size() - 1)] = item;
      ++size_;
    }
    Item pop_front() {
      const Item item = buf_[head_];
      head_ = (head_ + 1) & (buf_.size() - 1);
      --size_;
      return item;
    }
    Item pop_back() {
      --size_;
      return buf_[(head_ + size_) & (buf_.size() - 1)];
    }

   private:
    void grow();
    std::vector<Item> buf_;  ///< power-of-two capacity
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  /// Per-slot queue: one FIFO per priority class, kept sorted
  /// highest-priority-first. pop takes the hot end (front) and steal the
  /// cold end (back) of the *highest* non-empty class, so a high-priority
  /// batch admitted behind queued low-priority work drains first at every
  /// pop/steal point without preempting anything already running. With a
  /// single class (the common case — priority 0) this degenerates to the
  /// historical one-deque behavior. An emptied class stays in place (its
  /// ring keeps its capacity); empty classes are pruned only when a new
  /// priority arrives.
  struct Queue {
    struct Class {
      int priority = 0;
      Ring tasks;
    };
    Mutex mu;
    std::vector<Class> classes ATALIB_GUARDED_BY(mu);  // descending priority
    /// Tasks queued here; written under mu, read without it so thieves
    /// skip empty victims without taking their locks.
    std::atomic<int> size{0};
  };

  /// The class for `priority` in q (creating it in sorted position).
  static Ring& class_for(Queue& q, int priority) ATALIB_REQUIRES(q.mu);
  /// Take the front (pop) or back (steal) of q's highest non-empty class.
  bool take(Queue& q, bool front, Item& item);

  /// Admit a batch under one mu_ acquisition: take a Batch from the free
  /// list, register it (queuing behind any waiting warm), distribute its
  /// tasks blockwise over the first `dist_slots` queues (rotated over the
  /// slots when `rotate` and the batch has fewer tasks than slots), and
  /// wake up to min(ntasks, parked) workers. Tasks call `*fn`, or
  /// `owned` (moved into the batch) when fn is null. Returns the batch's
  /// completion future.
  std::future<void> enqueue(int ntasks, TaskFn owned, const TaskFn* fn, int dist_slots,
                            int priority, bool rotate);
  /// A promise whose shared state comes from blocks_.
  std::promise<void> make_promise() {
    return std::promise<void>(std::allocator_arg, RecyclingAllocator<char>(blocks_));
  }
  /// Last task of `batch` finished: deregister it, return it to the free
  /// list, and fulfil its future.
  void retire(Batch& batch);
  void run_inline(int ntasks, const TaskFn& fn);
  void worker_main(int slot);
  void pin_to_node(int slot);
  void drain(int slot);
  void drain_for(int slot, const std::future<void>& done);
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

  /// Guards generation_/stop_/active_batches_/parked_/warm_* state and the
  /// batch free list. The condition variables are
  /// condition_variable_any so they wait on the capability-annotated
  /// UniqueLock (common/thread_annotations.hpp).
  Mutex mu_;
  std::condition_variable_any work_cv_;     // workers park here between batches
  std::condition_variable_any quiesce_cv_;  // warms wait for 0 batches; admissions wait for 0 warms
  std::uint64_t generation_ ATALIB_GUARDED_BY(mu_) = 0;
  bool stop_ ATALIB_GUARDED_BY(mu_) = false;
  int active_batches_ ATALIB_GUARDED_BY(mu_) = 0;  // admitted, not yet completed
  int warm_waiters_ ATALIB_GUARDED_BY(mu_) = 0;  // warms waiting for (or holding) quiescence
  int parked_ ATALIB_GUARDED_BY(mu_) = 0;        // workers waiting on work_cv_
  /// Slot offset of the next small submit() batch (see enqueue).
  int next_home_ ATALIB_GUARDED_BY(mu_) = 0;
  Batch* free_batches_ ATALIB_GUARDED_BY(mu_) = nullptr;
  int nfree_batches_ ATALIB_GUARDED_BY(mu_) = 0;

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
  /// Shared states of the futures submit() and run() hand out.
  BlockRecycler* blocks_;
};

}  // namespace atalib::runtime
