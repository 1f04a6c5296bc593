#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/checked.hpp"

namespace atalib::runtime {
namespace {

/// Nesting depth of pool task execution on the current thread. A run()
/// issued from inside a task must not block on its batch (the slot it
/// occupies may be the only one left), so it executes inline instead.
thread_local int tl_task_depth = 0;

/// Depth of inline batch execution on the current thread (see run()).
thread_local int tl_inline_depth = 0;

/// Idle Batch objects a pool keeps for reuse, and how many it allocates
/// at once when none is idle. A warm serving pool cycles through about as
/// many as it has batches in flight.
constexpr int kMaxIdleBatches = 256;
constexpr int kBatchRefill = 8;

/// Longest a parked worker sleeps before it re-checks the generation on
/// its own. enqueue() wakes workers with notify_one, and a lost wake-up
/// (a lost pthread_cond_signal) then costs at most this long instead of
/// leaving the batch queued behind parked workers forever.
constexpr auto kParkRecheck = std::chrono::milliseconds(10);

/// Workspace for inline execution paths (re-entrant or one-task batches).
/// Thread-local so concurrent inline clients never share arenas, and
/// persistent so even the inline path reuses its slab across calls.
Workspace& inline_workspace() {
  static thread_local Workspace ws;
  return ws;
}

}  // namespace

ThreadPool::ThreadPool(int threads) : blocks_(BlockRecycler::create()) {
  int n = threads > 0 ? threads : static_cast<int>(std::thread::hardware_concurrency());
  n = std::max(1, n);
  queues_.reserve(static_cast<std::size_t>(n));
  workspaces_.reserve(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    queues_.push_back(std::make_unique<Queue>());
    workspaces_.push_back(std::make_unique<Workspace>());
  }
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
  {
    MutexLock lk(mu_);
    while (free_batches_ != nullptr) {
      delete std::exchange(free_batches_, free_batches_->next_free);
    }
  }
  // Futures a client still holds keep the recycler alive until released.
  blocks_->release();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

bool ThreadPool::current_thread_in_task() { return tl_task_depth > 0 || tl_inline_depth > 0; }

void ThreadPool::worker_main(int slot) {
  std::uint64_t seen = 0;
  UniqueLock lk(mu_);
  while (true) {
    while (!stop_ && generation_ == seen) {
      ++parked_;
      work_cv_.wait_for(lk, kParkRecheck);
      --parked_;
    }
    if (stop_) return;
    seen = generation_;
    lk.unlock();
    drain(slot);
    lk.lock();
  }
}

void ThreadPool::drain(int slot) {
  Item item;
  while (try_pop(slot, item) || try_steal(slot, item)) execute(slot, item);
}

void ThreadPool::drain_for(int slot, const std::future<void>& done) {
  // Like drain(), but stops once the caller's batch has retired: a run()
  // caller is glad to help with whatever is queued while its own batch is
  // pending (including other clients' tasks — that's throughput), but it
  // must not be conscripted into an unbounded stream of foreign work after
  // its batch completed. A zero-timeout wait_for is one atomic load.
  Item item;
  while (done.wait_for(std::chrono::seconds(0)) != std::future_status::ready &&
         (try_pop(slot, item) || try_steal(slot, item))) {
    execute(slot, item);
  }
}

void ThreadPool::Ring::grow() {
  std::vector<Item> next(std::max<std::size_t>(16, 2 * buf_.size()));
  for (std::size_t i = 0; i < size_; ++i) next[i] = buf_[(head_ + i) & (buf_.size() - 1)];
  buf_.swap(next);
  head_ = 0;
}

ThreadPool::Ring& ThreadPool::class_for(Queue& q, int priority) {
  // Classes stay sorted descending; the common case (priority 0, one
  // class) hits the scan's first element.
  auto it = q.classes.begin();
  while (it != q.classes.end() && it->priority > priority) ++it;
  if (it != q.classes.end() && it->priority == priority) return it->tasks;
  // A new priority: drop the idle classes first so distinct priorities
  // seen over time do not accumulate.
  std::erase_if(q.classes, [](const Queue::Class& c) { return c.tasks.empty(); });
  it = q.classes.begin();
  while (it != q.classes.end() && it->priority > priority) ++it;
  return q.classes.insert(it, Queue::Class{priority, {}})->tasks;
}

bool ThreadPool::take(Queue& q, bool front, Item& item) {
  if (q.size.load(std::memory_order_relaxed) == 0) return false;
  MutexLock lk(q.mu);
  // Highest non-empty priority class first (classes are sorted
  // descending). Within the class the owner pops its front and thieves
  // take the back, so the two ends never contend on one task.
  for (auto& c : q.classes) {
    if (c.tasks.empty()) continue;
    item = front ? c.tasks.pop_front() : c.tasks.pop_back();
    q.size.store(q.size.load(std::memory_order_relaxed) - 1, std::memory_order_relaxed);
    queued_tasks_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool ThreadPool::try_pop(int slot, Item& item) {
  return take(*queues_[static_cast<std::size_t>(slot)], /*front=*/true, item);
}

bool ThreadPool::try_steal(int thief, Item& item) {
  // Victims thief+1, thief+2, ... (mod n): concurrent thieves start at
  // different queues instead of convoying on one.
  const int n = concurrency();
  for (int d = 1; d < n; ++d) {
    if (take(*queues_[static_cast<std::size_t>((thief + d) % n)], /*front=*/false, item)) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

std::uint64_t ThreadPool::scheduled_on_slot(int slot) const {
  Queue& q = *queues_[static_cast<std::size_t>(slot)];
  MutexLock lk(q.mu);
  return q.scheduled;
}

void ThreadPool::execute(int slot, Item item) {
  Batch& batch = *item.batch;
  TaskContext ctx;
  ctx.worker = slot;
  ctx.workspace = workspaces_[static_cast<std::size_t>(slot)].get();
  ++tl_task_depth;
  try {
    (*batch.fn)(item.task, ctx);
  } catch (...) {
    MutexLock lk(batch.err_mu);
    if (!batch.first_error) batch.first_error = std::current_exception();
  }
  --tl_task_depth;
  if (batch.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) retire(batch);
}

void ThreadPool::retire(Batch& batch) {
  // No task of this batch is running anymore (the acq_rel countdown
  // orders their error writes before this read; err_mu is uncontended
  // here and keeps the guarded access visible to the analysis).
  std::exception_ptr err;
  {
    MutexLock lk(batch.err_mu);
    err = std::exchange(batch.first_error, nullptr);
  }
  // Release the body's captures before the client wakes, and take the
  // promise out so the batch can be reused before it is fulfilled.
  batch.owned = nullptr;
  std::promise<void> done = std::move(batch.done.value());
  batch.done.reset();
  {
    // Deregister before fulfilling the promise so a warm waiting for
    // quiescence and a client waking on the future observe a consistent
    // order.
    MutexLock lk(mu_);
    --active_batches_;
    if (active_batches_ == 0 && warm_waiters_ > 0) quiesce_cv_.notify_all();
    if (nfree_batches_ < kMaxIdleBatches) {
      batch.next_free = std::exchange(free_batches_, &batch);
      ++nfree_batches_;
    } else {
      delete &batch;
    }
  }
  if (err) {
    done.set_exception(err);
  } else {
    done.set_value();
  }
}

std::future<void> ThreadPool::enqueue(int ntasks, TaskFn owned, const TaskFn* fn,
                                      int dist_slots, int priority, bool rotate) {
  std::promise<void> done = make_promise();
  std::future<void> fut = done.get_future();
  int wake = 0;
  {
    // Register before any queue push: a pending warm must either see this
    // batch as active or admit it only after the warm finished — never
    // mutate slot workspaces while our tasks are poppable. The pushes and
    // the generation bump share the same critical section, so a worker
    // that finds no new generation under mu_ cannot miss our tasks.
    UniqueLock lk(mu_);
    while (warm_waiters_ != 0) quiesce_cv_.wait(lk);
    if (free_batches_ == nullptr) {
      // Refill a few at once: the worker that retires a batch fulfils its
      // future only after recycling it, but a request served by the
      // Server wakes its client from inside the task, before the batch
      // retires, so a client re-submitting at once briefly needs a spare.
      for (int i = 0; i < kBatchRefill; ++i) {
        Batch* spare = new Batch;
        spare->next_free = std::exchange(free_batches_, spare);
        ++nfree_batches_;
      }
    }
    Batch* batch = std::exchange(free_batches_, free_batches_->next_free);
    --nfree_batches_;
    batch->owned = std::move(owned);
    batch->fn = fn != nullptr ? fn : &batch->owned;
    batch->remaining.store(ntasks, std::memory_order_relaxed);
    batch->priority = priority;
    batch->done.emplace(std::move(done));
    ++active_batches_;

    // Block distribution, the pool's one placement rule: slot s owns a
    // contiguous chunk of task ids, so the schedule's home-worker hints
    // translate into locality; stealing rebalances from there. A queued
    // batch with fewer tasks than slots starts at a rotating slot, so a
    // stream of one-task batches spreads over every worker's queue instead
    // of piling onto one.
    int home = 0;
    if (rotate && ntasks < dist_slots) {
      home = next_home_ % dist_slots;
      next_home_ = (home + ntasks) % dist_slots;
    }
    for (int s = 0; s < dist_slots; ++s) {
      const int lo = static_cast<int>(static_cast<long long>(ntasks) * s / dist_slots);
      const int hi = static_cast<int>(static_cast<long long>(ntasks) * (s + 1) / dist_slots);
      if (hi <= lo) continue;
      const int slot = (s + home) % dist_slots;
      Queue& q = *queues_[static_cast<std::size_t>(slot)];
      MutexLock qlk(q.mu);
      Ring& tasks = class_for(q, priority);
      for (int t = lo; t < hi; ++t) tasks.push_back(Item{batch, t});
      q.size.store(q.size.load(std::memory_order_relaxed) + (hi - lo), std::memory_order_relaxed);
      q.scheduled += static_cast<std::uint64_t>(hi - lo);
      queued_tasks_.fetch_add(static_cast<std::uint64_t>(hi - lo), std::memory_order_relaxed);
    }
    ++generation_;
    wake = std::min(ntasks, parked_);
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  // Wake only as many parked workers as there are tasks; busy workers
  // find the new generation themselves before they park.
  for (int i = 0; i < wake; ++i) work_cv_.notify_one();
  return fut;
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

void ThreadPool::run(int ntasks, const TaskFn& fn) {
  if (ntasks <= 0) return;
  const int nslots = concurrency();
  if (tl_task_depth > 0 || nslots == 1 || ntasks == 1) {
    run_inline(ntasks, fn);
    return;
  }
  // fn outlives the batch (this call blocks until it retires), so the
  // tasks call it in place instead of a copy.
  std::future<void> done =
      enqueue(ntasks, nullptr, &fn, nslots, /*priority=*/0, /*rotate=*/false);
  // Participate as the caller slot if no other concurrent caller claimed
  // it; otherwise just wait (two callers must not share slot workspaces).
  bool expected = false;
  if (caller_slot_busy_.compare_exchange_strong(expected, true)) {
    drain_for(nslots - 1, done);
    caller_slot_busy_.store(false, std::memory_order_release);
  }
  done.get();  // waits for stolen stragglers; rethrows the first task error
}

std::future<void> ThreadPool::submit(int ntasks, TaskFn fn, int priority) {
  const int nslots = concurrency();
  if (ntasks <= 0 || tl_task_depth > 0 || tl_inline_depth > 0 || nslots == 1) {
    // Nothing to run, no hand-off possible (workerless pool), or nested in
    // a task: execute inline now so the returned future can never
    // deadlock a waiter.
    std::promise<void> ready = make_promise();
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
  return enqueue(ntasks, std::move(fn), nullptr, nslots - 1, priority, /*rotate=*/true);
}

void ThreadPool::warm_workspaces(std::size_t float_elems, std::size_t double_elems) {
  // From inside a task the slot workspaces belong to in-flight batches and
  // the inline workspace may hold a live arena — nothing safe to warm.
  if (tl_task_depth > 0 || tl_inline_depth > 0) return;
  if (float_elems > warmed_float_.load(std::memory_order_acquire) ||
      double_elems > warmed_double_.load(std::memory_order_acquire)) {
    // Growth path: wait for the pool to quiesce (new admissions queue
    // behind warm_waiters_, so this cannot be starved), then grow every
    // slot from this thread. mu_ stays held throughout, so no batch can be
    // admitted and concurrent warms serialize.
    UniqueLock lk(mu_);
    ++warm_waiters_;
    while (active_batches_ != 0) quiesce_cv_.wait(lk);
#if ATALIB_CHECKED
    // §5 ordering, machine-checked: slot slabs grow only while no task can
    // hold their arenas.
    if (active_batches_ != 0) {
      checked_abort("§5 warm-path ordering violated", "slot growth with a batch in flight");
    }
#endif
    const std::size_t tf = std::max(float_elems, warmed_float_.load(std::memory_order_relaxed));
    const std::size_t td =
        std::max(double_elems, warmed_double_.load(std::memory_order_relaxed));
    for (auto& ws : workspaces_) ws->warm(tf, td);
    warmed_float_.store(tf, std::memory_order_release);
    warmed_double_.store(td, std::memory_order_release);
    --warm_waiters_;
    quiesce_cv_.notify_all();  // release queued admissions
  }
  // Only a workerless pool routes batches through the calling thread's
  // inline workspace; warming it on a multi-slot pool would hand every
  // serving client thread a full-size slab it never touches (tasks run on
  // the worker slots). Width-1 and nested inline paths on multi-slot
  // pools warm their thread-local slab monotonically on first use.
  if (concurrency() == 1) inline_workspace().warm(float_elems, double_elems);
}

}  // namespace atalib::runtime
