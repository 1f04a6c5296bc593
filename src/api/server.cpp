#include "api/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "api/execute.hpp"

namespace atalib::api {

namespace {

using SteadyClock = std::chrono::steady_clock;

std::int64_t ns_of(SteadyClock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(tp.time_since_epoch())
      .count();
}

std::uint64_t elapsed_ns(SteadyClock::time_point from, SteadyClock::time_point to) {
  return to <= from
             ? 0
             : static_cast<std::uint64_t>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
                       .count());
}

/// Idle batch states a server keeps, and the tickets they may hold in
/// all; beyond either bound a retired state is freed instead.
constexpr std::size_t kMaxIdleStates = 256;
constexpr std::size_t kMaxIdleTickets = 4096;

}  // namespace

namespace detail {

/// One unit of batched work: request `req`, task `local` of its plan.
struct BatchUnit {
  int req;
  int local;
};

/// One pool task of a fused batch: a run of consecutive units. Multi-task
/// plans get one unit per pool task (their stripes must spread over the
/// pool); single-task requests are CHUNKED — consecutive same-plan
/// requests share one pool task — so the per-task executor overhead
/// (queue round-trip, context wake-up) is paid once per chunk, not once
/// per tiny request. That amortization is where batch >> 1 beats a
/// per-request loop even when no parallel speedup is available.
struct BatchChunk {
  int first_unit;
  int nunits;
};

/// One fused batch: the plans, the request views, the per-request tickets
/// and the unit/chunk layout every task reads. The pool task body holds
/// only a pointer to it (so the body fits std::function's inline buffer);
/// the state stays checked out until the batch retires, then returns to
/// the server's free list with its vectors' capacity and its tickets.
template <typename T>
struct BatchState {
  Server* server = nullptr;
  BatchPlan batch;
  std::vector<AtaRequest<T>> requests;
  std::unique_ptr<RequestTicket[]> tickets;
  std::size_t ticket_capacity = 0;
  std::vector<int> order;  ///< priority order of a mixed-priority batch
  std::vector<BatchUnit> units;
  std::vector<BatchChunk> chunks;
  /// Chunks not yet finished; the task finishing the last one retires the
  /// batch at the server's gate.
  std::atomic<int> chunks_remaining{0};
  BatchState* next_free = nullptr;
};

}  // namespace detail

using detail::BatchChunk;
using detail::BatchState;
using detail::BatchUnit;

namespace {

template <typename T>
BatchState<T>*& free_list(BatchState<float>*& f32, BatchState<double>*& f64) {
  if constexpr (std::is_same_v<T, float>) {
    return f32;
  } else {
    return f64;
  }
}

}  // namespace

Server::Server(const Options& opts)
    : cache_(opts.plan_capacity),
      max_inflight_(opts.max_inflight_requests),
      max_batches_(opts.max_queued_batches),
      policy_(opts.admission),
      faults_(fault::Plan::from_env()),
      blocks_(runtime::BlockRecycler::create()),
      pool_(opts.threads) {}

Server::~Server() {
  {
    UniqueLock lk(gate_mu_);
    shutting_down_ = true;
    // Abort everything still unsettled: units that have not computed yet
    // see the cancel and skip; clients get ServerShutdown instead of a hang
    // — at once if nothing started, else when the last running unit exits.
    for (Ticket* t = ledger_head_; t != nullptr;) {
      Ticket* next = t->ledger_next;
      t->in_ledger = false;
      if (!t->settled.load(std::memory_order_acquire) && cancel(*t, CancelReason::kShutdown) &&
          claim(*t)) {
        t->promise.set_exception(cancelled_error(*t));
        --inflight_requests_;
      }
      t = next;
    }
    ledger_head_ = ledger_tail_ = nullptr;
    gate_cv_.notify_all();
    // Wait for every admitted batch to retire and every blocked admitter to
    // wake (and throw ServerShutdown) before the members destruct: after
    // this loop no pool task touches server state, and ~pool_ (declared
    // last, destructed first) joins the workers before the gate itself goes.
    while (queued_batches_ != 0 || gate_waiters_ != 0) gate_cv_.wait(lk);
  }
  MutexLock lk(free_mu_);
  while (free_f32_ != nullptr) delete std::exchange(free_f32_, free_f32_->next_free);
  while (free_f64_ != nullptr) delete std::exchange(free_f64_, free_f64_->next_free);
  // Futures a client still holds keep the recycler alive until released.
  blocks_->release();
}

template <typename T>
BatchState<T>* Server::acquire_state(std::size_t nreq) {
  BatchState<T>* state = nullptr;
  {
    MutexLock lk(free_mu_);
    BatchState<T>*& head = free_list<T>(free_f32_, free_f64_);
    if (head != nullptr) {
      state = std::exchange(head, head->next_free);
      --idle_states_;
      idle_tickets_ -= state->ticket_capacity;
    }
  }
  if (state == nullptr) {
    state = new BatchState<T>;
    state->server = this;
  }
  if (state->ticket_capacity < nreq) {
    state->tickets = std::make_unique<Ticket[]>(nreq);
    state->ticket_capacity = nreq;
  }
  return state;
}

template <typename T>
BatchState<T>* Server::recycle(BatchState<T>* state) {
  MutexLock lk(free_mu_);
  if (idle_states_ >= kMaxIdleStates || idle_tickets_ + state->ticket_capacity > kMaxIdleTickets) {
    return state;
  }
  BatchState<T>*& head = free_list<T>(free_f32_, free_f64_);
  state->next_free = std::exchange(head, state);
  ++idle_states_;
  idle_tickets_ += state->ticket_capacity;
  return nullptr;
}

void Server::link(Ticket& t) {
  t.ledger_prev = ledger_tail_;
  t.ledger_next = nullptr;
  (ledger_tail_ != nullptr ? ledger_tail_->ledger_next : ledger_head_) = &t;
  ledger_tail_ = &t;
  t.in_ledger = true;
}

void Server::unlink(Ticket& t) {
  if (!t.in_ledger) return;
  (t.ledger_prev != nullptr ? t.ledger_prev->ledger_next : ledger_head_) = t.ledger_next;
  (t.ledger_next != nullptr ? t.ledger_next->ledger_prev : ledger_tail_) = t.ledger_prev;
  t.in_ledger = false;
}

Server::Clock::time_point Server::admit(Ticket* tickets, std::size_t nreq) {
  if (runtime::ThreadPool::current_thread_in_task()) {
    // Re-entrant submissions execute inline in the pool (never queued);
    // blocking the worker on its own server's gate would deadlock, so they
    // bypass the bounds and only respect shutdown.
    MutexLock lk(gate_mu_);
    if (shutting_down_) {
      throw ServerShutdown("Server::submit: server is shutting down");
    }
    inflight_requests_ += nreq;
    ++queued_batches_;
    for (std::size_t r = 0; r < nreq; ++r) link(tickets[r]);
    return Clock::now();
  }
  if (nreq > max_inflight_ || max_batches_ == 0) {
    // Can never fit, under any policy: blocking would deadlock.
    rejected_.fetch_add(nreq, std::memory_order_relaxed);
    throw OverloadError(
        "Server::submit: request batch can never satisfy the admission bounds "
        "(batch of " +
        std::to_string(nreq) + ", max_inflight_requests " +
        std::to_string(max_inflight_) + ", max_queued_batches " +
        std::to_string(max_batches_) + ")");
  }
  UniqueLock lk(gate_mu_);
  for (;;) {
    if (shutting_down_) {
      throw ServerShutdown("Server::submit: server is shutting down");
    }
    std::size_t phantom = 0;
    if constexpr (fault::kEnabled) {
      if (faults_) phantom = faults_->queue_pressure();
    }
    const bool req_ok = max_inflight_ == kUnlimited ||
                        inflight_requests_ + phantom + nreq <= max_inflight_;
    const bool batch_ok = max_batches_ == kUnlimited || queued_batches_ < max_batches_;
    if (req_ok && batch_ok) break;
    if (policy_ == AdmissionPolicy::kShedOldest && shed_expired(Clock::now()) > 0) {
      continue;  // re-evaluate with the freed capacity
    }
    if (policy_ == AdmissionPolicy::kBlock) {
      ++gate_waiters_;
      gate_cv_.wait(lk);
      --gate_waiters_;
      if (shutting_down_) gate_cv_.notify_all();  // let ~Server see the drain
      continue;
    }
    rejected_.fetch_add(nreq, std::memory_order_relaxed);
    throw OverloadError(
        "Server::submit: admission gate full (" + std::to_string(inflight_requests_) +
        " in flight of " + std::to_string(max_inflight_) + ", " +
        std::to_string(queued_batches_) + " batches of " + std::to_string(max_batches_) +
        ")");
  }
  inflight_requests_ += nreq;
  ++queued_batches_;
  for (std::size_t r = 0; r < nreq; ++r) link(tickets[r]);
  return Clock::now();
}

void Server::unadmit(Ticket* tickets, std::size_t nreq) {
  // The tickets are still unarmed: nothing else can have settled them.
  MutexLock lk(gate_mu_);
  for (std::size_t r = 0; r < nreq; ++r) unlink(tickets[r]);
  inflight_requests_ -= nreq;
  --queued_batches_;
  if (gate_waiters_ > 0 || shutting_down_) gate_cv_.notify_all();
}

std::size_t Server::shed_expired(Clock::time_point now) {
  std::size_t freed = 0;
  for (Ticket* t = ledger_head_; t != nullptr;) {
    Ticket* next = t->ledger_next;
    if (!t->settled.load(std::memory_order_acquire) && now >= t->deadline &&
        cancel(*t, CancelReason::kShed) && claim(*t)) {
      t->promise.set_exception(cancelled_error(*t));
      --inflight_requests_;
      unlink(*t);
      ++freed;
    }
    t = next;
  }
  return freed;
}

bool Server::cancel(Ticket& t, CancelReason why) {
  CancelReason none = CancelReason::kNone;
  t.cancel.compare_exchange_strong(none, why, std::memory_order_acq_rel);
  std::int64_t idle = -1;
  return t.started_ns.compare_exchange_strong(idle, Ticket::kNeverStarted,
                                              std::memory_order_acq_rel);
}

bool Server::claim(Ticket& t) {
  bool expected = false;
  return t.settled.compare_exchange_strong(expected, true, std::memory_order_acq_rel);
}

std::exception_ptr Server::cancelled_error(const Ticket& t) {
  switch (t.cancel.load(std::memory_order_acquire)) {
    case CancelReason::kShed:
      shed_.fetch_add(1, std::memory_order_relaxed);
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      return std::make_exception_ptr(DeadlineExceeded(
          "atalib: request shed under kShedOldest after its deadline expired"));
    case CancelReason::kShutdown:
      return std::make_exception_ptr(
          ServerShutdown("atalib: Server destroyed with the request in flight"));
    default:
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      return std::make_exception_ptr(
          DeadlineExceeded("atalib: request deadline expired before execution"));
  }
}

template <typename T>
void Server::finish(Ticket* settled, std::exception_ptr error, BatchState<T>* retired) {
  // Take the promise out first: once the batch retires below, its state
  // (and this ticket) may be reused, and the server may be destroyed.
  std::optional<std::promise<void>> promise;
  if (settled != nullptr) promise.emplace(std::move(settled->promise));
  // No task of a retired batch reads its plans anymore; drop them outside
  // the gate in case one was the last reference.
  if (retired != nullptr) retired->batch.plans.clear();
  BatchState<T>* excess = nullptr;
  {
    MutexLock lk(gate_mu_);
    if (settled != nullptr) {
      --inflight_requests_;
      unlink(*settled);
    }
    if (retired != nullptr) {
      --queued_batches_;
      excess = recycle(retired);
    }
    if (gate_waiters_ > 0 || shutting_down_) gate_cv_.notify_all();
  }
  delete excess;
  if (!promise) return;
  if (error) {
    promise->set_exception(std::move(error));
  } else {
    promise->set_value();
  }
}

metrics::ServerStats Server::stats() const {
  metrics::ServerStats s;
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  {
    MutexLock lk(gate_mu_);
    s.inflight_requests = inflight_requests_;
    s.queued_batches = queued_batches_;
  }
  s.pool_queue_depth = pool_.queue_depth();
  s.admission_wait = metrics::summarize(admission_wait_);
  s.queue_wait = metrics::summarize(queue_wait_);
  s.compute = metrics::summarize(compute_);
  return s;
}

template <typename T>
std::future<void> Server::submit(T alpha, ConstMatrixView<T> a, MatrixView<T> c,
                                 SharedOptions opts) {
  // One request is a batch of one: a single machinery gives submit() the
  // same admission, deadline, settle-once, and teardown guarantees.
  AtaRequest<T> req;
  req.alpha = alpha;
  req.a = a;
  req.c = c;
  req.priority = opts.priority;
  req.deadline = opts.deadline;
  std::future<void> future;
  enqueue_batch<T>(std::span<const AtaRequest<T>>(&req, 1), opts, &future);
  return future;
}

template <typename T>
std::future<void> Server::submit(T alpha, ConstMatrixView<T> a, MatrixView<T> c) {
  SharedOptions opts;
  opts.threads = pool_.concurrency();
  opts.oversub = 2;
  return submit(alpha, a, c, opts);
}

template <typename T>
std::vector<std::future<void>> Server::submit_batch(std::span<const AtaRequest<T>> requests,
                                                    SharedOptions opts) {
  if (requests.empty()) {
    validate(opts);
    return {};
  }
  std::vector<std::future<void>> futures(requests.size());
  enqueue_batch<T>(requests, opts, futures.data());
  return futures;
}

template <typename T>
void Server::enqueue_batch(std::span<const AtaRequest<T>> requests, const SharedOptions& opts,
                           std::future<void>* futures) {
  const Clock::time_point t0 = Clock::now();
  validate(opts);
  // Reject a mismatched C before touching the gate or the cache: the check
  // needs no plan, and a rejected request must not pay a schedule build or
  // insert an entry that could evict a plan warm traffic is using.
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const AtaRequest<T>& req = requests[r];
    if (req.c.rows != req.a.cols || req.c.cols != req.a.cols) {
      throw std::invalid_argument(
          "Server::submit: request " + std::to_string(r) + ": C must be n x n = " +
          std::to_string(req.a.cols) + "^2, got " + std::to_string(req.c.rows) + "x" +
          std::to_string(req.c.cols));
    }
  }
  const std::size_t nreq = requests.size();
  BatchState<T>* const state = acquire_state<T>(nreq);
  Ticket* const tickets = state->tickets.get();
  for (std::size_t r = 0; r < nreq; ++r) {
    Ticket& t = tickets[r];
    t.settled.store(true, std::memory_order_relaxed);  // unarmed
    t.cancel.store(CancelReason::kNone, std::memory_order_relaxed);
    t.started_ns.store(-1, std::memory_order_relaxed);
    t.failed.store(false, std::memory_order_relaxed);
    t.error = nullptr;
    t.deadline = std::min(opts.deadline, requests[r].deadline);
  }

  // The admission gate comes FIRST: a refused submission throws before any
  // promise or plan lookup exists. The admitted tickets join the ledger in
  // the gate's own critical section.
  Clock::time_point gate_passed;
  try {
    gate_passed = admit(tickets, nreq);
  } catch (...) {
    MutexLock lk(gate_mu_);
    delete recycle(state);
    throw;
  }
  try {
    build_batch_plan<T>(cache_, requests, opts, state->batch);
  } catch (...) {
    unadmit(tickets, nreq);
    MutexLock lk(gate_mu_);
    delete recycle(state);
    throw;
  }
  state->requests.assign(requests.begin(), requests.end());
  admitted_.fetch_add(nreq, std::memory_order_relaxed);

  const Clock::time_point admitted_at = Clock::now();
  const std::uint64_t adm_ns = elapsed_ns(t0, gate_passed);
  const BatchPlan& plan = state->batch;
  for (std::size_t r = 0; r < nreq; ++r) {
    Ticket& t = tickets[r];
    t.admitted_at = admitted_at;
    t.remaining.store(plan.task_offset[r + 1] - plan.task_offset[r], std::memory_order_relaxed);
    t.promise = std::promise<void>(std::allocator_arg,
                                   runtime::RecyclingAllocator<char>(blocks_));
    futures[r] = t.promise.get_future();
    t.settled.store(false, std::memory_order_release);  // armed
    admission_wait_.record(adm_ns);
  }
  // A deadline already expired at submit settles right here: its tasks are
  // still enqueued (keeping the batch layout uniform) but become no-ops.
  for (std::size_t r = 0; r < nreq; ++r) {
    Ticket& t = tickets[r];
    if (admitted_at >= t.deadline && cancel(t, CancelReason::kDeadline) && claim(t)) {
      finish<T>(&t, cancelled_error(t), nullptr);
    }
  }

  // Order units so higher-priority requests' tasks sit ahead of lower ones
  // in the flat index space (stable: FIFO within a priority class). The
  // batch's pool priority is the max over its requests, so a mixed batch
  // competes at its most urgent class.
  const auto by_priority = [&requests](int x, int y) {
    return requests[static_cast<std::size_t>(x)].priority >
           requests[static_cast<std::size_t>(y)].priority;
  };
  int batch_priority = opts.priority;
  bool sorted = true;
  for (std::size_t r = 0; r < nreq; ++r) {
    batch_priority = std::max(batch_priority, requests[r].priority);
    sorted = sorted && (r == 0 || requests[r].priority <= requests[r - 1].priority);
  }
  if (!sorted) {
    state->order.resize(nreq);
    std::iota(state->order.begin(), state->order.end(), 0);
    std::stable_sort(state->order.begin(), state->order.end(), by_priority);
  }
  const int total = plan.total_tasks();
  state->units.clear();
  for (std::size_t i = 0; i < nreq; ++i) {
    const int r = sorted ? static_cast<int>(i) : state->order[i];
    const auto rr = static_cast<std::size_t>(r);
    for (int local = 0; local < plan.task_offset[rr + 1] - plan.task_offset[rr]; ++local) {
      state->units.push_back({r, local});
    }
  }

  // Chunk the unit list into pool tasks. Serial (single-task) requests
  // coalesce into runs of up to `chunk_target` consecutive same-plan
  // units; multi-task plans stay one unit per pool task so their stripes
  // spread over the pool. The target keeps several chunks per worker so
  // stealing can still balance an uneven batch.
  const auto serial = [&plan](std::size_t req) {
    return plan.task_offset[req + 1] - plan.task_offset[req] == 1;
  };
  const int chunk_target =
      std::clamp(total / (std::max(1, pool_.concurrency()) * 8), 1, 64);
  state->chunks.clear();
  for (int u = 0; u < total;) {
    const auto req = static_cast<std::size_t>(state->units[static_cast<std::size_t>(u)].req);
    int len = 1;
    if (serial(req)) {
      while (u + len < total && len < chunk_target) {
        const auto next =
            static_cast<std::size_t>(state->units[static_cast<std::size_t>(u + len)].req);
        if (plan.plan_of_request[next] != plan.plan_of_request[req] || !serial(next)) break;
        ++len;
      }
    }
    state->chunks.push_back({u, len});
    u += len;
  }
  const int nchunks = static_cast<int>(state->chunks.size());
  state->chunks_remaining.store(nchunks, std::memory_order_relaxed);

  // One warm call for the whole batch: the pool's high-water mark covers
  // the largest plan, so every task's arena request is satisfied from the
  // already-grown slot slabs (the zero-slab warm-path invariant).
  if constexpr (std::is_same_v<T, float>) {
    pool_.warm_workspaces(plan.workspace_bound, 0);
  } else {
    pool_.warm_workspaces(0, plan.workspace_bound);
  }

  // Per-request completion: the unit that takes `remaining` to zero wins
  // the ticket's settle CAS — unless a canceller settled it first, which
  // it may only do while no unit has started (RequestTicket). A cancelled
  // request settles with its recorded reason, and only after every unit
  // that began computing has stopped writing its C. The first failing
  // unit of a request claims the error slot (CAS), writes the
  // exception_ptr, and the acq_rel decrement chain publishes it to
  // whichever unit settles — so a failure surfaces on its own request's
  // future and never on the (discarded) pool-level batch future or on a
  // sibling request. The body captures one pointer, so it lives in
  // std::function's inline buffer.
  auto body = [state](int t, runtime::TaskContext& ctx) {
    Server* const server = state->server;
    const BatchChunk chunk = state->chunks[static_cast<std::size_t>(t)];
    const int last_unit = chunk.first_unit + chunk.nunits - 1;
    for (int u = chunk.first_unit; u <= last_unit; ++u) {
      const BatchUnit unit = state->units[static_cast<std::size_t>(u)];
      const auto req = static_cast<std::size_t>(unit.req);
      Ticket& ticket = state->tickets[req];
      const AtaRequest<T>& r = state->requests[req];
      const AtaPlan& plan =
          *state->batch.plans[static_cast<std::size_t>(state->batch.plan_of_request[req])];
      if (ticket.cancel.load(std::memory_order_acquire) == CancelReason::kNone) {
        const SteadyClock::time_point now = SteadyClock::now();
        if (now >= ticket.deadline) {
          // Expired before this unit computed: skip its leaf GEMMs and
          // every later unit's. Settle now only if no sibling started.
          if (cancel(ticket, CancelReason::kDeadline) && claim(ticket)) {
            server->finish<T>(&ticket, server->cancelled_error(ticket), nullptr);
          }
        } else {
          // `started` keeps -1 when this unit claims the start, and reads
          // kNeverStarted when a canceller claimed it first.
          std::int64_t started = -1;
          if (ticket.started_ns.compare_exchange_strong(started, ns_of(now),
                                                        std::memory_order_acq_rel)) {
            server->queue_wait_.record(elapsed_ns(ticket.admitted_at, now));
          }
          if (started != Ticket::kNeverStarted) {
            try {
              if constexpr (fault::kEnabled) {
                if (server->faults_) {
                  server->faults_->maybe_slow_task();
                  server->faults_->maybe_throw_leaf();
                }
              }
              run_plan_task(plan, unit.local, r.alpha, r.a, r.c, ctx);
            } catch (...) {
              bool claimed = false;
              if (ticket.failed.compare_exchange_strong(claimed, true,
                                                        std::memory_order_relaxed)) {
                ticket.error = std::current_exception();
              }
            }
          }
        }
      }
      if (ticket.remaining.fetch_sub(1, std::memory_order_acq_rel) != 1 || !claim(ticket)) {
        continue;
      }
      std::exception_ptr error;
      if (ticket.cancel.load(std::memory_order_acquire) != CancelReason::kNone) {
        error = server->cancelled_error(ticket);
      } else {
        server->completed_.fetch_add(1, std::memory_order_relaxed);
        const std::int64_t started = ticket.started_ns.load(std::memory_order_acquire);
        if (started >= 0) {
          const std::int64_t done = ns_of(SteadyClock::now());
          server->compute_.record(done > started ? static_cast<std::uint64_t>(done - started)
                                                 : 0);
        }
        if (ticket.failed.load(std::memory_order_relaxed)) error = ticket.error;
      }
      // The last request of the last unfinished chunk settles and retires
      // the batch under one gate acquisition (no other chunk can decrement
      // a count of one: it is ours).
      if (u == last_unit && state->chunks_remaining.load(std::memory_order_acquire) == 1) {
        server->finish<T>(&ticket, std::move(error), state);
        return;
      }
      server->finish<T>(&ticket, std::move(error), nullptr);
    }
    if (state->chunks_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      server->finish<T>(nullptr, nullptr, state);
    }
  };

  pool_.submit(nchunks, std::move(body), batch_priority);
}

template <typename T>
std::vector<std::future<void>> Server::submit_batch(std::span<const AtaRequest<T>> requests) {
  SharedOptions opts;
  opts.threads = 1;
  opts.oversub = 1;
  return submit_batch(requests, opts);
}

#define ATALIB_API_SERVER_INST(T)                                                      \
  template std::future<void> Server::submit<T>(T, ConstMatrixView<T>, MatrixView<T>,   \
                                               SharedOptions);                         \
  template std::future<void> Server::submit<T>(T, ConstMatrixView<T>, MatrixView<T>);  \
  template std::vector<std::future<void>> Server::submit_batch<T>(                     \
      std::span<const AtaRequest<T>>, SharedOptions);                                  \
  template std::vector<std::future<void>> Server::submit_batch<T>(                     \
      std::span<const AtaRequest<T>>)
ATALIB_API_SERVER_INST(float);
ATALIB_API_SERVER_INST(double);
#undef ATALIB_API_SERVER_INST

}  // namespace atalib::api
