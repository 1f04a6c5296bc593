#include "api/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <numeric>
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

}  // namespace

Server::Server(const Options& opts)
    : cache_(opts.plan_capacity),
      max_inflight_(opts.max_inflight_requests),
      max_batches_(opts.max_queued_batches),
      policy_(opts.admission),
      faults_(fault::Plan::from_env()),
      pool_(opts.threads) {}

Server::~Server() {
  UniqueLock lk(gate_mu_);
  shutting_down_ = true;
  // Abort everything still unsettled: units that have not computed yet
  // see the cancel and skip; clients get ServerShutdown instead of a hang
  // — at once if nothing started, else when the last running unit exits.
  for (auto& t : ledger_) {
    if (t->settled.load(std::memory_order_relaxed)) continue;
    if (cancel(*t, CancelReason::kShutdown) && claim(*t)) {
      fail_cancelled(*t);
      --inflight_requests_;
    }
  }
  ledger_.clear();
  gate_cv_.notify_all();
  // Wait for every admitted batch to retire and every blocked admitter to
  // wake (and throw ServerShutdown) before the members destruct: after
  // this loop no pool task touches server state, and ~pool_ (declared
  // last, destructed first) joins the workers before the gate itself goes.
  while (queued_batches_ != 0 || gate_waiters_ != 0) gate_cv_.wait(lk);
}

Server::Clock::time_point Server::admit(std::size_t nreq) {
  const auto t0 = Clock::now();
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
    return t0;
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
  return t0;
}

void Server::unadmit(std::size_t nreq) {
  MutexLock lk(gate_mu_);
  inflight_requests_ -= nreq;
  --queued_batches_;
  gate_cv_.notify_all();
}

std::size_t Server::shed_expired(Clock::time_point now) {
  std::size_t freed = 0;
  for (auto& t : ledger_) {
    if (t->settled.load(std::memory_order_relaxed)) continue;
    if (now < t->deadline) continue;
    if (cancel(*t, CancelReason::kShed) && claim(*t)) {
      fail_cancelled(*t);
      --inflight_requests_;
      ++freed;
    }
  }
  while (!ledger_.empty() && ledger_.front()->settled.load(std::memory_order_relaxed)) {
    ledger_.pop_front();
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

bool Server::claim_and_release(Ticket& t) {
  if (!claim(t)) return false;
  MutexLock lk(gate_mu_);
  --inflight_requests_;
  while (!ledger_.empty() && ledger_.front()->settled.load(std::memory_order_relaxed)) {
    ledger_.pop_front();
  }
  gate_cv_.notify_all();
  return true;
}

void Server::fail_cancelled(Ticket& t) {
  std::exception_ptr error;
  switch (t.cancel.load(std::memory_order_acquire)) {
    case CancelReason::kShed:
      shed_.fetch_add(1, std::memory_order_relaxed);
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      error = std::make_exception_ptr(DeadlineExceeded(
          "atalib: request shed under kShedOldest after its deadline expired"));
      break;
    case CancelReason::kShutdown:
      error = std::make_exception_ptr(
          ServerShutdown("atalib: Server destroyed with the request in flight"));
      break;
    default:
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      error = std::make_exception_ptr(
          DeadlineExceeded("atalib: request deadline expired before execution"));
      break;
  }
  t.promise.set_exception(error);
}

void Server::on_batch_retired() {
  // The LAST server-state touch any task of a batch performs; ~Server
  // waits for queued_batches_ == 0, so everything a task does happens
  // before the members destruct.
  MutexLock lk(gate_mu_);
  --queued_batches_;
  gate_cv_.notify_all();
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
  // Reject a mismatched C before touching the gate or the cache: the check
  // needs no plan, and a rejected request must not pay a schedule build or
  // insert an entry that could evict a plan warm traffic is using.
  if (c.rows != a.cols || c.cols != a.cols) {
    throw std::invalid_argument("Server::submit: C must be n x n = " +
                                std::to_string(a.cols) + "^2, got " + std::to_string(c.rows) +
                                "x" + std::to_string(c.cols));
  }
  // One request is a batch of one: a single machinery gives submit() the
  // same admission, deadline, settle-once, and teardown guarantees.
  AtaRequest<T> req;
  req.alpha = alpha;
  req.a = a;
  req.c = c;
  req.priority = opts.priority;
  req.deadline = opts.deadline;
  auto futures = submit_batch<T>(std::span<const AtaRequest<T>>(&req, 1), std::move(opts));
  return std::move(futures.front());
}

template <typename T>
std::future<void> Server::submit(T alpha, ConstMatrixView<T> a, MatrixView<T> c) {
  SharedOptions opts;
  opts.threads = pool_.concurrency();
  opts.oversub = 2;
  return submit(alpha, a, c, opts);
}

namespace {

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

/// Shared lifetime of one fused batch: the plans, the request views, and
/// the per-request completion/error bookkeeping every task touches. Tasks
/// hold it by shared_ptr so the state outlives both the client (who may
/// drop futures early) and the pool batch.
template <typename T>
struct BatchState {
  BatchPlan batch;
  std::vector<AtaRequest<T>> requests;
  std::vector<std::shared_ptr<detail::RequestTicket>> tickets;
  std::vector<BatchUnit> units;
  std::vector<BatchChunk> chunks;
  // Atomics are not movable, so the per-request arrays live behind
  // unique_ptr instead of vector.
  std::unique_ptr<std::atomic<int>[]> remaining;
  std::unique_ptr<std::atomic<bool>[]> failed;
  std::vector<std::exception_ptr> errors;
  /// Chunks not yet finished; the task taking it to zero retires the
  /// batch at the server's gate.
  std::atomic<int> chunks_remaining{0};
  /// The server's fault plan, shared so injection hooks stay valid even
  /// while the server tears down.
  std::shared_ptr<const fault::Plan> faults;
};

}  // namespace

template <typename T>
std::vector<std::future<void>> Server::submit_batch(std::span<const AtaRequest<T>> requests,
                                                    SharedOptions opts) {
  validate(opts);
  if (requests.empty()) return {};
  const std::size_t nreq = requests.size();

  // The admission gate comes FIRST: a rejected submission throws before
  // any promise, plan lookup, or ticket exists.
  const Clock::time_point t0 = admit(nreq);

  auto state = std::make_shared<BatchState<T>>();
  try {
    // Throws std::invalid_argument on any bad request, before any promise
    // exists or any task is enqueued: a rejected batch is all-or-nothing.
    state->batch = build_batch_plan<T>(cache_, requests, opts);
  } catch (...) {
    unadmit(nreq);
    throw;
  }
  state->requests.assign(requests.begin(), requests.end());
  state->faults = faults_;
  admitted_.fetch_add(nreq, std::memory_order_relaxed);

  const Clock::time_point admitted_at = Clock::now();
  const std::uint64_t adm_ns = elapsed_ns(t0, admitted_at);

  const int total = state->batch.total_tasks();
  state->tickets.reserve(nreq);
  state->units.reserve(static_cast<std::size_t>(total));
  state->remaining = std::make_unique<std::atomic<int>[]>(nreq);
  state->failed = std::make_unique<std::atomic<bool>[]>(nreq);
  state->errors.resize(nreq);

  std::vector<std::future<void>> futures;
  futures.reserve(nreq);
  for (std::size_t r = 0; r < nreq; ++r) {
    auto ticket = std::make_shared<Ticket>();
    ticket->deadline = std::min(opts.deadline, requests[r].deadline);
    ticket->admitted_at = admitted_at;
    futures.push_back(ticket->promise.get_future());
    state->tickets.push_back(std::move(ticket));
    const int ntasks = state->batch.task_offset[r + 1] - state->batch.task_offset[r];
    state->remaining[r].store(ntasks, std::memory_order_relaxed);
    state->failed[r].store(false, std::memory_order_relaxed);
    admission_wait_.record(adm_ns);
  }
  {
    MutexLock lk(gate_mu_);
    for (const auto& t : state->tickets) ledger_.push_back(t);
  }
  // A deadline already expired at submit settles right here: its tasks are
  // still enqueued (keeping the batch layout uniform) but become no-ops.
  for (std::size_t r = 0; r < nreq; ++r) {
    Ticket& ticket = *state->tickets[r];
    if (admitted_at < ticket.deadline) continue;
    if (cancel(ticket, CancelReason::kDeadline) && claim_and_release(ticket)) {
      fail_cancelled(ticket);
    }
  }

  // Order units so higher-priority requests' tasks sit ahead of lower ones
  // in the flat index space (stable: FIFO within a priority class). The
  // batch's pool priority is the max over its requests, so a mixed batch
  // competes at its most urgent class.
  std::vector<int> order(nreq);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&requests](int x, int y) {
    return requests[static_cast<std::size_t>(x)].priority >
           requests[static_cast<std::size_t>(y)].priority;
  });
  int batch_priority = opts.priority;
  for (std::size_t r = 0; r < nreq; ++r) {
    batch_priority = std::max(batch_priority, requests[r].priority);
  }
  for (int r : order) {
    const auto rr = static_cast<std::size_t>(r);
    const int ntasks = state->batch.task_offset[rr + 1] - state->batch.task_offset[rr];
    for (int local = 0; local < ntasks; ++local) {
      state->units.push_back({r, local});
    }
  }

  // Chunk the unit list into pool tasks. Serial (single-task) requests
  // coalesce into runs of up to `chunk_target` consecutive same-plan
  // units; multi-task plans stay one unit per pool task so their stripes
  // spread over the pool. The target keeps several chunks per worker so
  // stealing can still balance an uneven batch.
  const int chunk_target =
      std::clamp(total / (std::max(1, pool_.concurrency()) * 8), 1, 64);
  for (int u = 0; u < total;) {
    const int req = state->units[static_cast<std::size_t>(u)].req;
    const int plan_idx = state->batch.plan_of_request[static_cast<std::size_t>(req)];
    const bool serial =
        state->batch.task_offset[static_cast<std::size_t>(req) + 1] -
            state->batch.task_offset[static_cast<std::size_t>(req)] ==
        1;
    int len = 1;
    if (serial) {
      while (u + len < total && len < chunk_target) {
        const auto& next = state->units[static_cast<std::size_t>(u + len)];
        const auto nr = static_cast<std::size_t>(next.req);
        if (state->batch.plan_of_request[nr] != plan_idx ||
            state->batch.task_offset[nr + 1] - state->batch.task_offset[nr] != 1) {
          break;
        }
        ++len;
      }
    }
    state->chunks.push_back({u, len});
    u += len;
  }
  state->chunks_remaining.store(static_cast<int>(state->chunks.size()),
                                std::memory_order_relaxed);

  // One warm call for the whole batch: the pool's high-water mark covers
  // the largest plan, so every task's arena request is satisfied from the
  // already-grown slot slabs (the zero-slab warm-path invariant).
  if constexpr (std::is_same_v<T, float>) {
    pool_.warm_workspaces(state->batch.workspace_bound, 0);
  } else {
    pool_.warm_workspaces(0, state->batch.workspace_bound);
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
  // sibling request.
  Server* const server = this;
  auto body = [state, server](int t, runtime::TaskContext& ctx) {
    const BatchChunk chunk = state->chunks[static_cast<std::size_t>(t)];
    for (int u = chunk.first_unit; u < chunk.first_unit + chunk.nunits; ++u) {
      const BatchUnit unit = state->units[static_cast<std::size_t>(u)];
      const int req = unit.req;
      Ticket& ticket = *state->tickets[static_cast<std::size_t>(req)];
      const AtaRequest<T>& r = state->requests[static_cast<std::size_t>(req)];
      const AtaPlan& plan =
          *state->batch.plans[static_cast<std::size_t>(
              state->batch.plan_of_request[static_cast<std::size_t>(req)])];
      if (ticket.cancel.load(std::memory_order_acquire) == CancelReason::kNone) {
        const SteadyClock::time_point now = SteadyClock::now();
        if (now >= ticket.deadline) {
          // Expired before this unit computed: skip its leaf GEMMs and
          // every later unit's. Settle now only if no sibling started.
          if (cancel(ticket, CancelReason::kDeadline) && server->claim_and_release(ticket)) {
            server->fail_cancelled(ticket);
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
                if (state->faults) {
                  state->faults->maybe_slow_task();
                  state->faults->maybe_throw_leaf();
                }
              }
              run_plan_task(plan, unit.local, r.alpha, r.a, r.c, ctx);
            } catch (...) {
              bool claimed = false;
              if (state->failed[req].compare_exchange_strong(claimed, true,
                                                             std::memory_order_relaxed)) {
                state->errors[static_cast<std::size_t>(req)] = std::current_exception();
              }
            }
          }
        }
      }
      if (state->remaining[req].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        if (server->claim_and_release(ticket)) {
          if (ticket.cancel.load(std::memory_order_acquire) != CancelReason::kNone) {
            server->fail_cancelled(ticket);
            continue;
          }
          server->completed_.fetch_add(1, std::memory_order_relaxed);
          const std::int64_t started = ticket.started_ns.load(std::memory_order_acquire);
          if (started >= 0) {
            const std::int64_t done = ns_of(SteadyClock::now());
            server->compute_.record(
                done > started ? static_cast<std::uint64_t>(done - started) : 0);
          }
          if (state->failed[req].load(std::memory_order_relaxed)) {
            ticket.promise.set_exception(state->errors[static_cast<std::size_t>(req)]);
          } else {
            ticket.promise.set_value();
          }
        }
      }
    }
    if (state->chunks_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      server->on_batch_retired();
    }
  };

  const int nchunks = static_cast<int>(state->chunks.size());
  const int nnodes = pool_.numa_nodes();
  runtime::SubmitOptions pool_opts;
  pool_opts.priority = batch_priority;
  if (nnodes > 1) {
    // Round-robin *chunks* over nodes (small single-task requests are
    // the common case), while a request split into stripes keeps its
    // plan's stripe->node mapping, rotated by the request index.
    pool_opts.preferred_node = [state, nnodes](int t) {
      const BatchChunk chunk = state->chunks[static_cast<std::size_t>(t)];
      const BatchUnit unit = state->units[static_cast<std::size_t>(chunk.first_unit)];
      const AtaPlan& plan =
          *state->batch.plans[static_cast<std::size_t>(
              state->batch.plan_of_request[static_cast<std::size_t>(unit.req)])];
      const int pref = plan.preferred_node(unit.local, nnodes);
      return pref < 0 ? unit.req % nnodes : (unit.req + pref) % nnodes;
    };
  }
  pool_.submit(nchunks, std::move(body), pool_opts);
  return futures;
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
