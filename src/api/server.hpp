#pragma once
// Concurrent serving front-end: the cached-plan request path, hardened for
// overload (DESIGN.md §10).
//
// A Server owns an LRU plan cache and a multi-batch ThreadPool. submit()
// admits one lower(C) += alpha * A^T A request: pass the admission gate,
// build-or-fetch the plan, warm the pool to the plan's workspace bound, and
// enqueue the plan's tasks as one pool batch — then return a future. On the
// *warm* path (shape seen before, workspace bound at or below the pool's
// warmed mark) submit never blocks on compute: the plan is a cache hit, the
// warm check is two atomic loads, and the batch is queued without waiting.
// A *cold* request pays its setup in line: planning once per shape, and —
// when its workspace bound exceeds the warmed mark — a pool quiescence wait
// while every slot grows. Multiple client threads submit concurrently and
// their batches overlap on the pool's workers.
//
// Overload control. Admission is bounded: at most max_inflight_requests
// requests and max_queued_batches batches are in flight at once, and the
// gate is consulted BEFORE any promise, plan lookup, or workspace exists.
// When full, the AdmissionPolicy decides: kBlock waits for capacity,
// kReject throws OverloadError synchronously, kShedOldest reclaims the
// oldest deadline-expired admitted work (settling it with DeadlineExceeded)
// and rejects only if nothing is sheddable. Every admitted request carries
// an effective deadline (min of SharedOptions::deadline and the per-request
// AtaRequest::deadline) checked again before its tasks compute, and a
// priority that orders queued batches at the pool's pop/steal points.
// Every admitted request's future is settled exactly once — with a value,
// the task's own error, DeadlineExceeded, or ServerShutdown — including
// across Server destruction under load.
//
// The warm serving path still performs zero schedule builds and zero
// workspace slab allocations per request — the compile-once/execute-many
// amortization the ROADMAP's repeated-traffic north star asks for — and no
// heap allocation at all: batch states, tickets, pool batches and promise
// shared states are recycled (DESIGN.md §8). A one-request batch takes the
// gate mutex twice: once to admit, once to settle and retire.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <vector>

#include "api/batch.hpp"
#include "api/errors.hpp"
#include "api/plan_cache.hpp"
#include "common/fault.hpp"
#include "metrics/latency.hpp"
#include "runtime/recycler.hpp"
#include "runtime/thread_pool.hpp"

namespace atalib::api {

/// What the admission gate does with a request that finds the server full.
enum class AdmissionPolicy {
  /// Wait for in-flight work to settle (the default; matches the historic
  /// unbounded behavior when the limits are kUnlimited).
  kBlock,
  /// Throw OverloadError synchronously — before any promise exists.
  kReject,
  /// Settle the oldest admitted requests whose deadlines already expired
  /// with DeadlineExceeded to free capacity; reject if nothing is
  /// sheddable. Never sheds unexpired work. An expired request whose
  /// compute already began is cancelled instead (its remaining units
  /// skip) and frees its slot when its running units exit.
  kShedOldest,
};

namespace detail {

/// Why a request stopped early; kNone while it may still complete.
enum class CancelReason { kNone, kDeadline, kShed, kShutdown };

/// Per-request settle state shared by the task path, the deadline check,
/// the shed scan, and the destructor sweep. Whoever wins the `settled` CAS
/// owns the promise and must release the request's admission slot.
///
/// An early settle (deadline / shed / shutdown) must not free a request
/// whose units may still be writing its C. The canceller records the
/// reason, then claims the not-started state (started_ns -1 ->
/// kNeverStarted): if that CAS wins, no unit has computed and none can,
/// so it settles at once; otherwise the unit that takes the request's
/// remaining count to zero settles it with the recorded reason.
///
/// Tickets belong to a recycled batch state (server.cpp) and are reused
/// across requests; a ticket joins the admission ledger *unarmed*
/// (`settled` true, so the shed scan and the destructor sweep pass over it)
/// and is armed once its promise exists.
struct RequestTicket {
  /// started_ns once a canceller has claimed the not-started state.
  static constexpr std::int64_t kNeverStarted = -2;

  std::promise<void> promise;
  std::atomic<bool> settled{true};
  /// First early-settle cause (CAS from kNone); units that observe it
  /// skip their compute, and the settle raises the matching error.
  std::atomic<CancelReason> cancel{CancelReason::kNone};
  std::chrono::steady_clock::time_point deadline = kNoDeadline;
  std::chrono::steady_clock::time_point admitted_at{};
  /// steady_clock nanos when the request's first unit began computing;
  /// -1 until then, kNeverStarted after a canceller claimed it. Claimed by
  /// CAS so queue-wait is recorded once and no unit starts after a claim.
  std::atomic<std::int64_t> started_ns{-1};
  /// Units not yet finished; the one taking it to zero settles.
  std::atomic<int> remaining{0};
  /// The first failing unit claims `failed` and writes `error`; the acq_rel
  /// `remaining` countdown publishes it to whichever unit settles.
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  /// Admission-ledger links (Server::gate_mu_).
  RequestTicket* ledger_prev = nullptr;
  RequestTicket* ledger_next = nullptr;
  bool in_ledger = false;
};

/// One fused batch's reusable state (server.cpp).
template <typename T>
struct BatchState;

}  // namespace detail

class Server {
 public:
  /// "No limit" for the admission bounds below. Distinct from 0, which is
  /// a genuine zero-capacity gate (every submit is refused).
  static constexpr std::size_t kUnlimited = ~static_cast<std::size_t>(0);

  struct Options {
    /// Pool slots (0 = hardware concurrency). Workers = threads - 1; the
    /// warm serving path never blocks a client thread on compute.
    int threads = 0;
    /// LRU capacity of the plan cache (plans, not bytes).
    std::size_t plan_capacity = PlanCache::kDefaultCapacity;
    /// Admission bound on requests admitted but not yet settled.
    std::size_t max_inflight_requests = kUnlimited;
    /// Admission bound on batches admitted but not yet retired (a submit()
    /// is a batch of one). 0 refuses every submission.
    std::size_t max_queued_batches = kUnlimited;
    /// What to do when either bound is hit.
    AdmissionPolicy admission = AdmissionPolicy::kBlock;
  };

  Server() : Server(Options{}) {}
  explicit Server(const Options& opts);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Teardown under load is a defined path: every future still in flight
  /// is settled with ServerShutdown (its tasks become no-ops), concurrent
  /// blocked/new submissions throw ServerShutdown, and the destructor
  /// waits for every admitted batch to retire before the pool joins — so
  /// no task can touch server state, or a client's a/c buffers, after
  /// ~Server returns. A request whose compute already began lets its
  /// running units finish (a GEMM is never interrupted mid-write), skips
  /// the rest, and settles with ServerShutdown when its last unit exits.
  ~Server();

  /// Admit one request. `a` and `c` must stay valid until the returned
  /// future is ready, and `c` must not alias any other in-flight request's
  /// output. `opts.threads`/`oversub`/`engine`/`recurse` select the plan;
  /// `opts.priority`/`opts.deadline` are this request's QoS. Warm requests
  /// return without blocking; cold ones pay planning and workspace growth
  /// in line (see the class comment). Throws std::invalid_argument on bad
  /// options or shape mismatches, OverloadError per the admission policy,
  /// and ServerShutdown when racing destruction — all before anything is
  /// enqueued; a task failure, DeadlineExceeded, or ServerShutdown during
  /// teardown surfaces on the future.
  template <typename T>
  std::future<void> submit(T alpha, ConstMatrixView<T> a, MatrixView<T> c,
                           SharedOptions opts);

  /// submit() with defaults: plan width = the pool's concurrency,
  /// oversub 2 so stealing can rebalance uneven tasks.
  template <typename T>
  std::future<void> submit(T alpha, ConstMatrixView<T> a, MatrixView<T> c);

  /// Admit many requests as ONE fused executor batch (the small-Gram
  /// throughput path, DESIGN.md §8): one admission-gate pass for the whole
  /// batch, group by shape through the plan cache (one lookup per distinct
  /// shape), warm the pool once to the batch-wide workspace bound, and
  /// enqueue every request's tasks as a single queued pool batch, placed
  /// by the pool's block distribution over its worker slots (so on a
  /// multi-node host served traffic follows each node's share of worker
  /// slots) — per-worker pack buffers and arenas are shared
  /// across the whole batch, so the warm path performs zero schedule
  /// builds and zero slab allocations regardless of batch size. The
  /// batch's pool priority is the max request (and opts) priority, and
  /// higher-priority requests' tasks are ordered first within it. Returns
  /// one future per request, in request order; a task failure surfaces on
  /// its own request's future only, and an expired request settles with
  /// DeadlineExceeded without computing. Validation is all-or-nothing: any
  /// bad request throws std::invalid_argument before the batch is admitted.
  /// Buffer-lifetime rules match
  /// submit(), per request. Requests of one batch share `opts` (and a
  /// scalar type).
  template <typename T>
  std::vector<std::future<void>> submit_batch(std::span<const AtaRequest<T>> requests,
                                              SharedOptions opts);

  /// submit_batch() with the batched-serving default plan shape: width 1,
  /// oversub 1 — each small request is one serial task, and parallelism
  /// comes from the *batch* spreading requests over the pool, not from
  /// splitting any single small Gram into stripes.
  template <typename T>
  std::vector<std::future<void>> submit_batch(std::span<const AtaRequest<T>> requests);

  PlanCacheStats plan_stats() const { return cache_.stats(); }
  /// Topology + steal-locality snapshot of the serving pool: per-node
  /// scheduled/executed task counts and local/remote steal totals
  /// (metrics/numa_stats.hpp). Pairs with plan_stats()/stats() as the
  /// introspection surface a deployment scrapes.
  metrics::NumaPoolStats runtime_stats() const { return pool_.numa_stats(); }
  /// Overload-control snapshot: admission outcome counters (monotonic),
  /// in-flight gauges, and per-phase latency quantiles (admission-wait,
  /// queue-wait, compute). Lock-free except the two gauges.
  metrics::ServerStats stats() const;
  PlanCache& plans() { return cache_; }
  runtime::ThreadPool& executor() { return pool_; }

 private:
  using Ticket = detail::RequestTicket;
  using CancelReason = detail::CancelReason;
  using Clock = std::chrono::steady_clock;

  /// Enqueue `requests` as one fused pool batch and write one future per
  /// request to `futures` — the body of submit() and submit_batch().
  template <typename T>
  void enqueue_batch(std::span<const AtaRequest<T>> requests, const SharedOptions& opts,
                     std::future<void>* futures);
  /// A batch state with room for `nreq` requests: recycled when one is
  /// idle, else new.
  template <typename T>
  detail::BatchState<T>* acquire_state(std::size_t nreq);
  /// Return a retired state to its free list (bounded; the caller deletes
  /// what comes back). Runs under gate_mu_ so ~Server cannot free the list
  /// under it.
  template <typename T>
  detail::BatchState<T>* recycle(detail::BatchState<T>* state) ATALIB_REQUIRES(gate_mu_);
  /// Pass the admission gate for a batch of `nreq` unarmed tickets and
  /// link them into the ledger, in one critical section; returns when the
  /// gate passed. Throws OverloadError/ServerShutdown per policy.
  /// Re-entrant submissions (from inside a pool task, which execute
  /// inline) bypass the bounds — blocking there would deadlock the worker.
  Clock::time_point admit(Ticket* tickets, std::size_t nreq);
  /// Roll back an admit() whose batch failed planning.
  void unadmit(Ticket* tickets, std::size_t nreq);
  void link(Ticket& t) ATALIB_REQUIRES(gate_mu_);
  void unlink(Ticket& t) ATALIB_REQUIRES(gate_mu_);
  /// Cancel every ledger ticket whose deadline has passed; those no unit
  /// has started settle with DeadlineExceeded now, the rest when their
  /// last unit exits. Returns how many settled now (capacity freed).
  std::size_t shed_expired(Clock::time_point now) ATALIB_REQUIRES(gate_mu_);
  /// Record `why` (the first cause wins) and try to claim the not-started
  /// state. True iff no unit has begun computing and none can, so the
  /// caller may settle the ticket at once (see RequestTicket).
  static bool cancel(Ticket& t, CancelReason why);
  /// Win the settle CAS or return false.
  static bool claim(Ticket& t);
  /// The error a cancelled ticket settles with; counts the outcome.
  std::exception_ptr cancelled_error(const Ticket& t);
  /// Release a claimed ticket's admission slot (`settled`) and/or retire a
  /// finished batch (`retired`), recycling its state, under ONE gate_mu_
  /// acquisition; then fulfil the ticket's promise (null `error` = value).
  /// Retirement is the final server-state touch of any admitted batch —
  /// ~Server waits for queued_batches_ == 0, so the server outlives every
  /// task-side access.
  template <typename T>
  void finish(Ticket* settled, std::exception_ptr error, detail::BatchState<T>* retired);

  PlanCache cache_;

  // Admission configuration (immutable after construction).
  std::size_t max_inflight_;
  std::size_t max_batches_;
  AdmissionPolicy policy_;
  /// Parsed ATALIB_FAULTS plan (null unless the build enables injection
  /// and the variable is set).
  std::shared_ptr<const fault::Plan> faults_;

  // Monotonic outcome counters (relaxed; see metrics::ServerStats).
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> deadline_expired_{0};
  std::atomic<std::uint64_t> completed_{0};

  // Per-phase latency (lock-free).
  metrics::LatencyHistogram admission_wait_;
  metrics::LatencyHistogram queue_wait_;
  metrics::LatencyHistogram compute_;

  /// The admission gate. Guards the two in-flight gauges, the shutdown
  /// flag, and the ledger of admitted-unsettled tickets (oldest first, an
  /// intrusive list through the tickets) the shed scan and destructor
  /// sweep walk. A ticket leaves the ledger when it settles.
  mutable Mutex gate_mu_;
  std::condition_variable_any gate_cv_;
  std::size_t inflight_requests_ ATALIB_GUARDED_BY(gate_mu_) = 0;
  std::size_t queued_batches_ ATALIB_GUARDED_BY(gate_mu_) = 0;
  /// kBlock admitters currently inside gate_cv_.wait; ~Server waits for
  /// them to drain so no thread still waits on the cv when it destructs.
  /// Releases notify gate_cv_ only while someone waits on it.
  std::size_t gate_waiters_ ATALIB_GUARDED_BY(gate_mu_) = 0;
  bool shutting_down_ ATALIB_GUARDED_BY(gate_mu_) = false;
  Ticket* ledger_head_ ATALIB_GUARDED_BY(gate_mu_) = nullptr;
  Ticket* ledger_tail_ ATALIB_GUARDED_BY(gate_mu_) = nullptr;

  /// Idle batch states per scalar type (DESIGN.md §8). They fill lazily,
  /// keep their vectors' capacity and their tickets, and are bounded in
  /// count and in total tickets.
  Mutex free_mu_;
  detail::BatchState<float>* free_f32_ ATALIB_GUARDED_BY(free_mu_) = nullptr;
  detail::BatchState<double>* free_f64_ ATALIB_GUARDED_BY(free_mu_) = nullptr;
  std::size_t idle_states_ ATALIB_GUARDED_BY(free_mu_) = 0;
  std::size_t idle_tickets_ ATALIB_GUARDED_BY(free_mu_) = 0;
  /// Shared states of the request futures; outlives the server while a
  /// client still holds one.
  runtime::BlockRecycler* blocks_;

  /// Declared last so it destructs FIRST: ~ThreadPool joins the workers,
  /// and that join is what guarantees no worker is still inside a mutex
  /// unlock or histogram record when the members above destruct.
  runtime::ThreadPool pool_;
};

#define ATALIB_API_SERVER_EXTERN(T)                                                    \
  extern template std::future<void> Server::submit<T>(T, ConstMatrixView<T>,           \
                                                      MatrixView<T>, SharedOptions);   \
  extern template std::future<void> Server::submit<T>(T, ConstMatrixView<T>,           \
                                                      MatrixView<T>);                  \
  extern template std::vector<std::future<void>> Server::submit_batch<T>(              \
      std::span<const AtaRequest<T>>, SharedOptions);                                  \
  extern template std::vector<std::future<void>> Server::submit_batch<T>(              \
      std::span<const AtaRequest<T>>)
ATALIB_API_SERVER_EXTERN(float);
ATALIB_API_SERVER_EXTERN(double);
#undef ATALIB_API_SERVER_EXTERN

}  // namespace atalib::api
