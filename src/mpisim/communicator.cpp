#include "mpisim/communicator.hpp"

#include <stdexcept>

#include "runtime/thread_pool.hpp"

namespace atalib::mpisim {

void Mailbox::push(Message msg) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(msg));
  }
  cv_.notify_all();
}

Message Mailbox::pop_match(int source, int tag) {
  UniqueLock lock(mu_);
  for (;;) {
    if (poisoned_) throw AbortedError{};
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->source == source && it->tag == tag) {
        Message msg = std::move(*it);
        queue_.erase(it);
        return msg;
      }
    }
    cv_.wait(lock);
  }
}

void Mailbox::poison() {
  {
    MutexLock lock(mu_);
    poisoned_ = true;
  }
  cv_.notify_all();
}

Communicator::Communicator(int size)
    : size_(size), mailboxes_(static_cast<std::size_t>(size)), stats_(size) {
  if (size <= 0) throw std::invalid_argument("Communicator size must be positive");
}

int RankCtx::size() const { return comm_.size(); }

void Communicator::send_bytes(int source, int dest, int tag, std::vector<unsigned char> bytes,
                              std::size_t words) {
  if (dest < 0 || dest >= size_) throw std::out_of_range("send to invalid rank");
  if (dest == source) throw std::logic_error("rank sent a message to itself");
  stats_.on_send(source, words);
  mailboxes_[static_cast<std::size_t>(dest)].push(Message{source, tag, std::move(bytes)});
}

Message Communicator::recv_bytes(int self, int source, int tag, std::size_t elem_size) {
  Message msg = mailboxes_[static_cast<std::size_t>(self)].pop_match(source, tag);
  stats_.on_recv(self, msg.bytes.size() / elem_size);
  return msg;
}

namespace {

/// First-failure collector that prefers a rank's real exception over the
/// secondary AbortedErrors its failure triggers in peers (the abort races
/// the original store, so preference — not order — decides).
struct FirstError {
  Mutex mu;
  std::exception_ptr error ATALIB_GUARDED_BY(mu);
  bool aborted ATALIB_GUARDED_BY(mu) = false;

  void capture() {
    try {
      throw;
    } catch (const AbortedError&) {
      MutexLock lock(mu);
      if (!error) {
        error = std::current_exception();
        aborted = true;
      }
    } catch (...) {
      MutexLock lock(mu);
      if (!error || aborted) {
        error = std::current_exception();
        aborted = false;
      }
    }
  }

  /// Called after every rank joined; the lock is uncontended and keeps the
  /// guarded read visible to the thread-safety analysis.
  void rethrow_if_set() {
    std::exception_ptr err;
    {
      MutexLock lock(mu);
      err = error;
    }
    if (err) std::rethrow_exception(err);
  }
};

}  // namespace

void Communicator::run_on(runtime::ThreadPool& pool,
                          const std::function<void(RankCtx&, runtime::TaskContext&)>& fn) {
  if (pool.concurrency() < size_) {
    throw std::logic_error(
        "Communicator::run_on: pool has fewer slots than ranks; blocking "
        "rank bodies would deadlock");
  }
  if (size_ > 1 && runtime::ThreadPool::current_thread_in_task()) {
    throw std::logic_error(
        "Communicator::run_on: called from inside a pool task; a nested "
        "submission executes inline-serial and blocking rank bodies would "
        "deadlock");
  }
  // Failures are collected here, not left to the pool: the pool would keep
  // whichever exception landed first, which can be a secondary
  // AbortedError rather than the rank failure that caused it.
  FirstError first;
  pool.run(size_, [&](int task, runtime::TaskContext& tctx) {
    RankCtx ctx(*this, task);
    try {
      fn(ctx, tctx);
    } catch (...) {
      // Unblock peers waiting on this rank before recording the failure.
      for (Mailbox& mb : mailboxes_) mb.poison();
      first.capture();
    }
  });
  first.rethrow_if_set();
}

}  // namespace atalib::mpisim
