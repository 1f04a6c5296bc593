#pragma once
// In-process message-passing runtime (the MPI substitute; see DESIGN.md).
//
// Each rank is a std::thread; ranks share no algorithm state — every matrix
// block crosses rank boundaries as an explicit, counted message through a
// tagged mailbox. Sends are buffered (payload copied into the destination
// mailbox, sender never blocks), like MPI_Bsend, which keeps tree-structured
// protocols trivially deadlock-free. Receives block until a message with a
// matching (source, tag) arrives.
//
// Tags are caller-chosen; (source, tag) pairs must be unique among in-flight
// messages for a deterministic protocol, which all algorithms in dist/
// guarantee by tagging with task-tree node ids or stage numbers.

#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <stdexcept>
#include <vector>

#include "common/thread_annotations.hpp"
#include "mpisim/stats.hpp"
#include "runtime/executor.hpp"

namespace atalib::mpisim {

/// Raw message payload.
struct Message {
  int source = 0;
  int tag = 0;
  std::vector<unsigned char> bytes;
};

/// Thrown out of a blocked recv when a peer rank failed and the
/// communicator aborted the run (see Communicator::run). Catch-and-ignore
/// is wrong — the original failure is rethrown to the run's caller.
struct AbortedError : std::runtime_error {
  AbortedError() : std::runtime_error("mpisim: communicator aborted after a rank failure") {}
};

/// One rank's incoming queue.
class Mailbox {
 public:
  void push(Message msg);
  /// Blocking receive of the first message matching (source, tag).
  /// Throws AbortedError once the mailbox is poisoned.
  Message pop_match(int source, int tag);
  /// Poison the mailbox: wake every blocked pop_match and make it (and
  /// all future ones) throw AbortedError.
  void poison();

 private:
  Mutex mu_;
  std::condition_variable_any cv_;
  std::deque<Message> queue_ ATALIB_GUARDED_BY(mu_);
  bool poisoned_ ATALIB_GUARDED_BY(mu_) = false;
};

class Communicator;

/// Per-rank handle passed to the rank function: the MPI_Comm + rank pair.
class RankCtx {
 public:
  RankCtx(Communicator& comm, int rank) : comm_(comm), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const;

  /// Typed buffered send of `count` elements of T.
  template <typename T>
  void send(int dest, int tag, const T* data, std::size_t count);

  /// Typed blocking receive; returns the payload.
  template <typename T>
  std::vector<T> recv(int source, int tag);

  /// Convenience for single scalars / small structs.
  template <typename T>
  void send_value(int dest, int tag, const T& v) {
    send(dest, tag, &v, 1);
  }
  template <typename T>
  T recv_value(int source, int tag) {
    return recv<T>(source, tag).at(0);
  }

 private:
  Communicator& comm_;
  int rank_;
};

/// The world: owns mailboxes, traffic counters, and the rank threads.
class Communicator {
 public:
  explicit Communicator(int size);

  int size() const { return size_; }
  TrafficSnapshot traffic() const { return stats_.snapshot(); }

  /// Run `fn(ctx)` on every rank (one thread per rank) and join. If any
  /// rank throws, every mailbox is poisoned so peers blocked in recv wake
  /// with AbortedError instead of hanging, and the *first* failure (never
  /// the secondary AbortedErrors) is rethrown here.
  void run(const std::function<void(RankCtx&)>& fn);

  /// Run every rank as one batch on a runtime::Executor instead of
  /// spawning fresh threads: rank r executes as task r and additionally
  /// receives its slot's TaskContext (reusable Workspace arena). Rank
  /// bodies BLOCK on recv, so the executor must guarantee one concurrent
  /// slot per rank; `exec.concurrency() >= size()` is required (throws
  /// std::logic_error otherwise) and only executors that run a
  /// <= concurrency() batch fully concurrently are safe — the persistent
  /// ThreadPool qualifies (see DESIGN.md §3), an OpenMP fork-join with a
  /// static schedule does not.
  void run_on(runtime::Executor& exec,
              const std::function<void(RankCtx&, runtime::TaskContext&)>& fn);

  // Internal transport (used by RankCtx).
  void send_bytes(int source, int dest, int tag, std::vector<unsigned char> bytes,
                  std::size_t words);
  Message recv_bytes(int self, int source, int tag, std::size_t elem_size);

 private:
  /// Wrap a rank body so any failure poisons all mailboxes (unblocking
  /// peers) before propagating.
  template <typename Fn>
  void guarded_rank(Fn&& fn) {
    try {
      fn();
    } catch (...) {
      for (Mailbox& mb : mailboxes_) mb.poison();
      throw;
    }
  }

  int size_;
  std::vector<Mailbox> mailboxes_;
  TrafficStats stats_;
};

template <typename T>
void RankCtx::send(int dest, int tag, const T* data, std::size_t count) {
  std::vector<unsigned char> bytes(count * sizeof(T));
  if (count > 0) std::memcpy(bytes.data(), data, bytes.size());
  comm_.send_bytes(rank_, dest, tag, std::move(bytes), count);
}

template <typename T>
std::vector<T> RankCtx::recv(int source, int tag) {
  Message msg = comm_.recv_bytes(rank_, source, tag, sizeof(T));
  std::vector<T> out(msg.bytes.size() / sizeof(T));
  if (!out.empty()) std::memcpy(out.data(), msg.bytes.data(), msg.bytes.size());
  return out;
}

}  // namespace atalib::mpisim
