#pragma once
// Wall-clock timing for the benchmark harness.

#include <ctime>

#include <chrono>

namespace atalib {

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction / last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Per-thread CPU-time stopwatch (CLOCK_THREAD_CPUTIME_ID). Unlike Timer,
/// this does not advance while the thread is descheduled, so it measures a
/// simulated rank's busy time correctly even when many rank threads
/// oversubscribe few cores.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_(now()) {}

  void reset() { start_ = now(); }

  double seconds() const { return now() - start_; }

 private:
  static double now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  }
  double start_;
};

}  // namespace atalib
