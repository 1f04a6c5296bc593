#pragma once
// Reusable per-worker workspace for the task runtime.
//
// Every pool slot owns one Workspace: a monotonically grown Arena per
// scalar type, kept warm across task batches. A task asks for
// `arena<T>(min_capacity)` at the start of its body and bump-allocates out
// of it; the slab is grown to the high-water mark of everything the slot
// has ever run and never freed between calls, so a warm pool performs zero
// workspace mallocs on the steady-state hot path.
//
// Under ATALIB_CHECKED the workspace enforces the §5 warm-path ordering it
// otherwise only promises: once warm() has grown this slot to a
// high-water mark, an arena request at or below that mark must be
// satisfied without a slab allocation — a grow there means the pool's warm
// protocol skipped this slot, and checked builds abort instead of silently
// allocating inside a task. Each arena() call also stamps the arena with
// the calling thread (the lease), so a stale Arena& used from another
// task's thread aborts at its first allocate (common/arena.hpp).

#include <cstddef>
#include <type_traits>

#include "common/arena.hpp"
#include "common/checked.hpp"

namespace atalib::runtime {

class Workspace {
 public:
  /// The slot's arena for T, reset to empty with >= min_capacity free
  /// elements. Growth is monotonic: once the slot has seen the largest
  /// request it will ever get, subsequent calls never allocate.
  template <typename T>
  Arena<T>& arena(std::size_t min_capacity) {
    Arena<T>& a = slot<T>();
    a.reset();
    if (a.capacity() < min_capacity) {
#if ATALIB_CHECKED
      if (min_capacity <= warmed<T>()) {
        checked_abort("§5 warm-path ordering violated",
                      "an arena request covered by the warmed high-water mark "
                      "grew the slab (the warm protocol missed this slot)");
      }
#endif
      a.reserve(min_capacity);
      ++grows_;
    }
#if ATALIB_CHECKED
    a.begin_lease(checked_thread_token());
#endif
    return a;
  }

  /// Grow both typed slabs to the given element counts (and reset them).
  /// The pool calls this from the warming thread; nothing is written, so
  /// a page is first touched by the task that first uses it.
  void warm(std::size_t float_elems, std::size_t double_elems) {
    arena<float>(float_elems);
    arena<double>(double_elems);
#if ATALIB_CHECKED
    if (float_elems > warmed_float_) warmed_float_ = float_elems;
    if (double_elems > warmed_double_) warmed_double_ = double_elems;
#endif
  }

  /// Slab (re)allocations performed so far. Benches assert this stops
  /// moving once the pool is warm.
  std::size_t grow_count() const noexcept { return grows_; }

  /// Current footprint in bytes across both typed slabs.
  std::size_t bytes() const noexcept {
    return float_.capacity() * sizeof(float) + double_.capacity() * sizeof(double);
  }

 private:
  template <typename T>
  Arena<T>& slot() {
    static_assert(std::is_same_v<T, float> || std::is_same_v<T, double>,
                  "runtime workspace supports float and double");
    if constexpr (std::is_same_v<T, float>) {
      return float_;
    } else {
      return double_;
    }
  }

#if ATALIB_CHECKED
  template <typename T>
  std::size_t warmed() const noexcept {
    return std::is_same_v<T, float> ? warmed_float_ : warmed_double_;
  }
#endif

  Arena<float> float_;
  Arena<double> double_;
  std::size_t grows_ = 0;
#if ATALIB_CHECKED
  std::size_t warmed_float_ = 0;
  std::size_t warmed_double_ = 0;
#endif
};

}  // namespace atalib::runtime
