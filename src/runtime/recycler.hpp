#pragma once
// Recycled storage for std::promise shared states (DESIGN.md §8).
//
// Every queued pool batch and every served request hands its client a
// std::future<void>. A default std::promise heap-allocates two blocks per
// use (the shared state and its result); at tens of thousands of requests
// per second that is a steady stream of malloc/free pairs on the serving
// path. A BlockRecycler keeps the freed blocks on a bounded free list and
// hands them out again, and RecyclingAllocator plugs it into
// std::promise(std::allocator_arg, alloc), so the API keeps returning plain
// std::future<void>s.
//
// A future may outlive the pool or server that made it, and its shared
// state is returned to the recycler when the last future or promise drops
// it. The recycler is therefore reference-counted: its owner holds one
// reference, every block it has handed out holds another, and whichever
// release comes last deletes it. The free list fills lazily, a small chunk
// at a time, and keeps at most kMaxFree idle blocks; everything beyond
// that goes back to the heap, as do requests larger than one block.

#include <cstddef>
#include <new>

#include "common/thread_annotations.hpp"

namespace atalib::runtime {

class BlockRecycler {
 public:
  /// Bytes per recycled block; larger requests bypass the free list.
  static constexpr std::size_t kBlockBytes = 128;
  /// Blocks allocated at once when the free list runs dry.
  static constexpr std::size_t kRefillBlocks = 16;
  /// Idle blocks kept at most (two per request a client still holds).
  static constexpr std::size_t kMaxFree = 1024;

  /// A new, empty recycler. The caller owns one reference and gives it up
  /// with release().
  static BlockRecycler* create() { return new BlockRecycler; }

  BlockRecycler(const BlockRecycler&) = delete;
  BlockRecycler& operator=(const BlockRecycler&) = delete;

  /// Drop the owner's reference. The recycler lives on until every block
  /// it handed out has come back.
  void release();

  /// One kBlockBytes block (recycled when one is idle); takes a reference.
  void* allocate();
  /// Return a block from allocate(); drops its reference.
  void deallocate(void* block) noexcept;

 private:
  struct Node {
    Node* next;
  };

  BlockRecycler() = default;
  ~BlockRecycler();

  /// Count one reference down; true when it was the last.
  bool unref() ATALIB_REQUIRES(mu_) { return --refs_ == 0; }

  Mutex mu_;
  std::size_t refs_ ATALIB_GUARDED_BY(mu_) = 1;  ///< owner + live blocks
  Node* free_ ATALIB_GUARDED_BY(mu_) = nullptr;
  std::size_t nfree_ ATALIB_GUARDED_BY(mu_) = 0;
};

/// Minimal allocator drawing std::promise shared states from a
/// BlockRecycler. Allocations that do not fit one block use the heap.
template <typename U>
class RecyclingAllocator {
 public:
  using value_type = U;

  explicit RecyclingAllocator(BlockRecycler* recycler) noexcept : recycler_(recycler) {}
  template <typename V>
  RecyclingAllocator(const RecyclingAllocator<V>& other) noexcept
      : recycler_(other.recycler()) {}

  U* allocate(std::size_t n) {
    if (!fits(n)) return static_cast<U*>(::operator new(n * sizeof(U)));
    return static_cast<U*>(recycler_->allocate());
  }
  void deallocate(U* p, std::size_t n) noexcept {
    if (!fits(n)) {
      ::operator delete(p);
      return;
    }
    recycler_->deallocate(p);
  }

  BlockRecycler* recycler() const noexcept { return recycler_; }
  template <typename V>
  bool operator==(const RecyclingAllocator<V>& other) const noexcept {
    return recycler_ == other.recycler();
  }

 private:
  static constexpr bool fits(std::size_t n) noexcept {
    return n * sizeof(U) <= BlockRecycler::kBlockBytes &&
           alignof(U) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__;
  }

  BlockRecycler* recycler_;
};

}  // namespace atalib::runtime
