#include "runtime/recycler.hpp"

namespace atalib::runtime {

BlockRecycler::~BlockRecycler() {
  // Only the last release() deletes, so nobody else can hold mu_ here; the
  // lock keeps the guarded reads visible to the analysis.
  MutexLock lk(mu_);
  while (free_ != nullptr) {
    Node* n = free_;
    free_ = n->next;
    ::operator delete(n);
  }
}

void BlockRecycler::release() {
  bool last = false;
  {
    MutexLock lk(mu_);
    last = unref();
  }
  if (last) delete this;
}

void* BlockRecycler::allocate() {
  {
    MutexLock lk(mu_);
    if (free_ != nullptr) {
      Node* n = free_;
      free_ = n->next;
      --nfree_;
      ++refs_;
      return n;
    }
  }
  // Refill several blocks at once: a thread that fulfilled a promise
  // holds its block until just after the waiting client resumes, so a
  // client re-submitting at once briefly needs a few more blocks than it
  // has outstanding. Refilling in chunks absorbs that overlap up front
  // instead of allocating again whenever a wake-up happens to win the race.
  void* block = ::operator new(kBlockBytes);  // may throw: no reference yet
  Node* chunk = nullptr;
  for (std::size_t i = 1; i < kRefillBlocks; ++i) {
    void* spare = ::operator new(kBlockBytes, std::nothrow);
    if (spare == nullptr) break;
    chunk = new (spare) Node{chunk};
  }
  MutexLock lk(mu_);
  ++refs_;
  while (chunk != nullptr) {
    Node* n = chunk;
    chunk = n->next;
    if (nfree_ < kMaxFree) {
      free_ = new (n) Node{free_};
      ++nfree_;
    } else {
      ::operator delete(n);
    }
  }
  return block;
}

void BlockRecycler::deallocate(void* block) noexcept {
  bool last = false;
  {
    MutexLock lk(mu_);
    if (nfree_ < kMaxFree) {
      free_ = new (block) Node{free_};
      ++nfree_;
      block = nullptr;
    }
    last = unref();
  }
  ::operator delete(block);
  if (last) delete this;
}

}  // namespace atalib::runtime
