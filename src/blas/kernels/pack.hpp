#pragma once
// Panel packing and pack-buffer storage for the blocked gemm/syrk drivers
// (see DESIGN.md §2).
//
// Packing formats (what every microkernel consumes):
//   pack_a: MR-row micro-panels of op(A) — panel p starts at dst[p * kc *
//   MR], element (row r, depth k) at dst[k * MR + r], rows past the edge
//   zero-filled so kernels never branch on MR.
//   pack_b: NR-column micro-panels of op(B) — element (depth k, col c) at
//   dst[k * NR + c], columns past the edge zero-filled.
//
// A leaf whose operand k-panel is cache-resident skips these for every
// full micro-panel and hands the microkernel the operand itself, stepping
// by its row stride (block_panels below); only ragged edge micro-panels
// are packed then (DESIGN.md §2).
//
// Each packer has a contiguous-copy fast path for the operand orientation
// whose packed index walks unit-stride source memory (op(A) transposed /
// op(B) untransposed — gemm_tn, *the* AtA leaf shape, hits both) and a
// pointer-stepped gather for the other orientation; neither goes through a
// per-element accessor with a transpose branch.

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>

#include "common/aligned_buffer.hpp"
#include "common/arena.hpp"
#include "matrix/view.hpp"

namespace atalib::blas::kernels {

/// Process-wide count of thread-local pack-buffer (re)allocations — the
/// fallback path PackStorage takes only for arena-less callers. Pool-worker
/// leaves (including every Strassen base case) route packs through the slot
/// arena, so tests assert this counter stays frozen across warm runs.
inline std::atomic<std::uint64_t>& thread_pack_allocs() {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

/// Operand view honoring a transpose without materializing it.
template <typename T>
struct OpView {
  ConstMatrixView<T> v;
  bool trans;
  index_t rows() const { return trans ? v.cols : v.rows; }
  index_t cols() const { return trans ? v.rows : v.cols; }
};

/// Where the microkernel reads one micro-panel: `data` holds depth 0 and
/// depth k starts at data + k * step (MR / NR for a packed panel, the row
/// stride for an operand read in place).
template <typename T>
struct MicroPanel {
  const T* data;
  index_t step;
};

/// Pack an mc x kc block of op(A) starting at (i0, p0) into MR-row
/// micro-panels.
template <typename T>
void pack_a(const OpView<T>& a, index_t i0, index_t p0, index_t mc, index_t kc, index_t mr_tile,
            T* dst) {
  const index_t ld = a.v.stride;
  for (index_t p = 0; p < mc; p += mr_tile) {
    const index_t mr = std::min(mr_tile, mc - p);
    if (a.trans) {
      // op(A)(i0+p+r, p0+k) = A(p0+k, i0+p+r): unit stride in r.
      const T* src0 = a.v.data + p0 * ld + (i0 + p);
      for (index_t k = 0; k < kc; ++k) {
        const T* src = src0 + k * ld;
        index_t r = 0;
        for (; r < mr; ++r) dst[k * mr_tile + r] = src[r];
        for (; r < mr_tile; ++r) dst[k * mr_tile + r] = T(0);
      }
    } else {
      // op(A)(i0+p+r, p0+k) = A(i0+p+r, p0+k): unit stride in k per row.
      for (index_t r = 0; r < mr; ++r) {
        const T* src = a.v.data + (i0 + p + r) * ld + p0;
        for (index_t k = 0; k < kc; ++k) dst[k * mr_tile + r] = src[k];
      }
      for (index_t r = mr; r < mr_tile; ++r) {
        for (index_t k = 0; k < kc; ++k) dst[k * mr_tile + r] = T(0);
      }
    }
    dst += mr_tile * kc;
  }
}

/// Pack a kc x nc block of op(B) starting at (p0, j0) into NR-column
/// micro-panels.
template <typename T>
void pack_b(const OpView<T>& b, index_t p0, index_t j0, index_t kc, index_t nc, index_t nr_tile,
            T* dst) {
  const index_t ld = b.v.stride;
  for (index_t q = 0; q < nc; q += nr_tile) {
    const index_t nr = std::min(nr_tile, nc - q);
    if (!b.trans) {
      // op(B)(p0+k, j0+q+c) = B(p0+k, j0+q+c): unit stride in c.
      const T* src0 = b.v.data + p0 * ld + (j0 + q);
      for (index_t k = 0; k < kc; ++k) {
        const T* src = src0 + k * ld;
        index_t c = 0;
        for (; c < nr; ++c) dst[k * nr_tile + c] = src[c];
        for (; c < nr_tile; ++c) dst[k * nr_tile + c] = T(0);
      }
    } else {
      // op(B)(p0+k, j0+q+c) = B(j0+q+c, p0+k): unit stride in k per column.
      for (index_t c = 0; c < nr; ++c) {
        const T* src = b.v.data + (j0 + q + c) * ld + p0;
        for (index_t k = 0; k < kc; ++k) dst[k * nr_tile + c] = src[k];
      }
      for (index_t c = nr; c < nr_tile; ++c) {
        for (index_t k = 0; k < kc; ++k) dst[k * nr_tile + c] = T(0);
      }
    }
    dst += nr_tile * kc;
  }
}

/// Pack-buffer storage for one gemm/syrk call: a caller arena when provided
/// (checkpoint-scoped, so the allocation vanishes on return — the leaf-path
/// malloc-free guarantee), otherwise per-thread buffers grown on demand and
/// reused across calls. Each buffer is drawn on its first use, so a call
/// that reads every micro-panel in place draws nothing.
template <typename T>
class PackStorage {
 public:
  PackStorage(Arena<T>* arena, index_t a_elems, index_t b_elems)
      : arena_(arena),
        cp_(arena != nullptr ? arena->checkpoint() : typename Arena<T>::Checkpoint{0}),
        a_elems_(a_elems),
        b_elems_(b_elems) {}
  // An explicit checkpoint, not a std::optional<Arena<T>::Scope>: with the
  // buffers drawn lazily, GCC cannot see that an engaged optional's Scope
  // is initialized and warns (-Wmaybe-uninitialized) in gemm and syrk_ln.
  ~PackStorage() {
    if (arena_ != nullptr) arena_->restore(cp_);
  }
  PackStorage(const PackStorage&) = delete;
  PackStorage& operator=(const PackStorage&) = delete;

  T* a() {
    if (a_ == nullptr) a_ = draw(a_elems_, thread_buffers().a);
    return a_;
  }
  T* b() {
    if (b_ == nullptr) b_ = draw(b_elems_, thread_buffers().b);
    return b_;
  }

 private:
  struct Buffers {
    AlignedBuffer<T> a;
    AlignedBuffer<T> b;
  };
  static Buffers& thread_buffers() {
    thread_local Buffers bufs;
    return bufs;
  }

  T* draw(index_t elems, AlignedBuffer<T>& fallback) {
    const auto count = static_cast<std::size_t>(elems);
    if (arena_ != nullptr) return arena_->allocate(count);
    if (fallback.size() < count) {
      fallback = AlignedBuffer<T>(count);
      thread_pack_allocs().fetch_add(1, std::memory_order_relaxed);
    }
    return fallback.data();
  }

  Arena<T>* arena_;
  typename Arena<T>::Checkpoint cp_;
  index_t a_elems_;
  index_t b_elems_;
  T* a_ = nullptr;
  T* b_ = nullptr;
};

/// The micro-panels of one kc-deep block, by offset into the block: the
/// first `in_place` offsets (whole micro-panels) are read straight out of
/// the operand with step = its row stride, the rest from the packed panels.
template <typename T>
struct BlockPanels {
  const T* src;  // operand element at (depth p0, offset 0); null when nothing is in place
  index_t ld;
  index_t in_place;
  const T* pack;  // packed panels, slot of offset 0; null when nothing is packed
  index_t kc;
  index_t tile;

  MicroPanel<T> operator()(index_t off) const {
    return off < in_place ? MicroPanel<T>{src + off, ld} : MicroPanel<T>{pack + off * kc, tile};
  }
};

/// Micro-panels of the block [x0, x0 + len) x [p0, p0 + kc) of op(A) rows
/// (`rows_of_a`, packed by pack_a) or op(B) columns (packed by pack_b), cut
/// `tile` wide.
/// With `in_place` — the operand walks its rows along k (op(A) = A^T or
/// op(B) = B) and its k-panel is cache-resident, KernelConfig::reads_in_place
/// — every full micro-panel is read in place and only the ragged tail is
/// packed, into its usual slot, so no tile reads past the operand. Otherwise
/// the whole block is packed. `buffer()` is called only when something is
/// packed, so a block with no ragged tail draws no pack buffer.
template <typename T, typename Buffer>
BlockPanels<T> block_panels(const OpView<T>& x, bool rows_of_a, index_t x0, index_t p0,
                            index_t len, index_t kc, index_t tile, bool in_place,
                            Buffer buffer) {
  assert(!in_place || x.trans == rows_of_a);
  const index_t ld = x.v.stride;
  const index_t n_in_place = in_place ? len / tile * tile : 0;
  BlockPanels<T> out{in_place ? x.v.data + p0 * ld + x0 : nullptr, ld, n_in_place, nullptr, kc,
                     tile};
  if (n_in_place < len) {
    T* const dst = buffer();
    out.pack = dst;
    if (rows_of_a) {
      pack_a(x, x0 + n_in_place, p0, len - n_in_place, kc, tile, dst + n_in_place * kc);
    } else {
      pack_b(x, p0, x0 + n_in_place, kc, len - n_in_place, tile, dst + n_in_place * kc);
    }
  }
  return out;
}

}  // namespace atalib::blas::kernels
