#include "ata/ata.hpp"

#include <algorithm>
#include <cassert>

#include "blas/syrk.hpp"
#include "matrix/matrix.hpp"
#include "strassen/strassen.hpp"
#include "strassen/workspace.hpp"

namespace atalib {
namespace {

// Algorithm 1, lines 5-12. `arena` feeds both the base-case syrk's packed
// panels and the off-diagonal Strassen products' temporaries.
template <typename T>
void ata_rec(T alpha, ConstMatrixView<T> a, MatrixView<T> c, index_t base_elements,
             const RecurseOptions& opts, Arena<T>& arena) {
  const index_t m = a.rows, n = a.cols;
  assert(c.rows == n && c.cols == n);
  if (m == 0 || n == 0) return;
  // Algorithm 1 line 2: block fits in cache -> BLAS ?syrk.
  if (ata_base_case(m, n, base_elements, opts.min_dim)) {
    blas::syrk_ln(alpha, a, c, &arena);
    return;
  }
  const index_t m1 = half_up(m), m2 = half_down(m);
  const index_t n1 = half_up(n), n2 = half_down(n);

  const auto A11 = a.block(0, 0, m1, n1);
  const auto A12 = a.block(0, n1, m1, n2);
  const auto A21 = a.block(m1, 0, m2, n1);
  const auto A22 = a.block(m1, n1, m2, n2);
  auto C11 = c.block(0, 0, n1, n1);
  auto C21 = c.block(n1, 0, n2, n1);
  auto C22 = c.block(n1, n1, n2, n2);

  // C11 = A11^T A11 + A21^T A21 (lines 7-8).
  ata_rec(alpha, A11, C11, base_elements, opts, arena);
  ata_rec(alpha, A21, C11, base_elements, opts, arena);
  // C22 = A12^T A12 + A22^T A22 (lines 9-10).
  ata_rec(alpha, A12, C22, base_elements, opts, arena);
  ata_rec(alpha, A22, C22, base_elements, opts, arena);
  // C21 = A12^T A11 + A22^T A21 (lines 11-12). C12 = C21^T is never formed.
  strassen_tn(alpha, A12, A11, C21, arena, opts);
  strassen_tn(alpha, A22, A21, C21, arena, opts);
}

}  // namespace

template <typename T>
void ata(T alpha, ConstMatrixView<T> a, MatrixView<T> c, Arena<T>& arena,
         const RecurseOptions& opts) {
  const index_t base = opts.resolved_base_elements(sizeof(T));
  ata_rec(alpha, a, c, base, opts, arena);
}

template <typename T>
void ata(T alpha, ConstMatrixView<T> a, MatrixView<T> c, const RecurseOptions& opts) {
  const index_t bound = ata_workspace_bound(a.rows, a.cols, opts, sizeof(T));
  Arena<T> arena(static_cast<std::size_t>(bound));
  ata(alpha, a, c, arena, opts);
}

index_t aat_workspace_bound(index_t m, index_t n, const RecurseOptions& opts,
                            std::size_t elem_bytes) {
  return m * n + ata_workspace_bound(n, m, opts, elem_bytes);
}

template <typename T>
void aat(T alpha, ConstMatrixView<T> a, MatrixView<T> c, Arena<T>& arena,
         const RecurseOptions& opts) {
  assert(c.rows == a.rows && c.cols == a.rows);
  // Materialize A^T (n x m) with a cache-blocked transpose into the arena
  // (released on unwind), then AA^T = (A^T)^T (A^T) runs on the fast path
  // with its Strassen scratch bump-allocated past the transpose.
  typename Arena<T>::Scope scope(arena);
  T* buf = arena.allocate(static_cast<std::size_t>(a.rows * a.cols));
  MatrixView<T> at(buf, a.cols, a.rows, a.rows);
  constexpr index_t kTile = 64;
  for (index_t i0 = 0; i0 < a.rows; i0 += kTile) {
    const index_t i1 = std::min(a.rows, i0 + kTile);
    for (index_t j0 = 0; j0 < a.cols; j0 += kTile) {
      const index_t j1 = std::min(a.cols, j0 + kTile);
      for (index_t i = i0; i < i1; ++i) {
        for (index_t j = j0; j < j1; ++j) at(j, i) = a(i, j);
      }
    }
  }
  ata(alpha, ConstMatrixView<T>(at), c, arena, opts);
}

template <typename T>
void aat(T alpha, ConstMatrixView<T> a, MatrixView<T> c, const RecurseOptions& opts) {
  Arena<T> arena(
      static_cast<std::size_t>(aat_workspace_bound(a.rows, a.cols, opts, sizeof(T))));
  aat(alpha, a, c, arena, opts);
}

#define ATALIB_ATA_INST(T)                                                             \
  template void ata<T>(T, ConstMatrixView<T>, MatrixView<T>, Arena<T>&,               \
                       const RecurseOptions&);                                         \
  template void ata<T>(T, ConstMatrixView<T>, MatrixView<T>, const RecurseOptions&);  \
  template void aat<T>(T, ConstMatrixView<T>, MatrixView<T>, Arena<T>&,               \
                       const RecurseOptions&);                                        \
  template void aat<T>(T, ConstMatrixView<T>, MatrixView<T>, const RecurseOptions&)
ATALIB_ATA_INST(float);
ATALIB_ATA_INST(double);
#undef ATALIB_ATA_INST

}  // namespace atalib
