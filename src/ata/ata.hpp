#pragma once
// AtA (Algorithm 1): lower(C) += alpha * A^T A, cache-oblivious,
// Strassen-accelerated — the paper's primary contribution.
//
// Recursion (eq. (2)): split A into a 2x2 block grid;
//   C11 needs AtA(A11) + AtA(A21)            (two recursive AtA calls)
//   C22 needs AtA(A12) + AtA(A22)            (two recursive AtA calls)
//   C21 = A12^T A11 + A22^T A21              (two FastStrassen calls)
//   C12 = C21^T                              (never computed)
// Base case: blas::syrk_ln once the block fits in cache.
// Cost: (2/3) T_Strassen(n) ~ (14/3) n^log2(7) (eq. (3));
// workspace: the Strassen arena, 3/2 n^2 for square inputs (§3.3).

#include "common/arena.hpp"
#include "strassen/options.hpp"

namespace atalib {

/// lower(C) += alpha * A^T A with an externally supplied Strassen workspace
/// arena (>= ata_workspace_bound(m, n, ...) free elements). A is m x n,
/// C is n x n; the strict upper triangle of C is never touched.
template <typename T>
void ata(T alpha, ConstMatrixView<T> a, MatrixView<T> c, Arena<T>& arena,
         const RecurseOptions& opts = {});

/// Convenience entry: sizes and allocates the workspace, then runs ata().
template <typename T>
void ata(T alpha, ConstMatrixView<T> a, MatrixView<T> c, const RecurseOptions& opts = {});

/// lower(C) += alpha * A A^T (the paper's remark in §3: "our solution also
/// works for the product AA^T"). A is m x n, C is m x m. Implemented by
/// materializing A^T once (O(mn) time and space, asymptotically free next
/// to the O(n^log2 7) multiply) and running the cache-friendly A^T A path
/// on it — the paper's own §3 observation that row-major AA^T is the
/// *easier* orientation is what makes this transposition affordable. The
/// transpose buffer and the Strassen scratch both come from `arena`
/// (>= aat_workspace_bound(m, n, ...) free elements), so repeated calls
/// through a reused arena — e.g. a runtime::Workspace slot — are
/// malloc-free once warm.
template <typename T>
void aat(T alpha, ConstMatrixView<T> a, MatrixView<T> c, Arena<T>& arena,
         const RecurseOptions& opts = {});

/// Convenience entry: sizes and allocates the workspace, then runs aat().
template <typename T>
void aat(T alpha, ConstMatrixView<T> a, MatrixView<T> c, const RecurseOptions& opts = {});

/// Arena elements aat() needs on an m x n input: the materialized A^T
/// (m*n) plus the A^T A recursion bound on the n x m transpose.
index_t aat_workspace_bound(index_t m, index_t n, const RecurseOptions& opts,
                            std::size_t elem_bytes);

#define ATALIB_ATA_EXTERN(T)                                                               \
  extern template void ata<T>(T, ConstMatrixView<T>, MatrixView<T>, Arena<T>&,            \
                              const RecurseOptions&);                                      \
  extern template void ata<T>(T, ConstMatrixView<T>, MatrixView<T>, const RecurseOptions&); \
  extern template void aat<T>(T, ConstMatrixView<T>, MatrixView<T>, Arena<T>&,            \
                              const RecurseOptions&);                                      \
  extern template void aat<T>(T, ConstMatrixView<T>, MatrixView<T>, const RecurseOptions&)
ATALIB_ATA_EXTERN(float);
ATALIB_ATA_EXTERN(double);
#undef ATALIB_ATA_EXTERN

}  // namespace atalib
