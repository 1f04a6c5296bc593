#pragma once
// Symmetric rank-K update: lower(C) += alpha * A^T A.
//
// Self-built substitute for MKL ?syrk (the paper's baseline in Figs. 3 and 5
// and AtA's base-case kernel). Only the lower triangle of C is touched,
// matching the BLAS 'L' uplo convention and AtA's output contract. The
// implementation is a true packed-SYRK (see DESIGN.md §2): gemm's blocking
// with each k-panel packed once (row tiles inside the column panel read
// their A operand out of the packed B panel), above-diagonal microtiles
// skipped outright, diagonal-crossing microtiles folded through a
// register-tile stack temporary — no separate diagonal-block scratch buffer.
// When A's k-panels are cache-resident, full micro-panels are read straight
// out of A instead and only ragged edges are packed (in-place leaves).

#include "common/arena.hpp"
#include "matrix/view.hpp"

namespace atalib::blas {

/// lower(C) += alpha * A^T A. A is m x n, C is n x n; the strict upper
/// triangle of C is never read or written. Packed panels come from `arena`
/// when given (checkpoint-scoped; malloc-free once the arena is warm) and
/// from reusable thread-local buffers otherwise; a call that packs nothing
/// draws nothing.
template <typename T>
void syrk_ln(T alpha, ConstMatrixView<T> a, MatrixView<T> c, Arena<T>* arena = nullptr);

/// Arena elements one syrk_ln call on an m x n input may draw for its
/// packed panels (same maximization rule as gemm_workspace_bound).
template <typename T>
index_t syrk_workspace_bound(index_t m, index_t n);

extern template void syrk_ln<float>(float, ConstMatrixView<float>, MatrixView<float>,
                                    Arena<float>*);
extern template void syrk_ln<double>(double, ConstMatrixView<double>, MatrixView<double>,
                                     Arena<double>*);
extern template index_t syrk_workspace_bound<float>(index_t, index_t);
extern template index_t syrk_workspace_bound<double>(index_t, index_t);

}  // namespace atalib::blas
