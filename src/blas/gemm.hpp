#pragma once
// Cache-blocked general matrix multiply on strided views.
//
// This is the self-built substitute for MKL ?gemm (see DESIGN.md §2): a
// BLIS-style three-level blocking (NC / KC / MC) with packed panels and an
// MR x NR register microkernel selected at runtime from the ISA-dispatched
// registry (src/blas/kernels/) — AVX-512 / AVX2+FMA / NEON tiles with the
// portable scalar tile as fallback. It is the *leaf* kernel under AtA /
// Strassen and the cubic *baseline* they are compared against, so both
// sides of every experiment run on the same kernel.

#include "common/arena.hpp"
#include "matrix/view.hpp"

namespace atalib::blas {

/// Operand transposition selector (C += alpha * op(A) * op(B)).
enum class Op { kNone, kTrans };

/// C += alpha * op(A) * op(B). Shapes: op(A) is MxK, op(B) is KxN,
/// C is MxN. Accumulating semantics (beta == 1); scale C beforehand for
/// other betas, as the paper does. Packed panels come from `arena` when
/// given (checkpoint-scoped: the arena is net-untouched on return, and the
/// call is malloc-free once the arena is warm) and from reusable
/// thread-local buffers otherwise.
template <typename T>
void gemm(Op opa, Op opb, T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, MatrixView<T> c,
          Arena<T>* arena = nullptr);

/// Arena elements one gemm call may draw for its packed panels, for an
/// m x n output with contraction depth k. Maximized over every kernel the
/// registry could dispatch to, so a bound cached in a plan stays valid
/// across forced-ISA toggles (tests) and is what `leaf_op_workspace`
/// reports for kBlas leaves.
template <typename T>
index_t gemm_workspace_bound(index_t m, index_t n, index_t k);

/// C += alpha * A^T * B (the paper's ?gemm use: A is m x n, B is m x k,
/// C is n x k). The one orientation whose cache-resident operands are read
/// in place rather than packed (DESIGN.md §2).
template <typename T>
void gemm_tn(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, MatrixView<T> c,
             Arena<T>* arena = nullptr) {
  gemm(Op::kTrans, Op::kNone, alpha, a, b, c, arena);
}

/// C += alpha * A * B.
template <typename T>
void gemm_nn(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, MatrixView<T> c,
             Arena<T>* arena = nullptr) {
  gemm(Op::kNone, Op::kNone, alpha, a, b, c, arena);
}

/// C += alpha * A * B^T.
template <typename T>
void gemm_nt(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, MatrixView<T> c,
             Arena<T>* arena = nullptr) {
  gemm(Op::kNone, Op::kTrans, alpha, a, b, c, arena);
}

extern template void gemm<float>(Op, Op, float, ConstMatrixView<float>, ConstMatrixView<float>,
                                 MatrixView<float>, Arena<float>*);
extern template void gemm<double>(Op, Op, double, ConstMatrixView<double>,
                                  ConstMatrixView<double>, MatrixView<double>, Arena<double>*);
extern template index_t gemm_workspace_bound<float>(index_t, index_t, index_t);
extern template index_t gemm_workspace_bound<double>(index_t, index_t, index_t);

}  // namespace atalib::blas
