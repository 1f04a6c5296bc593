#pragma once
// Shared leaf-compute substrate for the parallel execution layers (§4.1).
//
// AtA-S tasks and AtA-D rank leaves describe the same two multiplication
// shapes (sched::LeafOp): a diagonal A^T A block and an off-diagonal A^T B
// block. Both layers execute them through this one kernel entry so a leaf
// computed by a pool worker and the same leaf computed by a simulated rank
// are the *same code path* — same engine selection, same workspace
// discipline (all scratch comes from a runtime::Workspace arena, no
// per-call mallocs once warm), and bitwise-identical results.

#include "common/arena.hpp"
#include "sched/task.hpp"
#include "strassen/options.hpp"

namespace atalib {

/// Leaf multiplication engine. kStrassen is the paper's AtA / FastStrassen
/// recursion (AtA-S/AtA-D as published, and the DistOptions default);
/// kBlas is the blocked cubic kernel (the "MKL-style" Fig. 5/6 baseline),
/// which measured faster on every served shape and is the SharedOptions
/// default (DESIGN.md §6).
enum class LeafEngine { kStrassen, kBlas };

/// Execute one leaf multiplication on pre-cut views: for kSyrk,
/// lower(c) += alpha * a^T a (b is ignored); for kGemm, c += alpha * a^T b.
/// Scratch comes from `arena` (untouched net of checkpoints) for both
/// engines — kStrassen draws its recursion temporaries, kBlas its packed
/// gemm/syrk panels. Views are already localized — callers cut them from
/// the global matrices (AtA-S) or from per-rank received blocks (AtA-D).
template <typename T>
void run_leaf_kernel(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, MatrixView<T> c,
                     sched::LeafOp::Kind kind, Arena<T>& arena, LeafEngine engine,
                     const RecurseOptions& opts);

/// Arena elements run_leaf_kernel may allocate for `op` (for kBlas: the
/// packed-panel bound, maximized over every dispatchable microkernel).
template <typename T>
index_t leaf_op_workspace(const sched::LeafOp& op, LeafEngine engine,
                          const RecurseOptions& opts);

#define ATALIB_LEAF_EXEC_EXTERN(T)                                                       \
  extern template void run_leaf_kernel<T>(T, ConstMatrixView<T>, ConstMatrixView<T>,     \
                                          MatrixView<T>, sched::LeafOp::Kind, Arena<T>&, \
                                          LeafEngine, const RecurseOptions&);            \
  extern template index_t leaf_op_workspace<T>(const sched::LeafOp&, LeafEngine,         \
                                               const RecurseOptions&)
ATALIB_LEAF_EXEC_EXTERN(float);
ATALIB_LEAF_EXEC_EXTERN(double);
#undef ATALIB_LEAF_EXEC_EXTERN

}  // namespace atalib
