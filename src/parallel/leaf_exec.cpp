#include "parallel/leaf_exec.hpp"

#include "ata/ata.hpp"
#include "blas/gemm.hpp"
#include "blas/syrk.hpp"
#include "strassen/strassen.hpp"
#include "strassen/workspace.hpp"

namespace atalib {

template <typename T>
void run_leaf_kernel(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, MatrixView<T> c,
                     sched::LeafOp::Kind kind, Arena<T>& arena, LeafEngine engine,
                     const RecurseOptions& opts) {
  if (kind == sched::LeafOp::Kind::kSyrk) {
    if (engine == LeafEngine::kStrassen) {
      ata(alpha, a, c, arena, opts);
    } else {
      blas::syrk_ln(alpha, a, c, &arena);
    }
  } else {
    if (engine == LeafEngine::kStrassen) {
      strassen_tn(alpha, a, b, c, arena, opts);
    } else {
      blas::gemm_tn(alpha, a, b, c, &arena);
    }
  }
}

template <typename T>
index_t leaf_op_workspace(const sched::LeafOp& op, LeafEngine engine,
                          const RecurseOptions& opts) {
  if (engine != LeafEngine::kStrassen) {
    // kBlas leaves draw their packed panels from the caller arena, keeping
    // the warm path malloc-free on pool workers.
    if (op.kind == sched::LeafOp::Kind::kSyrk) {
      return blas::syrk_workspace_bound<T>(op.a.rows, op.a.cols);
    }
    return blas::gemm_workspace_bound<T>(op.a.cols, op.b.cols, op.a.rows);
  }
  // kStrassen leaves: the bound covers the recursion temporaries AND the
  // engine's internal base-case pack buffers (strassen/workspace.cpp), so a
  // warm Strassen leaf on a pool worker is malloc-free end to end.
  if (op.kind == sched::LeafOp::Kind::kSyrk) {
    return ata_workspace_bound(op.a.rows, op.a.cols, opts, sizeof(T));
  }
  return strassen_workspace_bound(op.a.rows, op.a.cols, op.b.cols, opts, sizeof(T));
}

#define ATALIB_LEAF_EXEC_INST(T)                                                  \
  template void run_leaf_kernel<T>(T, ConstMatrixView<T>, ConstMatrixView<T>,     \
                                   MatrixView<T>, sched::LeafOp::Kind, Arena<T>&, \
                                   LeafEngine, const RecurseOptions&);            \
  template index_t leaf_op_workspace<T>(const sched::LeafOp&, LeafEngine,         \
                                        const RecurseOptions&)
ATALIB_LEAF_EXEC_INST(float);
ATALIB_LEAF_EXEC_INST(double);
#undef ATALIB_LEAF_EXEC_INST

}  // namespace atalib
