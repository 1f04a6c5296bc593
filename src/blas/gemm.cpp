#include "blas/gemm.hpp"

#include <algorithm>
#include <cassert>

#include "blas/kernels/pack.hpp"
#include "blas/kernels/registry.hpp"

namespace atalib::blas {

template <typename T>
void gemm(Op opa, Op opb, T alpha, ConstMatrixView<T> av, ConstMatrixView<T> bv, MatrixView<T> c,
          Arena<T>* arena) {
  const kernels::OpView<T> a{av, opa == Op::kTrans};
  const kernels::OpView<T> b{bv, opb == Op::kTrans};
  const index_t m = c.rows, n = c.cols, k = a.cols();
  assert(a.rows() == m && b.rows() == k && b.cols() == n);
  if (m == 0 || n == 0 || k == 0 || alpha == T(0)) return;

  const kernels::KernelConfig<T>& cfg = kernels::active_config<T>();
  const index_t MR = cfg.uk.mr, NR = cfg.uk.nr;
  const index_t MC = cfg.blocks.mc, KC = cfg.blocks.kc, NC = cfg.blocks.nc;
  const kernels::PackExtents ext = kernels::pack_extents(cfg, m, n, k);
  kernels::PackStorage<T> bufs(arena, ext.a, ext.b);
  using Panel = kernels::MicroPanel<T>;

  // T-N (the AtA leaf): op(A) = A^T and op(B) = B both walk their operand's
  // rows with unit stride, so a cache-resident operand is read in place
  // (kernels::block_panels). Same panels, same k order: the result is
  // bitwise the packed one.
  const bool tn = a.trans && !b.trans;
  const index_t kc_max = std::min(KC, k);
  const bool a_in_place = tn && cfg.reads_in_place(kc_max, av.stride);
  const bool b_in_place = tn && cfg.reads_in_place(kc_max, bv.stride);

  for (index_t jc = 0; jc < n; jc += NC) {
    const index_t nc = std::min(NC, n - jc);
    for (index_t pc = 0; pc < k; pc += KC) {
      const index_t kc = std::min(KC, k - pc);
      const auto b_panels = kernels::block_panels(b, /*rows_of_a=*/false, jc, pc, nc, kc, NR,
                                                  b_in_place, [&] { return bufs.b(); });
      for (index_t ic = 0; ic < m; ic += MC) {
        const index_t mc = std::min(MC, m - ic);
        const auto a_panels = kernels::block_panels(a, /*rows_of_a=*/true, ic, pc, mc, kc, MR,
                                                    a_in_place, [&] { return bufs.a(); });
        for (index_t q = 0; q < nc; q += NR) {
          const index_t nr = std::min(NR, nc - q);
          const Panel bp = b_panels(q);
          for (index_t p = 0; p < mc; p += MR) {
            const index_t mr = std::min(MR, mc - p);
            const Panel ap = a_panels(p);
            cfg.uk.fn(kc, alpha, ap.data, ap.step, bp.data, bp.step,
                      c.data + (ic + p) * c.stride + jc + q, c.stride, mr, nr);
          }
        }
      }
    }
  }
}

template <typename T>
index_t gemm_workspace_bound(index_t m, index_t n, index_t k) {
  return kernels::pack_bound<T>(m, n, k);
}

template void gemm<float>(Op, Op, float, ConstMatrixView<float>, ConstMatrixView<float>,
                          MatrixView<float>, Arena<float>*);
template void gemm<double>(Op, Op, double, ConstMatrixView<double>, ConstMatrixView<double>,
                           MatrixView<double>, Arena<double>*);
template index_t gemm_workspace_bound<float>(index_t, index_t, index_t);
template index_t gemm_workspace_bound<double>(index_t, index_t, index_t);

}  // namespace atalib::blas
