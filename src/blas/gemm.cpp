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
  const kernels::PackStorage<T> bufs(arena, ext.a, ext.b);

  for (index_t jc = 0; jc < n; jc += NC) {
    const index_t nc = std::min(NC, n - jc);
    for (index_t pc = 0; pc < k; pc += KC) {
      const index_t kc = std::min(KC, k - pc);
      kernels::pack_b(b, pc, jc, kc, nc, NR, bufs.b());
      for (index_t ic = 0; ic < m; ic += MC) {
        const index_t mc = std::min(MC, m - ic);
        kernels::pack_a(a, ic, pc, mc, kc, MR, bufs.a());
        for (index_t q = 0; q < nc; q += NR) {
          const index_t nr = std::min(NR, nc - q);
          const T* bp = bufs.b() + (q / NR) * NR * kc;
          for (index_t p = 0; p < mc; p += MR) {
            const index_t mr = std::min(MR, mc - p);
            const T* ap = bufs.a() + (p / MR) * MR * kc;
            cfg.uk.fn(kc, alpha, ap, MR, bp, c.data + (ic + p) * c.stride + jc + q, c.stride,
                      mr, nr);
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
