#include "blas/syrk.hpp"

#include <algorithm>
#include <cassert>

#include "blas/gemm.hpp"
#include "blas/kernels/pack.hpp"
#include "blas/kernels/registry.hpp"

namespace atalib::blas {

template <typename T>
void syrk_ln(T alpha, ConstMatrixView<T> a, MatrixView<T> c, Arena<T>* arena) {
  const index_t m = a.rows, n = a.cols;
  assert(c.rows == n && c.cols == n);
  if (n == 0 || m == 0 || alpha == T(0)) return;

  const kernels::KernelConfig<T>& cfg = kernels::active_config<T>();
  const index_t MR = cfg.uk.mr, NR = cfg.uk.nr;
  const index_t MC = cfg.blocks.mc, KC = cfg.blocks.kc, NC = cfg.blocks.nc;
  const kernels::PackExtents ext = kernels::pack_extents(cfg, n, n, m);
  kernels::PackStorage<T> bufs(arena, ext.a, ext.b);
  using Panel = kernels::MicroPanel<T>;

  // C = A^T A: the row operand is op(A) = A^T (n x m), the column operand is
  // A itself — both walk A's rows with unit stride, so both packers hit
  // their contiguous fast path and, when A's k-panels are cache-resident,
  // both are read in place (kernels::block_panels). Same panels, same k
  // order: the result is bitwise the packed one.
  const kernels::OpView<T> arow{a, true};
  const kernels::OpView<T> acol{a, false};
  const bool in_place = cfg.reads_in_place(std::min(KC, m), a.stride);
  // Rows inside the column panel are the panel's own columns, already in
  // the column operand: with NR a multiple of MR every MR-row tile starting
  // MR-aligned from jc lies inside one NR-column micro-panel, so the
  // microkernel reads its A operand there (packed: step NR; in place: A's
  // row stride) and pack_a only runs for rows past the panel. Otherwise
  // (AVX2, NEON) every row takes the row-operand path.
  const bool share_panel = NR % MR == 0;

  for (index_t jc = 0; jc < n; jc += NC) {
    const index_t nc = std::min(NC, n - jc);
    const index_t shared_end = share_panel ? jc + nc : jc;
    for (index_t pc = 0; pc < m; pc += KC) {
      const index_t kc = std::min(KC, m - pc);
      // b_panels(q): the column micro-panel starting q columns into the panel.
      const auto b_panels = kernels::block_panels(acol, /*rows_of_a=*/false, jc, pc, nc, kc, NR,
                                                  in_place, [&] { return bufs.b(); });
      // Row panel [ic, ic + mc) against the column panel; a_panel(row0) is
      // the A micro-panel of the tile starting at output row row0.
      const auto sweep = [&](index_t ic, index_t mc, auto a_panel) {
        for (index_t q = 0; q < nc; q += NR) {
          const index_t nr = std::min(NR, nc - q);
          const index_t col0 = jc + q;
          const Panel bp = b_panels(q);
          for (index_t p = 0; p < mc; p += MR) {
            const index_t mr = std::min(MR, mc - p);
            const index_t row0 = ic + p;
            if (row0 + mr - 1 < col0) continue;  // microtile strictly above the diagonal
            const Panel ap = a_panel(row0);
            if (row0 >= col0 + nr - 1) {
              // Every (i, j) of the tile has j <= i: store straight into C.
              cfg.uk.fn(kc, alpha, ap.data, ap.step, bp.data, bp.step,
                        c.data + row0 * c.stride + col0, c.stride, mr, nr);
            } else {
              // Diagonal-crossing tile: compute the full tile into a stack
              // temporary, fold back only the at-or-below-diagonal part.
              T tmp[kernels::kMaxMR * kernels::kMaxNR];
              for (index_t i = 0; i < mr * nr; ++i) tmp[i] = T(0);
              cfg.uk.fn(kc, alpha, ap.data, ap.step, bp.data, bp.step, tmp, nr, mr, nr);
              for (index_t r = 0; r < mr; ++r) {
                const index_t jmax = std::min(nr, row0 + r - col0 + 1);
                T* dst = c.data + (row0 + r) * c.stride + col0;
                const T* src = tmp + r * nr;
                for (index_t j = 0; j < jmax; ++j) dst[j] += src[j];
              }
            }
          }
        }
      };
      // Output rows above jc are strictly upper-triangle for this column
      // panel, so row panels start at the diagonal.
      for (index_t ic = jc; ic < shared_end; ic += MC) {
        sweep(ic, std::min(MC, shared_end - ic), [&](index_t row0) {
          const index_t off = row0 - jc;
          const Panel bp = b_panels(off / NR * NR);
          return Panel{bp.data + off % NR, bp.step};
        });
      }
      for (index_t ic = shared_end; ic < n; ic += MC) {
        const index_t mc = std::min(MC, n - ic);
        const auto a_panels = kernels::block_panels(arow, /*rows_of_a=*/true, ic, pc, mc, kc, MR,
                                                    in_place, [&] { return bufs.a(); });
        sweep(ic, mc, [&](index_t row0) { return a_panels(row0 - ic); });
      }
    }
  }
}

template <typename T>
index_t syrk_workspace_bound(index_t m, index_t n) {
  return gemm_workspace_bound<T>(n, n, m);
}

template void syrk_ln<float>(float, ConstMatrixView<float>, MatrixView<float>, Arena<float>*);
template void syrk_ln<double>(double, ConstMatrixView<double>, MatrixView<double>,
                              Arena<double>*);
template index_t syrk_workspace_bound<float>(index_t, index_t);
template index_t syrk_workspace_bound<double>(index_t, index_t);

}  // namespace atalib::blas
