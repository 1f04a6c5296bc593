// Bitwise-equality tests for the ISA-dispatched microkernels
// (src/blas/kernels/): every SIMD tier available on this machine against
// the scalar tile, across ragged shapes straddling each kernel's MR/NR
// edges, both transpose packings, and the packed-SYRK diagonal.
//
// Inputs are small integers, so every product and partial sum is exactly
// representable in float and double: FMA contraction, accumulation order,
// and blocking differences cannot round, and any mismatch is a real
// packing/microkernel/dispatch bug, not noise. Three tests use real-valued
// inputs, where rounding does show: the arithmetic-contract test, which
// drives each SIMD register tile directly, and the syrk-vs-gemm_tn and
// in-place-vs-packed oracles, whose two sides run the same fma chains.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/kernels/registry.hpp"
#include "blas/reference.hpp"
#include "blas/syrk.hpp"
#include "common/arena.hpp"
#include "matrix/compare.hpp"
#include "matrix/generate.hpp"

namespace atalib {
namespace {

namespace kn = blas::kernels;
using kn::Isa;

/// RAII dispatch pin; restores automatic dispatch on scope exit.
class ForcedIsa {
 public:
  explicit ForcedIsa(Isa isa) { kn::set_forced_isa(isa); }
  ~ForcedIsa() { kn::set_forced_isa(std::nullopt); }
};

std::vector<Isa> simd_isas() {
  std::vector<Isa> v;
  for (const kn::KernelEntry* e : kn::available_kernels()) {
    if (e->isa != Isa::kScalar) v.push_back(e->isa);
  }
  return v;
}

/// Shape values straddling the register tile: 1, tile-1, tile, tile+1 for
/// both MR and NR, plus odd primes away from any tile boundary.
std::vector<index_t> edge_dims(index_t mr, index_t nr) {
  std::vector<index_t> dims{1, mr - 1, mr, mr + 1, nr - 1, nr, nr + 1, 13, 61};
  std::sort(dims.begin(), dims.end());
  dims.erase(std::unique(dims.begin(), dims.end()), dims.end());
  dims.erase(dims.begin(), std::upper_bound(dims.begin(), dims.end(), index_t{0}));
  return dims;
}

const std::vector<index_t> kDepths{1, 7, 31, 97};  // contraction depths (odd primes + 1)

template <typename T>
void expect_gemm_matches_scalar(Isa isa) {
  const kn::KernelConfig<T>& cfg = kn::config_for<T>(isa);
  const std::vector<index_t> dims = edge_dims(cfg.uk.mr, cfg.uk.nr);
  std::uint64_t seed = 1;
  for (const index_t rows : dims) {
    for (const index_t cols : dims) {
      for (const index_t depth : kDepths) {
        // Operand layouts per variant; C is rows x cols, contraction depth.
        const auto a_t = random_integer<T>(depth, rows, 3, seed++);  // op = ^T
        const auto a_n = random_integer<T>(rows, depth, 3, seed++);
        const auto b_n = random_integer<T>(depth, cols, 3, seed++);
        const auto b_t = random_integer<T>(cols, depth, 3, seed++);
        const auto run = [&](Isa use, auto fn) {
          ForcedIsa forced(use);
          auto c = Matrix<T>::zeros(rows, cols);
          fn(c);
          return c;
        };
        const auto check = [&](const char* what, auto fn) {
          const auto simd = run(isa, fn);
          const auto scalar = run(Isa::kScalar, fn);
          ASSERT_EQ(max_abs_diff<T>(simd.const_view(), scalar.const_view()), 0.0)
              << what << " rows=" << rows << " cols=" << cols << " depth=" << depth
              << " isa=" << kn::isa_name(isa);
        };
        check("gemm_tn", [&](Matrix<T>& c) {
          blas::gemm_tn(T(2), a_t.const_view(), b_n.const_view(), c.view());
        });
        check("gemm_nn", [&](Matrix<T>& c) {
          blas::gemm_nn(T(2), a_n.const_view(), b_n.const_view(), c.view());
        });
        check("gemm_nt", [&](Matrix<T>& c) {
          blas::gemm_nt(T(2), a_n.const_view(), b_t.const_view(), c.view());
        });
      }
    }
  }
}

template <typename T>
void expect_syrk_matches_scalar(Isa isa) {
  const kn::KernelConfig<T>& cfg = kn::config_for<T>(isa);
  const std::vector<index_t> dims = edge_dims(cfg.uk.mr, cfg.uk.nr);
  const T sentinel = T(-123.25);
  std::uint64_t seed = 1000;
  for (const index_t n : dims) {
    for (const index_t m : kDepths) {
      const auto a = random_integer<T>(m, n, 3, seed++);
      const auto run = [&](Isa use) {
        ForcedIsa forced(use);
        auto c = Matrix<T>::zeros(n, n);
        for (index_t i = 0; i < n; ++i) {
          for (index_t j = i + 1; j < n; ++j) c(i, j) = sentinel;
        }
        blas::syrk_ln(T(2), a.const_view(), c.view());
        return c;
      };
      const auto simd = run(isa);
      const auto scalar = run(Isa::kScalar);
      ASSERT_EQ(max_abs_diff<T>(simd.const_view(), scalar.const_view()), 0.0)
          << "syrk_ln m=" << m << " n=" << n << " isa=" << kn::isa_name(isa);
      for (index_t i = 0; i < n; ++i) {
        for (index_t j = i + 1; j < n; ++j) {
          ASSERT_EQ(simd(i, j), sentinel) << "upper triangle touched at (" << i << "," << j
                                          << ") isa=" << kn::isa_name(isa);
        }
      }
    }
  }
}

/// A register tile's arithmetic contract, checked bitwise: each output lane
/// is acc = fma(a, b, acc) over k in order, then c = fma(alpha, acc, c), and
/// nothing outside the valid mr x nr corner of C is written. Covers kc in
/// {1, 3, 17, KC}, every mix of full and ragged mr/nr, ldc > NR, and every
/// operand layout a leaf hands the tile. A: a pack_a micro-panel (a_step =
/// MR), an MR-row slice at offsets 0 and NR - MR of a B-shaped panel
/// (a_step = NR, as syrk_ln reads A out of its packed B panel), and a
/// slice of wider rows (a_step > NR, an operand read in place). B: a
/// pack_b micro-panel (b_step = NR) and a slice of wider rows (b_step >
/// NR). Packed layouts are zero past the tile's valid rows / columns, as
/// the packers leave them; in-place layouts are not — their padding is
/// the neighbouring operand data, drawn like the rest. `real` draws
/// non-integer inputs and alpha != 1; otherwise small integers and
/// alpha = 2 make every product and sum exact, so the chain is met with or
/// without FMA contraction.
template <typename T>
void expect_tile_matches_fma_chain(Isa isa, bool real) {
  const kn::KernelConfig<T>& cfg = kn::config_for<T>(isa);
  const index_t MR = cfg.uk.mr, NR = cfg.uk.nr, ldc = NR + 5;
  const T alpha = real ? T(0.7) : T(2);
  const auto draw = [&](index_t rows, index_t cols, std::uint64_t seed) {
    return real ? random_uniform<T>(rows, cols, seed) : random_integer<T>(rows, cols, 3, seed);
  };
  // Row k of a panel holds depth k at [offset, offset + tile) of a row
  // `step` elements long.
  struct Layout {
    index_t step, offset;
    bool packed;
  };
  const Layout a_layouts[] = {{MR, 0, true}, {NR, 0, true}, {NR, NR - MR, true},
                              {NR + MR + 3, 2, false}};
  const Layout b_layouts[] = {{NR, 0, true}, {NR + 7, 3, false}};
  std::uint64_t seed = 5000;
  for (const index_t kc : {index_t{1}, index_t{3}, index_t{17}, cfg.blocks.kc}) {
    for (const index_t mr : {index_t{1}, MR - 1, MR}) {
      for (const index_t nr : {index_t{1}, NR - 1, NR}) {
        for (const Layout la : a_layouts) {
          for (const Layout lb : b_layouts) {
            auto ap = draw(kc, la.step, seed++);
            auto bp = draw(kc, lb.step, seed++);
            for (index_t k = 0; k < kc; ++k) {
              if (la.packed) {
                for (index_t r = la.offset + mr; r < la.step; ++r) ap(k, r) = T(0);
              }
              if (lb.packed) {
                for (index_t j = lb.offset + nr; j < lb.step; ++j) bp(k, j) = T(0);
              }
            }
            const auto c0 = draw(MR, ldc, seed++);
            auto expected = c0.clone();
            for (index_t r = 0; r < mr; ++r) {
              for (index_t j = 0; j < nr; ++j) {
                T acc = T(0);
                for (index_t k = 0; k < kc; ++k) {
                  acc = std::fma(ap(k, la.offset + r), bp(k, lb.offset + j), acc);
                }
                expected(r, j) = std::fma(alpha, acc, c0(r, j));
              }
            }
            auto c = c0.clone();
            cfg.uk.fn(kc, alpha, ap.data() + la.offset, la.step, bp.data() + lb.offset, lb.step,
                      c.data(), ldc, mr, nr);
            ASSERT_EQ(std::memcmp(c.data(), expected.data(), sizeof(T) * MR * ldc), 0)
                << "isa=" << kn::isa_name(isa) << " kc=" << kc << " mr=" << mr << " nr=" << nr
                << " a_step=" << la.step << " a_offset=" << la.offset << " b_step=" << lb.step
                << " b_offset=" << lb.offset
                << " max diff=" << max_abs_diff<T>(c.const_view(), expected.const_view());
          }
        }
      }
    }
  }
}

/// syrk_ln against its gemm oracle on real inputs under the current
/// dispatch: with alpha = 1 and C zero on entry, every lower-triangle
/// element of syrk_ln(A) is the same fma chain over the same KC panels as
/// gemm_tn(A, A), so the two agree bitwise whichever way syrk_ln sources
/// its row operand. The strict upper triangle must keep its sentinel.
/// `a` and `c` may be strided views.
template <typename T>
void expect_syrk_equals_gemm_tn_lower(ConstMatrixView<T> a, MatrixView<T> c, const char* what) {
  const index_t n = a.cols;
  const T sentinel = T(-123.25);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) c(i, j) = j > i ? sentinel : T(0);
  }
  auto g = Matrix<T>::zeros(n, n);
  blas::syrk_ln(T(1), a, c);
  blas::gemm_tn(T(1), a, a, g.view());
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      ASSERT_EQ(std::memcmp(&c(i, j), &g(i, j), sizeof(T)), 0)
          << what << " m=" << a.rows << " n=" << n << " at (" << i << "," << j
          << ") syrk=" << c(i, j) << " gemm=" << g(i, j);
    }
    for (index_t j = i + 1; j < n; ++j) {
      ASSERT_EQ(c(i, j), sentinel) << what << " upper triangle touched at (" << i << "," << j
                                   << ") n=" << n;
    }
  }
}

template <typename T>
void expect_syrk_equals_gemm_tn_across_shapes(Isa isa) {
  const kn::KernelConfig<T>& cfg = kn::config_for<T>(isa);
  const index_t MR = cfg.uk.mr, NR = cfg.uk.nr;
  const index_t m = 2 * cfg.blocks.kc + 7;  // three KC panels, the last ragged
  std::uint64_t seed = 7000;
  for (const index_t n : {index_t{1}, MR - 1, NR + 1, 3 * NR + 5, cfg.blocks.mc + NR}) {
    const auto a = random_uniform<T>(m, n, seed++);
    auto c = Matrix<T>::zeros(n, n);
    expect_syrk_equals_gemm_tn_lower<T>(a.const_view(), c.view(), kn::isa_name(isa));
  }
  // Strided A and C: views into larger row-major storage.
  const index_t n = 2 * NR + 3;
  const auto big_a = random_uniform<T>(m + 3, n + 11, seed++);
  auto big_c = Matrix<T>::zeros(n + 4, n + 9);
  expect_syrk_equals_gemm_tn_lower<T>(big_a.const_view().block(2, 5, m, n),
                                      big_c.view().block(3, 7, n, n), kn::isa_name(isa));
}

TEST(KernelRegistry, ScalarIsAlwaysCompiledAndLast) {
  const auto& kernels = kn::compiled_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.back()->isa, Isa::kScalar);
  EXPECT_TRUE(kernels.back()->supported());
}

TEST(KernelRegistry, EveryCompiledEntryIsWellFormed) {
  // Tile limits matter for every entry, not just the active one: the
  // packed-SYRK diagonal temporary is a kMaxMR x kMaxNR stack tile, and
  // the registry refuses configs that would overrun it.
  const auto check_tile = [](const char* name, index_t mr, index_t nr, bool has_fn) {
    EXPECT_GT(mr, 0) << name;
    EXPECT_GT(nr, 0) << name;
    EXPECT_LE(mr, kn::kMaxMR) << name;
    EXPECT_LE(nr, kn::kMaxNR) << name;
    EXPECT_TRUE(has_fn) << name;
  };
  for (const kn::KernelEntry* e : kn::compiled_kernels()) {
    check_tile(kn::isa_name(e->isa), e->f32.mr, e->f32.nr, e->f32.fn != nullptr);
    check_tile(kn::isa_name(e->isa), e->f64.mr, e->f64.nr, e->f64.fn != nullptr);
  }
  const auto& cfg = kn::active_config<double>();
  // Blocking must be tile-aligned so packed panels never overrun.
  EXPECT_EQ(cfg.blocks.mc % cfg.uk.mr, 0);
  EXPECT_EQ(cfg.blocks.nc % cfg.uk.nr, 0);
  EXPECT_GT(cfg.blocks.kc, 0);
}

TEST(KernelRegistry, ForcedScalarPinsDispatch) {
  ForcedIsa forced(Isa::kScalar);
  EXPECT_EQ(kn::active_config<double>().isa, Isa::kScalar);
  EXPECT_EQ(kn::active_config<float>().isa, Isa::kScalar);
  EXPECT_EQ(kn::forced_isa(), Isa::kScalar);
}

TEST(KernelRegistry, ForcingUnavailableIsaThrows) {
  // NEON and AVX2 are never compiled into the same binary, so at least one
  // of them is guaranteed unavailable on any architecture.
  const auto available = kn::available_kernels();
  for (const Isa isa : {Isa::kNeon, Isa::kAvx2}) {
    const bool have = std::any_of(available.begin(), available.end(),
                                  [&](const kn::KernelEntry* e) { return e->isa == isa; });
    if (!have) {
      EXPECT_THROW(kn::set_forced_isa(isa), std::invalid_argument);
      return;
    }
  }
  FAIL() << "NEON and AVX2 both reported available in one binary";
}

TEST(Kernels, GemmDoubleBitwiseMatchesScalarAcrossRaggedShapes) {
  for (const Isa isa : simd_isas()) expect_gemm_matches_scalar<double>(isa);
}

TEST(Kernels, GemmFloatBitwiseMatchesScalarAcrossRaggedShapes) {
  for (const Isa isa : simd_isas()) expect_gemm_matches_scalar<float>(isa);
}

TEST(Kernels, SyrkDoubleBitwiseMatchesScalarAndSkipsUpperTriangle) {
  for (const Isa isa : simd_isas()) expect_syrk_matches_scalar<double>(isa);
}

TEST(Kernels, SyrkFloatBitwiseMatchesScalarAndSkipsUpperTriangle) {
  for (const Isa isa : simd_isas()) expect_syrk_matches_scalar<float>(isa);
}

// The scalar tile is excluded: it is built without FMA (separate multiply
// and add, two roundings), so it does not meet this contract — most of
// these cases differ from the fma chain in the last bit. Its agreement
// with the SIMD tiers is only claimed on exact (integer) inputs.
TEST(Kernels, SimdTilesMatchFmaChainBitwiseOnRealInputs) {
  for (const Isa isa : simd_isas()) {
    expect_tile_matches_fma_chain<double>(isa, true);
    expect_tile_matches_fma_chain<float>(isa, true);
  }
}

// Exact inputs put the scalar tile under the same contract, both A steps
// included, so every tier agrees with every other on them tile by tile.
TEST(Kernels, EveryTileMatchesFmaChainBitwiseOnIntegerInputs) {
  for (const kn::KernelEntry* e : kn::available_kernels()) {
    expect_tile_matches_fma_chain<double>(e->isa, false);
    expect_tile_matches_fma_chain<float>(e->isa, false);
  }
}

// Covers both row-operand sources on every tier this machine runs: the
// packed B panel (NR a multiple of MR: AVX-512, scalar) and pack_a (AVX2,
// NEON), plus pack_a for rows past an NC column panel (f32, small m).
TEST(Kernels, SyrkLowerEqualsGemmTnLowerBitwiseOnRealInputs) {
  for (const kn::KernelEntry* e : kn::available_kernels()) {
    ForcedIsa forced(e->isa);
    expect_syrk_equals_gemm_tn_across_shapes<double>(e->isa);
    expect_syrk_equals_gemm_tn_across_shapes<float>(e->isa);
    const index_t n = kn::config_for<float>(e->isa).blocks.nc + 17;
    const auto a = random_uniform<float>(5, n, 7100);
    auto c = Matrix<float>::zeros(n, n);
    expect_syrk_equals_gemm_tn_lower<float>(a.const_view(), c.view(), kn::isa_name(e->isa));
  }
}

/// Row stride of the packed-path copies below: a k-panel this wide never
/// fits the in-place budget, so leaves pack every micro-panel of it.
constexpr index_t kWideStride = 4096;

/// The values of `src` in the top-left corner of rows kWideStride apart.
template <typename T>
Matrix<T> wide_copy(ConstMatrixView<T> src) {
  auto w = Matrix<T>::zeros(src.rows, kWideStride);
  copy_into(src, w.view().block(0, 0, src.rows, src.cols));
  return w;
}

/// The in-place leaf contract under the current dispatch: syrk_ln and
/// gemm_tn on `a` / `b` (read in place) and on the same values behind
/// kWideStride rows (packed) write memcmp-equal results — lower(C) for
/// syrk_ln, all of C for gemm_tn — into the same nonzero C.
template <typename T>
void expect_in_place_equals_packed(ConstMatrixView<T> a, ConstMatrixView<T> b,
                                   const char* what) {
  const kn::KernelConfig<T>& cfg = kn::active_config<T>();
  const index_t m = a.rows, n = a.cols, k = b.cols;
  const index_t kc = std::min(cfg.blocks.kc, m);
  ASSERT_TRUE(cfg.reads_in_place(kc, a.stride) && cfg.reads_in_place(kc, b.stride))
      << what << ": compact operands must take the in-place path";
  const auto wa = wide_copy(a);
  const auto wb = wide_copy(b);
  ASSERT_FALSE(cfg.reads_in_place(kc, kWideStride)) << what;
  const auto wide_a = wa.const_view().block(0, 0, m, n);
  const auto wide_b = wb.const_view().block(0, 0, m, k);
  const T alpha = T(0.7);

  const auto s0 = random_uniform<T>(n, n, 7300);
  auto s_in_place = s0.clone();
  auto s_packed = s0.clone();
  blas::syrk_ln(alpha, a, s_in_place.view());
  blas::syrk_ln(alpha, wide_a, s_packed.view());
  for (index_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::memcmp(&s_in_place(i, 0), &s_packed(i, 0), sizeof(T) * (i + 1)), 0)
        << what << " syrk_ln m=" << m << " n=" << n << " row " << i;
  }

  const auto g0 = random_uniform<T>(n, k, 7301);
  auto g_in_place = g0.clone();
  auto g_packed = g0.clone();
  blas::gemm_tn(alpha, a, b, g_in_place.view());
  blas::gemm_tn(alpha, wide_a, wide_b, g_packed.view());
  ASSERT_EQ(std::memcmp(g_in_place.data(), g_packed.data(), sizeof(T) * n * k), 0)
      << what << " gemm_tn m=" << m << " n=" << n << " k=" << k;
}

template <typename T>
void expect_in_place_equals_packed_across_shapes(Isa isa) {
  const kn::KernelConfig<T>& cfg = kn::config_for<T>(isa);
  const index_t MR = cfg.uk.mr, NR = cfg.uk.nr;
  const index_t tile_multiple = NR % MR == 0 ? 2 * NR : MR * NR;
  std::uint64_t seed = 7200;
  for (const index_t m : {index_t{37}, 2 * cfg.blocks.kc + 7}) {  // one kc panel; three
    for (const index_t n : {tile_multiple, 3 * NR + 5, index_t{1}}) {
      const auto a = random_uniform<T>(m, n, seed++);
      const auto b = random_uniform<T>(m, n + 3, seed++);
      expect_in_place_equals_packed<T>(a.const_view(), b.const_view(), kn::isa_name(isa));
    }
    // Offset sub-views of wider, still cache-resident storage.
    const index_t n = 2 * NR + 3;
    const auto big_a = random_uniform<T>(m + 3, n + 11, seed++);
    const auto big_b = random_uniform<T>(m + 5, n + 2, seed++);
    expect_in_place_equals_packed<T>(big_a.const_view().block(2, 5, m, n),
                                     big_b.const_view().block(4, 1, m, n - NR),
                                     kn::isa_name(isa));
  }
}

// In-place leaves are bitwise the packed ones on every tier this machine
// runs, scalar included: same micro-panels, same kc panels, same k order —
// only where each micro-panel is read from differs.
TEST(Kernels, InPlaceLeavesEqualPackedLeavesBitwiseOnRealInputs) {
  for (const kn::KernelEntry* e : kn::available_kernels()) {
    ForcedIsa forced(e->isa);
    expect_in_place_equals_packed_across_shapes<double>(e->isa);
    expect_in_place_equals_packed_across_shapes<float>(e->isa);
  }
}

// Path oracle: the serve_small Gram (512 x 64 f64) and a gemm_tn on compact
// Strassen-temporary-sized operands (C 128 x 128, depth 512) read their
// operands in place and draw no pack buffer at all; the same values behind
// kWideStride rows are packed. Where a tier's tile does not divide the
// shape, only its ragged edge panels pack, so it still draws less.
TEST(Kernels, CompactServedLeavesDrawNoPackBuffer) {
  const auto a = random_uniform<double>(512, 64, 7400);
  const auto g = random_uniform<double>(512, 128, 7401);
  const auto h = random_uniform<double>(512, 128, 7402);
  const auto wa = wide_copy(a.const_view());
  const auto wg = wide_copy(g.const_view());
  const auto wh = wide_copy(h.const_view());
  const index_t bound = std::max(blas::syrk_workspace_bound<double>(512, 64),
                                 blas::gemm_workspace_bound<double>(128, 128, 512));
  for (const kn::KernelEntry* e : kn::available_kernels()) {
    ForcedIsa forced(e->isa);
    const kn::KernelConfig<double>& cfg = kn::active_config<double>();
    const auto drawn = [&](auto leaf) {
      Arena<double> arena(static_cast<std::size_t>(bound));
      leaf(&arena);
      EXPECT_EQ(arena.used(), 0u);
      return arena.high_water();
    };
    auto s = Matrix<double>::zeros(64, 64);
    auto c = Matrix<double>::zeros(128, 128);
    const std::size_t syrk_compact =
        drawn([&](Arena<double>* ar) { blas::syrk_ln(1.0, a.const_view(), s.view(), ar); });
    const std::size_t syrk_wide = drawn([&](Arena<double>* ar) {
      blas::syrk_ln(1.0, wa.const_view().block(0, 0, 512, 64), s.view(), ar);
    });
    const std::size_t gemm_compact = drawn([&](Arena<double>* ar) {
      blas::gemm_tn(1.0, g.const_view(), h.const_view(), c.view(), ar);
    });
    const std::size_t gemm_wide = drawn([&](Arena<double>* ar) {
      blas::gemm_tn(1.0, wg.const_view().block(0, 0, 512, 128),
                    wh.const_view().block(0, 0, 512, 128), c.view(), ar);
    });
    EXPECT_GT(syrk_wide, 0u) << kn::isa_name(e->isa);
    EXPECT_GT(gemm_wide, 0u) << kn::isa_name(e->isa);
    const bool syrk_tiles = 64 % cfg.uk.mr == 0 && 64 % cfg.uk.nr == 0;
    const bool gemm_tiles = 128 % cfg.uk.mr == 0 && 128 % cfg.uk.nr == 0;
    if (syrk_tiles) {
      EXPECT_EQ(syrk_compact, 0u) << kn::isa_name(e->isa);
    } else {
      EXPECT_LT(syrk_compact, syrk_wide) << kn::isa_name(e->isa);
    }
    if (gemm_tiles) {
      EXPECT_EQ(gemm_compact, 0u) << kn::isa_name(e->isa);
    } else {
      EXPECT_LT(gemm_compact, gemm_wide) << kn::isa_name(e->isa);
    }
  }
}

TEST(Kernels, ScalarPathMatchesNaiveReferenceExactly) {
  // Anchors the whole equivalence chain to the deliberately naive oracle.
  ForcedIsa forced(Isa::kScalar);
  const auto a = random_integer<double>(37, 29, 3, 7);
  const auto b = random_integer<double>(37, 23, 3, 8);
  auto c = Matrix<double>::zeros(29, 23);
  auto c_ref = Matrix<double>::zeros(29, 23);
  blas::gemm_tn(2.0, a.const_view(), b.const_view(), c.view());
  blas::ref::gemm_tn(2.0, a.const_view(), b.const_view(), c_ref.view());
  EXPECT_EQ(max_abs_diff<double>(c.const_view(), c_ref.const_view()), 0.0);

  auto s = Matrix<double>::zeros(29, 29);
  auto s_ref = Matrix<double>::zeros(29, 29);
  blas::syrk_ln(2.0, a.const_view(), s.view());
  blas::ref::syrk_ln(2.0, a.const_view(), s_ref.view());
  EXPECT_EQ(max_abs_diff_lower<double>(s.const_view(), s_ref.const_view()), 0.0);
}

TEST(Kernels, ArenaRoutedGemmMatchesThreadLocalAndStaysWithinBound) {
  const index_t m = 70, n = 66, k = 65;
  const auto a = random_integer<double>(k, m, 3, 21);  // gemm_tn layout
  const auto b = random_integer<double>(k, n, 3, 22);
  auto c_tls = Matrix<double>::zeros(m, n);
  auto c_arena = Matrix<double>::zeros(m, n);
  blas::gemm_tn(1.0, a.const_view(), b.const_view(), c_tls.view());

  const index_t bound = blas::gemm_workspace_bound<double>(m, n, k);
  ASSERT_GT(bound, 0);
  Arena<double> arena(static_cast<std::size_t>(bound));
  blas::gemm_tn(1.0, a.const_view(), b.const_view(), c_arena.view(), &arena);
  EXPECT_EQ(max_abs_diff<double>(c_arena.const_view(), c_tls.const_view()), 0.0);
  // Checkpoint-scoped: net-untouched on return, never past the bound.
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_LE(arena.high_water(), static_cast<std::size_t>(bound));
}

TEST(Kernels, ArenaRoutedSyrkMatchesThreadLocalAndStaysWithinBound) {
  const index_t m = 81, n = 67;
  const auto a = random_integer<double>(m, n, 3, 23);
  const index_t bound = blas::syrk_workspace_bound<double>(m, n);
  ASSERT_GT(bound, 0);
  for (const kn::KernelEntry* e : kn::available_kernels()) {
    ForcedIsa forced(e->isa);
    auto c_tls = Matrix<double>::zeros(n, n);
    auto c_arena = Matrix<double>::zeros(n, n);
    blas::syrk_ln(1.0, a.const_view(), c_tls.view());
    Arena<double> arena(static_cast<std::size_t>(bound));
    blas::syrk_ln(1.0, a.const_view(), c_arena.view(), &arena);
    EXPECT_EQ(max_abs_diff_lower<double>(c_arena.const_view(), c_tls.const_view()), 0.0)
        << kn::isa_name(e->isa);
    EXPECT_EQ(arena.used(), 0u) << kn::isa_name(e->isa);
    EXPECT_LE(arena.high_water(), static_cast<std::size_t>(bound)) << kn::isa_name(e->isa);
  }
}

TEST(Kernels, WorkspaceBoundCoversEveryDispatchPath) {
  // The bound must stay valid when a cached plan built under automatic
  // dispatch executes under a forced path (or vice versa): it is maximized
  // over every available ISA, so each per-ISA need fits under it.
  const index_t m = 130, n = 70, k = 90;
  const index_t bound = blas::gemm_workspace_bound<double>(m, n, k);
  for (const kn::KernelEntry* e : kn::available_kernels()) {
    const auto& cfg = kn::config_for<double>(e->isa);
    const kn::PackExtents ext = kn::pack_extents(cfg, m, n, k);
    EXPECT_LE(ext.a + ext.b, bound) << kn::isa_name(e->isa);
  }
}

}  // namespace
}  // namespace atalib
