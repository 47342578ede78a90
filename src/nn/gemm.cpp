#include "nn/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "runtime/thread_pool.hpp"
#include "runtime/workspace.hpp"
#include "util/half.hpp"

namespace groupfel::nn::detail {
namespace {

// Register tile. MR*NR accumulators must fit the architectural register
// file with headroom for the A broadcast and B loads: 6×16 is 6 zmm under
// AVX-512, 12 ymm under AVX2 — comfortable on both.
constexpr std::size_t MR = 6;
constexpr std::size_t NR = 16;

// Cache blocking: the packed A panel (Mc×Kc ≈ 96 KiB) targets L2, each
// Kc×NR sliver of packed B (16 KiB) targets L1, and Nc bounds the packed B
// block (Kc×Nc ≈ 2 MiB) so it stays inside LLC.
constexpr std::size_t MC = 96;   // multiple of MR
constexpr std::size_t KC = 256;
constexpr std::size_t NC = 2048;  // multiple of NR

inline std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

// Autovectorizers are unreliable on the scalar form of this kernel: GCC 12
// at -O3 -march=native tiles it with 128-bit vectors (observed via objdump),
// leaving 4× throughput on the table on AVX-512 hardware. GNU vector
// extensions pin the layout instead — one NR-lane vector per C row, one
// broadcast-FMA per (row, p) — and legalize on any target the compiler
// supports, so no runtime dispatch is needed.
#if defined(__GNUC__) || defined(__clang__)
#define GROUPFEL_GEMM_VECTOR_EXT 1
typedef float v16f __attribute__((vector_size(NR * sizeof(float))));
// Unaligned, aliasing-safe view used for all loads/stores through float*.
typedef float v16f_u __attribute__((vector_size(NR * sizeof(float)),
                                    aligned(alignof(float)), may_alias));
static_assert(MR == 6, "kernels below spell out one accumulator per row");
#endif

#ifdef GROUPFEL_GEMM_VECTOR_EXT

/// Full MR×NR tile: C += packed-A-sliver · packed-B-sliver over kc.
void kernel_full(std::size_t kc, const float* __restrict a,
                 const float* __restrict b, float* __restrict c,
                 std::size_t ldc) {
  v16f acc0{}, acc1{}, acc2{}, acc3{}, acc4{}, acc5{};
  for (std::size_t p = 0; p < kc; ++p) {
    const v16f bv = *reinterpret_cast<const v16f_u*>(b + p * NR);
    const float* __restrict ap = a + p * MR;
    acc0 += ap[0] * bv;
    acc1 += ap[1] * bv;
    acc2 += ap[2] * bv;
    acc3 += ap[3] * bv;
    acc4 += ap[4] * bv;
    acc5 += ap[5] * bv;
  }
  const v16f acc[MR] = {acc0, acc1, acc2, acc3, acc4, acc5};
  for (std::size_t i = 0; i < MR; ++i) {
    v16f_u* crow = reinterpret_cast<v16f_u*>(c + i * ldc);
    *crow = static_cast<v16f>(*crow) + acc[i];
  }
}

/// Edge tile: same full-width compute (packs are zero-padded), then a
/// partial store through a stack staging tile.
void kernel_edge(std::size_t kc, const float* __restrict a,
                 const float* __restrict b, std::size_t mr, std::size_t nr,
                 float* __restrict c, std::size_t ldc) {
  v16f acc0{}, acc1{}, acc2{}, acc3{}, acc4{}, acc5{};
  for (std::size_t p = 0; p < kc; ++p) {
    const v16f bv = *reinterpret_cast<const v16f_u*>(b + p * NR);
    const float* __restrict ap = a + p * MR;
    acc0 += ap[0] * bv;
    acc1 += ap[1] * bv;
    acc2 += ap[2] * bv;
    acc3 += ap[3] * bv;
    acc4 += ap[4] * bv;
    acc5 += ap[5] * bv;
  }
  const v16f acc[MR] = {acc0, acc1, acc2, acc3, acc4, acc5};
  for (std::size_t i = 0; i < mr; ++i) {
    const float* arow = reinterpret_cast<const float*>(&acc[i]);
    for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] += arow[j];
  }
}

/// An MT×(NS·NR) tile (MT ≤ MR rows, NS adjacent packed B slivers) that
/// broadcasts A straight from its rows (a.cs == 1, row stride lda) instead
/// of from a packed sliver. Each C element takes the same
/// broadcast-multiply-add per p, in the same order, and the same final add
/// into C as in kernel_full / kernel_edge, so the result is bit-identical.
/// What changes is the work around it: no pack_a copy (a strided gather
/// when A is dY), no zero rows computed for a short edge tile, and with
/// NS = 2 each A broadcast feeds two FMAs, so a short tile has enough
/// independent chains to cover the FMA latency. `nr_last` is the width of
/// the last sliver.
template <std::size_t MT, std::size_t NS>
void kernel_rows(std::size_t kc, const float* __restrict a, std::size_t lda,
                 const float* __restrict b, std::size_t nr_last,
                 float* __restrict c, std::size_t ldc) {
  v16f acc[MT][NS] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    v16f bv[NS];
    for (std::size_t q = 0; q < NS; ++q)
      bv[q] = *reinterpret_cast<const v16f_u*>(b + q * NR * kc + p * NR);
    for (std::size_t i = 0; i < MT; ++i) {
      const float av = a[i * lda + p];
      for (std::size_t q = 0; q < NS; ++q) acc[i][q] += av * bv[q];
    }
  }
  for (std::size_t q = 0; q < NS; ++q) {
    float* cq = c + q * NR;
    if (q + 1 < NS || nr_last == NR) {
      for (std::size_t i = 0; i < MT; ++i) {
        v16f_u* crow = reinterpret_cast<v16f_u*>(cq + i * ldc);
        *crow = static_cast<v16f>(*crow) + acc[i][q];
      }
    } else {
      for (std::size_t i = 0; i < MT; ++i) {
        const float* arow = reinterpret_cast<const float*>(&acc[i][q]);
        for (std::size_t j = 0; j < nr_last; ++j) cq[i * ldc + j] += arow[j];
      }
    }
  }
}

template <std::size_t NS>
void kernel_rows_mr(std::size_t mr, std::size_t kc, const float* a,
                    std::size_t lda, const float* b, std::size_t nr_last,
                    float* c, std::size_t ldc) {
  switch (mr) {
    case 6: kernel_rows<6, NS>(kc, a, lda, b, nr_last, c, ldc); break;
    case 5: kernel_rows<5, NS>(kc, a, lda, b, nr_last, c, ldc); break;
    case 4: kernel_rows<4, NS>(kc, a, lda, b, nr_last, c, ldc); break;
    case 3: kernel_rows<3, NS>(kc, a, lda, b, nr_last, c, ldc); break;
    case 2: kernel_rows<2, NS>(kc, a, lda, b, nr_last, c, ldc); break;
    default: kernel_rows<1, NS>(kc, a, lda, b, nr_last, c, ldc); break;
  }
}

// The unpacked-A path is for AVX-512 only. A tile spanning two B slivers
// holds 2·MR accumulators: 12 of its 32 vector registers, but 24 ymm pairs
// under AVX2, where they spill and the tile runs ~8× slower than two
// single-sliver tiles (measured with -march=haswell on an AVX-512 host).
// With one sliver per tile, broadcasting A from MR strided rows measured
// ~30% slower than packing it on baseline SSE2 for 256³. Other ISAs keep
// the packed path.
#if defined(__AVX512F__)
constexpr bool kUnpackedA = true;
#else
constexpr bool kUnpackedA = false;
#endif

/// Row panel for a row-contiguous A: kernel_rows reads A in place, two B
/// slivers at a time while two remain.
void run_row_panel_direct(MatView a, std::size_t ic, std::size_t mc,
                          std::size_t pc, std::size_t kc, const float* b_pack,
                          std::size_t jc, std::size_t nc, float* c,
                          std::size_t ldc) {
  for (std::size_t jr = 0; jr < nc;) {
    const float* bp = b_pack + (jr / NR) * (NR * kc);
    const bool pair = jr + NR < nc;
    const std::size_t width = std::min(pair ? 2 * NR : NR, nc - jr);
    const std::size_t nr_last = width - (pair ? NR : 0);
    for (std::size_t ir = 0; ir < mc; ir += MR) {
      const std::size_t mr = std::min(MR, mc - ir);
      const float* ap = a.p + (ic + ir) * a.rs + pc;
      float* cp = c + (ic + ir) * ldc + jc + jr;
      if (pair)
        kernel_rows_mr<2>(mr, kc, ap, a.rs, bp, nr_last, cp, ldc);
      else
        kernel_rows_mr<1>(mr, kc, ap, a.rs, bp, nr_last, cp, ldc);
    }
    jr += width;
  }
}

#else  // portable scalar fallback (non-GNU compilers)

void kernel_full(std::size_t kc, const float* __restrict a,
                 const float* __restrict b, float* __restrict c,
                 std::size_t ldc) {
  float acc[MR][NR] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* __restrict ap = a + p * MR;
    const float* __restrict bp = b + p * NR;
    for (std::size_t i = 0; i < MR; ++i)
      for (std::size_t j = 0; j < NR; ++j) acc[i][j] += ap[i] * bp[j];
  }
  for (std::size_t i = 0; i < MR; ++i)
    for (std::size_t j = 0; j < NR; ++j) c[i * ldc + j] += acc[i][j];
}

void kernel_edge(std::size_t kc, const float* __restrict a,
                 const float* __restrict b, std::size_t mr, std::size_t nr,
                 float* __restrict c, std::size_t ldc) {
  float acc[MR][NR] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* __restrict ap = a + p * MR;
    const float* __restrict bp = b + p * NR;
    for (std::size_t i = 0; i < MR; ++i)
      for (std::size_t j = 0; j < NR; ++j) acc[i][j] += ap[i] * bp[j];
  }
  for (std::size_t i = 0; i < mr; ++i)
    for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] += acc[i][j];
}

#endif  // GROUPFEL_GEMM_VECTOR_EXT

/// Packs A[i0 .. i0+mc, p0 .. p0+kc] into MR-row slivers, zero-padding the
/// ragged last sliver so the kernel never branches on mr.
void pack_a(MatView a, std::size_t i0, std::size_t mc, std::size_t p0,
            std::size_t kc, float* __restrict dst) {
  for (std::size_t i = 0; i < mc; i += MR) {
    const std::size_t mr = std::min(MR, mc - i);
    const float* src = a.p + (i0 + i) * a.rs + p0 * a.cs;
    for (std::size_t p = 0; p < kc; ++p) {
      const float* col = src + p * a.cs;
      std::size_t ii = 0;
      for (; ii < mr; ++ii) dst[ii] = col[ii * a.rs];
      for (; ii < MR; ++ii) dst[ii] = 0.0f;
      dst += MR;
    }
  }
}

#ifdef GROUPFEL_GEMM_VECTOR_EXT

// One level of an NR×NR register transpose: exchanges bit H of the row index
// with bit H of the column index between rows i and i + H. Applying it for
// every power of two H < NR swaps all index bits.
template <std::size_t H>
constexpr int lo_lane(std::size_t j) {
  return static_cast<int>((j & H) != 0 ? NR + j - H : j);
}
template <std::size_t H>
constexpr int hi_lane(std::size_t j) {
  return static_cast<int>((j & H) != 0 ? NR + j : j + H);
}

template <std::size_t H, std::size_t... J>
inline void exchange_bit(v16f* r, std::index_sequence<J...>) {
  for (std::size_t i = 0; i < NR; ++i) {
    if ((i & H) != 0) continue;
    const v16f a = r[i];
    const v16f b = r[i + H];
    r[i] = __builtin_shufflevector(a, b, lo_lane<H>(J)...);
    r[i + H] = __builtin_shufflevector(a, b, hi_lane<H>(J)...);
  }
}

template <std::size_t H = 1>
inline void transpose_tile(v16f* r) {
  if constexpr (H < NR) {
    exchange_bit<H>(r, std::make_index_sequence<NR>{});
    transpose_tile<2 * H>(r);
  }
}

/// One NR×NR tile of a column-contiguous view: column jj < nc is the run
/// src[jj·cs, jj·cs + NR). The tile is transposed in registers and stored
/// as NR rows at dst + q·ld; columns jj >= nc load as zeros.
inline void transpose_to_rows(const float* src, std::size_t cs,
                              std::size_t nc, float* dst, std::size_t ld) {
  v16f tile[NR];
  for (std::size_t jj = 0; jj < NR; ++jj)
    tile[jj] = jj < nc ? static_cast<v16f>(
                             *reinterpret_cast<const v16f_u*>(src + jj * cs))
                       : v16f{};
  transpose_tile(tile);
  for (std::size_t q = 0; q < NR; ++q)
    *reinterpret_cast<v16f_u*>(dst + q * ld) = tile[q];
}

/// One kc×NR sliver of a transposed B (b.rs == 1, e.g. the im2col matrix in
/// the weight gradient dY·colsᵀ): sliver column jj < nr is the contiguous
/// run src[jj·cs, jj·cs + kc). NR×NR tiles are loaded along k, transposed in
/// registers and stored as NR packed rows; columns jj >= nr are zeros.
void pack_b_transposed(const float* src, std::size_t cs, std::size_t kc,
                       std::size_t nr, float* __restrict dst) {
  std::size_t p = 0;
  for (; p + NR <= kc; p += NR)
    transpose_to_rows(src + p, cs, nr, dst + p * NR, NR);
  for (; p < kc; ++p) {
    std::size_t jj = 0;
    for (; jj < nr; ++jj) dst[p * NR + jj] = src[jj * cs + p];
    for (; jj < NR; ++jj) dst[p * NR + jj] = 0.0f;
  }
}

#endif  // GROUPFEL_GEMM_VECTOR_EXT

/// Packs B[p0 .. p0+kc, j0 .. j0+nc] into NR-column slivers (zero-padded).
/// Every layout produces the same packed bytes; the fast paths only change
/// how B is read.
void pack_b(MatView b, std::size_t p0, std::size_t kc, std::size_t j0,
            std::size_t nc, float* __restrict dst) {
  for (std::size_t j = 0; j < nc; j += NR) {
    const std::size_t nr = std::min(NR, nc - j);
    const float* src = b.p + p0 * b.rs + (j0 + j) * b.cs;
    if (b.cs == 1 && nr == NR) {
      // Full sliver rows: the constant-size copy compiles to one vector
      // load and store per row; the variable-length copy below pays a
      // string-move (or library call) set-up per 64-byte row.
      for (std::size_t p = 0; p < kc; ++p, dst += NR)
        std::memcpy(dst, src + p * b.rs, NR * sizeof(float));
    } else if (b.cs == 1) {
      for (std::size_t p = 0; p < kc; ++p) {
        std::memcpy(dst, src + p * b.rs, nr * sizeof(float));
        for (std::size_t jj = nr; jj < NR; ++jj) dst[jj] = 0.0f;
        dst += NR;
      }
#ifdef GROUPFEL_GEMM_VECTOR_EXT
    } else if (b.rs == 1) {
      pack_b_transposed(src, b.cs, kc, nr, dst);
      dst += kc * NR;
#endif
    } else {
      for (std::size_t p = 0; p < kc; ++p) {
        const float* row = src + p * b.rs;
        std::size_t jj = 0;
        for (; jj < nr; ++jj) dst[jj] = row[jj * b.cs];
        for (; jj < NR; ++jj) dst[jj] = 0.0f;
        dst += NR;
      }
    }
  }
}

/// Dense row-major rows×cols copy of a view. A transposed view (rs == 1, each
/// column contiguous) moves in NR×NR tiles transposed in registers; only the
/// ragged last rows and columns take the scalar gather.
void dense_copy(MatView src, std::size_t rows, std::size_t cols,
                float* __restrict dst) {
  if (src.cs == 1) {
    for (std::size_t r = 0; r < rows; ++r)
      std::memcpy(dst + r * cols, src.p + r * src.rs, cols * sizeof(float));
    return;
  }
  std::size_t full_rows = 0, full_cols = 0;
#ifdef GROUPFEL_GEMM_VECTOR_EXT
  if (src.rs == 1) {
    full_rows = rows - rows % NR;
    full_cols = cols - cols % NR;
    for (std::size_t r0 = 0; r0 < full_rows; r0 += NR)
      for (std::size_t c0 = 0; c0 < full_cols; c0 += NR)
        transpose_to_rows(src.p + c0 * src.cs + r0, src.cs, NR,
                          dst + r0 * cols + c0, cols);
  }
#endif
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = src.p + r * src.rs;
    for (std::size_t c = r < full_rows ? full_cols : 0; c < cols; ++c)
      dst[r * cols + c] = row[c * src.cs];
  }
}

/// One Mc×kc row panel of C against the packed B block.
void run_row_panel(MatView a, std::size_t ic, std::size_t mc, std::size_t pc,
                   std::size_t kc, const float* b_pack, std::size_t jc,
                   std::size_t nc, float* c, std::size_t ldc) {
#ifdef GROUPFEL_GEMM_VECTOR_EXT
  if (kUnpackedA && a.cs == 1) {
    run_row_panel_direct(a, ic, mc, pc, kc, b_pack, jc, nc, c, ldc);
    return;
  }
#endif
  auto a_buf =
      runtime::WorkspaceArena::local().acquire(ceil_div(mc, MR) * MR * kc);
  pack_a(a, ic, mc, pc, kc, a_buf.data());
  for (std::size_t jr = 0; jr < nc; jr += NR) {
    const std::size_t nr = std::min(NR, nc - jr);
    const float* bp = b_pack + (jr / NR) * (NR * kc);
    for (std::size_t ir = 0; ir < mc; ir += MR) {
      const std::size_t mr = std::min(MR, mc - ir);
      const float* ap = a_buf.data() + (ir / MR) * (MR * kc);
      float* cp = c + (ic + ir) * ldc + jc + jr;
      if (mr == MR && nr == NR)
        kernel_full(kc, ap, bp, cp, ldc);
      else
        kernel_edge(kc, ap, bp, mr, nr, cp, ldc);
    }
  }
}

#ifdef GROUPFEL_GEMM_VECTOR_EXT

/// With C this skinny (m ≤ 2·MR) the packed path wastes most of every MR-row
/// tile and re-packs B for almost no reuse, so keep every C row's
/// accumulators live in registers and stream B rows directly instead.
constexpr std::size_t kSkinnyRows = 2 * MR;

/// Below this many multiply-adds packing never amortizes even for taller C
/// (the Aᵀ·B weight-gradient shapes: m = in_features, k = batch), so route
/// them through the register-tiled skinny kernel as well — any B layout,
/// via a dense copy when B is not row-contiguous (gemm_skinny_dense_b).
constexpr std::size_t kSkinnyFlops = 128 * 1024;

/// One tile of up to MT ≤ 4 C rows across the full width n. B must be
/// row-contiguous (b.cs == 1); A may be strided. MT is a template parameter
/// so the accumulator array has constant bounds and stays in registers.
/// `tail` is a k×NR zero-padded copy of B's last n%NR columns (nullptr when
/// NR divides n): the ragged edge computes vectorized instead of one scalar
/// column at a time.
template <std::size_t MT>
void skinny_tile(std::size_t n, std::size_t k, const float* __restrict arow,
                 std::size_t ars, std::size_t acs, const float* __restrict bp,
                 std::size_t brs, const float* __restrict tail,
                 float* __restrict c) {
  std::size_t j = 0;
  for (; j + 4 * NR <= n; j += 4 * NR) {
    v16f acc[MT][4] = {};
    for (std::size_t p = 0; p < k; ++p) {
      const float* brow = bp + p * brs + j;
      v16f bv[4];
      for (std::size_t q = 0; q < 4; ++q)
        bv[q] = *reinterpret_cast<const v16f_u*>(brow + q * NR);
      for (std::size_t i = 0; i < MT; ++i) {
        const float av = arow[i * ars + p * acs];
        for (std::size_t q = 0; q < 4; ++q) acc[i][q] += av * bv[q];
      }
    }
    for (std::size_t i = 0; i < MT; ++i)
      for (std::size_t q = 0; q < 4; ++q) {
        v16f_u* cp = reinterpret_cast<v16f_u*>(c + i * n + j + q * NR);
        *cp = static_cast<v16f>(*cp) + acc[i][q];
      }
  }
  for (; j + NR <= n; j += NR) {
    v16f acc[MT] = {};
    for (std::size_t p = 0; p < k; ++p) {
      const v16f bv = *reinterpret_cast<const v16f_u*>(bp + p * brs + j);
      for (std::size_t i = 0; i < MT; ++i)
        acc[i] += arow[i * ars + p * acs] * bv;
    }
    for (std::size_t i = 0; i < MT; ++i) {
      v16f_u* cp = reinterpret_cast<v16f_u*>(c + i * n + j);
      *cp = static_cast<v16f>(*cp) + acc[i];
    }
  }
  if (j < n) {
    const std::size_t nt = n - j;
    v16f acc[MT] = {};
    for (std::size_t p = 0; p < k; ++p) {
      const v16f bv = *reinterpret_cast<const v16f_u*>(tail + p * NR);
      for (std::size_t i = 0; i < MT; ++i)
        acc[i] += arow[i * ars + p * acs] * bv;
    }
    for (std::size_t i = 0; i < MT; ++i) {
      const float* lanes = reinterpret_cast<const float*>(&acc[i]);
      for (std::size_t jj = 0; jj < nt; ++jj) c[i * n + j + jj] += lanes[jj];
    }
  }
}

void gemm_skinny(std::size_t m, std::size_t n, std::size_t k, MatView a,
                 MatView b, float* c) {
  // Stage the ragged last columns once; every row tile then runs fully
  // vectorized (the narrow final layers, n = num_classes, hit this hard).
  runtime::WorkspaceArena::Buffer tail_buf;
  const float* tail = nullptr;
  const std::size_t nt = n % NR;
  if (nt != 0) {
    tail_buf = runtime::WorkspaceArena::local().acquire(k * NR);
    float* tp = tail_buf.data();
    const float* src = b.p + (n - nt);
    for (std::size_t p = 0; p < k; ++p, tp += NR) {
      std::size_t jj = 0;
      for (; jj < nt; ++jj) tp[jj] = src[p * b.rs + jj];
      for (; jj < NR; ++jj) tp[jj] = 0.0f;
    }
    tail = tail_buf.data();
  }
  for (std::size_t i0 = 0; i0 < m; i0 += 4) {
    const float* arow = a.p + i0 * a.rs;
    float* crow = c + i0 * n;
    switch (std::min<std::size_t>(4, m - i0)) {
      case 4:
        skinny_tile<4>(n, k, arow, a.rs, a.cs, b.p, b.rs, tail, crow);
        break;
      case 3:
        skinny_tile<3>(n, k, arow, a.rs, a.cs, b.p, b.rs, tail, crow);
        break;
      case 2:
        skinny_tile<2>(n, k, arow, a.rs, a.cs, b.p, b.rs, tail, crow);
        break;
      default:
        skinny_tile<1>(n, k, arow, a.rs, a.cs, b.p, b.rs, tail, crow);
        break;
    }
  }
}

/// Small shapes whose B is not row-contiguous: the transposed B of an input
/// gradient dY·Wᵀ (b.rs == 1) or a strided view. B is written once as a
/// dense row-major k×n scratch, so every C element takes the skinny
/// kernel's multiply-add chain and A·Bᵀ is bit-identical to A·(Bᵀ stored).
void gemm_skinny_dense_b(std::size_t m, std::size_t n, std::size_t k,
                         MatView a, MatView b, float* c) {
  auto b_buf = runtime::WorkspaceArena::local().acquire(k * n);
  dense_copy(b, k, n, b_buf.data());
  gemm_skinny(m, n, k, a, MatView{b_buf.data(), n, 1}, c);
}

#endif  // GROUPFEL_GEMM_VECTOR_EXT

/// Row-panel parallelism pays off once a panel's work dwarfs the dispatch
/// cost; 2 MFLOP per task keeps small training-shape GEMMs inline.
constexpr std::size_t kParallelFlops = 1u << 21;

/// Shared accumulate-into-C body for fp32 storage. Every kernel path adds
/// onto whatever C already holds, so gemm() zero-fills first and gemm_acc()
/// does not.
void gemm_impl_fp32(std::size_t m, std::size_t n, std::size_t k, MatView a,
                    MatView b, float* c) {
  if (m == 0 || n == 0 || k == 0) return;
#ifdef GROUPFEL_GEMM_VECTOR_EXT
  if (b.cs == 1 && (m <= kSkinnyRows || m * n * k <= kSkinnyFlops)) {
    gemm_skinny(m, n, k, a, b, c);
    return;
  }
  if (m * n * k <= kSkinnyFlops) {
    gemm_skinny_dense_b(m, n, k, a, b, c);
    return;
  }
#endif

  auto& pool = runtime::ThreadPool::global();
  for (std::size_t jc = 0; jc < n; jc += NC) {
    const std::size_t nc = std::min(NC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += KC) {
      const std::size_t kc = std::min(KC, k - pc);
      auto b_buf = runtime::WorkspaceArena::local().acquire(
          ceil_div(nc, NR) * NR * kc);
      pack_b(b, pc, kc, jc, nc, b_buf.data());

      const std::size_t panels = ceil_div(m, MC);
      const bool parallel = pool.size() > 0 && panels > 1 &&
                            m * nc * kc >= kParallelFlops * panels;
      if (parallel) {
        // Disjoint C row panels + fixed per-element accumulation order keep
        // the result independent of the pool size.
        pool.parallel_for(panels, [&](std::size_t pi) {
          const std::size_t ic = pi * MC;
          run_row_panel(a, ic, std::min(MC, m - ic), pc, kc, b_buf.data(),
                        jc, nc, c, n);
        });
      } else {
        for (std::size_t ic = 0; ic < m; ic += MC)
          run_row_panel(a, ic, std::min(MC, m - ic), pc, kc, b_buf.data(),
                        jc, nc, c, n);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// bf16 storage path: one rounding step in front of the fp32 kernels.
//
// Each operand element passes through bf16 exactly once (RNE) on its way
// into a dense operand copy, and the fp32 dispatch above runs on the copies
// unchanged. A bf16 product is therefore bit-identical to the fp32 product
// of bf16-rounded operands, on every shape and every host, and bit-identity
// across pool sizes carries over from the fp32 path.
// ---------------------------------------------------------------------------

/// Dense row-major bf16-rounded copy of a strided view.
void round_dense_bf16(MatView src, std::size_t rows, std::size_t cols,
                      float* __restrict dst) {
  if (src.cs == 1) {  // rows are contiguous: round on the way in
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c)
        dst[r * cols + c] = util::half::round_bf16(src.p[r * src.rs + c]);
    return;
  }
  dense_copy(src, rows, cols, dst);
  const std::size_t size = rows * cols;
  for (std::size_t i = 0; i < size; ++i)
    dst[i] = util::half::round_bf16(dst[i]);
}

/// Rounds both operands into dense copies once, then runs the fp32 kernels.
void gemm_rounded_copy(std::size_t m, std::size_t n, std::size_t k, MatView a,
                       MatView b, float* c) {
  if (m == 0 || n == 0 || k == 0) return;
  auto& arena = runtime::WorkspaceArena::local();
  auto a_buf = arena.acquire(m * k);
  auto b_buf = arena.acquire(k * n);
  round_dense_bf16(a, m, k, a_buf.data());
  round_dense_bf16(b, k, n, b_buf.data());
  gemm_impl_fp32(m, n, k, MatView{a_buf.data(), k, 1},
                 MatView{b_buf.data(), n, 1}, c);
}

void gemm_impl(std::size_t m, std::size_t n, std::size_t k, MatView a,
               MatView b, float* c, StoragePrecision sp) {
  if (sp == StoragePrecision::kFp32)
    gemm_impl_fp32(m, n, k, a, b, c);
  else
    gemm_rounded_copy(m, n, k, a, b, c);
}

}  // namespace

void gemm(std::size_t m, std::size_t n, std::size_t k, MatView a, MatView b,
          float* c, StoragePrecision sp) {
  std::fill_n(c, m * n, 0.0f);
  gemm_impl(m, n, k, a, b, c, sp);
}

void gemm_acc(std::size_t m, std::size_t n, std::size_t k, MatView a,
              MatView b, float* c, StoragePrecision sp) {
  gemm_impl(m, n, k, a, b, c, sp);
}

}  // namespace groupfel::nn::detail
