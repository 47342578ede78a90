// Kernel-equivalence sweep for the blocked/packed GEMM (nn/gemm.cpp).
//
// matmul / matmul_bt / matmul_at must agree with the naive triple-loop
// oracles to 1e-4 relative across shapes chosen to hit every dispatch path:
// the skinny-row streaming path (over B itself or its dense copy), full
// packed tiles, and ragged edges of every cache block (MR/NR register tiles
// and MC/KC/NC panels). A randomized sweep backstops the hand-picked shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "nn/gemm.hpp"
#include "nn/tensor.hpp"
#include "runtime/rng.hpp"

namespace groupfel::nn {
namespace {

Tensor random_matrix(std::size_t rows, std::size_t cols, runtime::Rng& rng) {
  Tensor t({rows, cols});
  for (auto& v : t.data()) v = static_cast<float>(rng.normal());
  return t;
}

void expect_close(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.shape(), want.shape());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float scale = std::max(1.0f, std::fabs(want[i]));
    ASSERT_NEAR(got[i], want[i], 1e-4f * scale)
        << what << ": flat index " << i;
  }
}

void check_all_variants(std::size_t m, std::size_t k, std::size_t n,
                        runtime::Rng& rng) {
  SCOPED_TRACE(::testing::Message()
               << "m=" << m << " k=" << k << " n=" << n);
  {
    const Tensor a = random_matrix(m, k, rng);
    const Tensor b = random_matrix(k, n, rng);
    Tensor got({m, n}), want({m, n});
    matmul(a, b, got);
    matmul_naive(a, b, want);
    expect_close(got, want, "matmul");
  }
  {
    const Tensor a = random_matrix(m, k, rng);
    const Tensor b = random_matrix(n, k, rng);  // used transposed
    Tensor got({m, n}), want({m, n});
    matmul_bt(a, b, got);
    matmul_bt_naive(a, b, want);
    expect_close(got, want, "matmul_bt");
  }
  {
    const Tensor a = random_matrix(m, k, rng);  // used transposed
    const Tensor b = random_matrix(m, n, rng);
    Tensor got({k, n}), want({k, n});
    matmul_at(a, b, got);
    matmul_at_naive(a, b, want);
    expect_close(got, want, "matmul_at");
  }
}

struct GemmCase {
  std::size_t m, k, n;
};

class GemmEquivalenceTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmEquivalenceTest, AllVariantsMatchNaive) {
  const GemmCase c = GetParam();
  runtime::Rng rng(c.m * 7919 + c.k * 104729 + c.n);
  check_all_variants(c.m, c.k, c.n, rng);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmEquivalenceTest,
    ::testing::Values(
        GemmCase{1, 1, 1},      // degenerate
        GemmCase{3, 5, 7},      // tiny product
        GemmCase{8, 32, 64},    // MLP training batch (skinny rows)
        GemmCase{8, 27, 1024},  // ResNet3 first layer (skinny, wide)
        GemmCase{12, 40, 33},   // skinny edge: n not a lane multiple
        GemmCase{6, 16, 16},    // exactly one MR x NR register tile
        GemmCase{13, 19, 21},   // ragged in every register dimension
        GemmCase{97, 300, 130},   // crosses MC and KC panel edges
        GemmCase{100, 257, 70},   // KC remainder of 1
        GemmCase{64, 64, 256}));  // column-major-ish aspect

TEST(GemmEquivalence, RandomizedShapeSweep) {
  runtime::Rng rng(20260805);
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t m = 1 + rng.next_below(130);
    const std::size_t k = 1 + rng.next_below(300);
    const std::size_t n = 1 + rng.next_below(260);
    check_all_variants(m, k, n, rng);
  }
}

TEST(GemmEquivalence, RepeatedCallsAreDeterministic) {
  // Arena reuse across calls must not leak state between GEMMs.
  runtime::Rng rng(99);
  const Tensor a = random_matrix(50, 120, rng);
  const Tensor b = random_matrix(120, 80, rng);
  Tensor first({50, 80}), second({50, 80});
  matmul(a, b, first);
  matmul(a, b, second);
  for (std::size_t i = 0; i < first.size(); ++i)
    ASSERT_EQ(first[i], second[i]) << "flat index " << i;
}

/// A·B with one B stored row-contiguous, transposed (rs == 1, read along k)
/// and as a generic strided view, through gemm and through gemm_acc onto a
/// random C: the transposed and strided products must be bit-identical, and
/// so must the row-contiguous one when `with_contiguous`.
void expect_b_layouts_bit_identical(std::size_t m, std::size_t n,
                                    std::size_t k, bool with_contiguous) {
  SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n << " k=" << k);
  runtime::Rng rng(m * 31 + n * 17 + k);
  std::vector<float> a(m * k), rows(k * n), cols(n * k), strided(k * 2 * n),
      c0(m * n);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (std::size_t p = 0; p < k; ++p)
    for (std::size_t j = 0; j < n; ++j) {
      const auto v = static_cast<float>(rng.normal());
      rows[p * n + j] = v;
      cols[j * k + p] = v;
      strided[p * 2 * n + 2 * j] = v;
    }
  for (auto& v : c0) v = static_cast<float>(rng.normal());
  const detail::MatView av{a.data(), k, 1};
  for (const bool acc : {false, true}) {
    const auto product = [&](detail::MatView b) {
      std::vector<float> c = c0;
      if (acc)
        detail::gemm_acc(m, n, k, av, b, c.data());
      else
        detail::gemm(m, n, k, av, b, c.data());
      return c;
    };
    const std::vector<float> gathered = product({strided.data(), 2 * n, 2});
    const std::vector<float> transposed = product({cols.data(), 1, k});
    ASSERT_EQ(std::memcmp(transposed.data(), gathered.data(),
                          gathered.size() * sizeof(float)),
              0)
        << "acc=" << acc;
    if (with_contiguous) {
      const std::vector<float> contiguous = product({rows.data(), n, 1});
      ASSERT_EQ(std::memcmp(contiguous.data(), gathered.data(),
                            gathered.size() * sizeof(float)),
                0)
          << "acc=" << acc;
    }
  }
}

TEST(GemmEquivalence, BlockedPathBitIdenticalAcrossBLayouts) {
  // The blocked path packs B the same way whether B is row-contiguous, stored
  // transposed, or a generic strided view. m16·n1024·k72 is CNN5's conv2
  // forward at batch 16 (every layout takes the blocked path); m8·n27·k4096
  // is conv1's weight gradient, whose row-contiguous form takes the skinny
  // path instead (one chain over all of k, not one per KC chunk) and is
  // left out; m16·n1000·k300 adds a ragged last sliver and a second KC
  // chunk.
  expect_b_layouts_bit_identical(16, 1024, 72, true);
  expect_b_layouts_bit_identical(8, 27, 4096, false);
  expect_b_layouts_bit_identical(16, 1000, 300, true);
}

TEST(GemmEquivalence, SmallShapesBitIdenticalAcrossBLayouts) {
  // Below the skinny cutoff a B that is not row-contiguous is copied dense
  // before the skinny kernel runs, so A·Bᵀ must equal A times Bᵀ stored
  // row-major. The shapes (m·n·k) are the MLP input gradients dY·Wᵀ
  // (m = batch, n = in_features, k = out_features) of round_mlp (batch 16,
  // 32-64-64-10), fleet_1m (batch 32) and sweep_mixed (batch 8), then
  // ragged n and k, k = 1 and m = 1.
  struct Shape {
    std::size_t m, n, k;
  };
  for (const Shape s :
       {Shape{16, 32, 64}, Shape{16, 64, 64}, Shape{16, 64, 10},
        Shape{32, 32, 32}, Shape{32, 32, 10}, Shape{8, 64, 64},
        Shape{8, 64, 10}, Shape{16, 27, 64}, Shape{16, 64, 17},
        Shape{13, 27, 17}, Shape{16, 64, 1}, Shape{1, 64, 64},
        Shape{1, 27, 17}})
    expect_b_layouts_bit_identical(s.m, s.n, s.k, true);
}

TEST(GemmEquivalence, BlockedPathBitIdenticalAcrossALayouts) {
  // On AVX-512 builds a row-contiguous A (cs == 1) skips pack_a:
  // kernel_rows broadcasts it in place, two B slivers per tile. A transposed
  // or strided A is packed and runs the MR×NR kernels. Both give every C element the same multiply-add
  // sequence, so gemm and gemm_acc must agree bit for bit. B is stored
  // transposed, as in the conv weight gradient, so every layout takes the
  // blocked path (every shape is above the skinny cutoff). The shapes cover
  // conv1's dW (m = 8: a 6-row and a 2-row tile, a full and an 11-wide
  // sliver, 16 KC chunks), odd row and sliver counts with a ragged KC
  // chunk, and a single sliver.
  struct Shape {
    std::size_t m, n, k;
  };
  for (const Shape s : {Shape{8, 27, 4096}, Shape{13, 53, 300},
                        Shape{7, 16, 1200}, Shape{32, 144, 256}}) {
    SCOPED_TRACE(::testing::Message()
                 << "m=" << s.m << " n=" << s.n << " k=" << s.k);
    runtime::Rng rng(s.m * 13 + s.n * 7 + s.k);
    std::vector<float> rows(s.m * s.k), cols(s.k * s.m), strided(s.m * s.k * 2),
        b(s.n * s.k), c0(s.m * s.n);
    for (std::size_t i = 0; i < s.m; ++i)
      for (std::size_t p = 0; p < s.k; ++p) {
        const auto v = static_cast<float>(rng.normal());
        rows[i * s.k + p] = v;
        cols[p * s.m + i] = v;
        strided[(i * s.k + p) * 2] = v;
      }
    for (auto& v : b) v = static_cast<float>(rng.normal());
    for (auto& v : c0) v = static_cast<float>(rng.normal());
    const detail::MatView bv{b.data(), 1, s.k};
    const auto product = [&](detail::MatView a, bool acc) {
      std::vector<float> c = c0;
      if (acc)
        detail::gemm_acc(s.m, s.n, s.k, a, bv, c.data());
      else
        detail::gemm(s.m, s.n, s.k, a, bv, c.data());
      return c;
    };
    for (const bool acc : {false, true}) {
      const std::vector<float> direct = product({rows.data(), s.k, 1}, acc);
      const std::vector<float> packed = product({cols.data(), 1, s.m}, acc);
      const std::vector<float> gathered =
          product({strided.data(), 2 * s.k, 2}, acc);
      ASSERT_EQ(std::memcmp(direct.data(), packed.data(),
                            direct.size() * sizeof(float)),
                0)
          << "acc=" << acc;
      ASSERT_EQ(std::memcmp(direct.data(), gathered.data(),
                            direct.size() * sizeof(float)),
                0)
          << "acc=" << acc;
    }
  }
}

}  // namespace
}  // namespace groupfel::nn
