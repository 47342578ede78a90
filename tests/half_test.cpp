#include "util/half.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "runtime/rng.hpp"

#if defined(__F16C__)
#include <immintrin.h>
#endif

namespace groupfel::util::half {
namespace {

std::uint32_t float_bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

// ---------------- bf16 ----------------

TEST(Bf16, ExactValuesRoundTrip) {
  // Every value whose significand fits in bf16's 8 bits is preserved.
  for (const float f : {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -3.5f, 100.0f,
                        1.0f / 256.0f, -0.0078125f}) {
    EXPECT_EQ(round_bf16(f), f) << f;
  }
}

TEST(Bf16, RoundsToNearestTiesToEven) {
  // 1 + 2^-8 sits exactly halfway between bf16 neighbours 1.0 (mantissa
  // even) and 1 + 2^-7: RNE picks the even one.
  EXPECT_EQ(round_bf16(1.0f + 0x1.0p-8f), 1.0f);
  // 1 + 3*2^-8 is halfway between 1 + 2^-7 (odd) and 1 + 2^-6 (even).
  EXPECT_EQ(round_bf16(1.0f + 3.0f * 0x1.0p-8f), 1.0f + 0x1.0p-6f);
  // Just above halfway rounds up, just below rounds down.
  EXPECT_EQ(round_bf16(1.0f + 0x1.1p-8f), 1.0f + 0x1.0p-7f);
  EXPECT_EQ(round_bf16(1.0f + 0x1.0p-9f), 1.0f);
}

TEST(Bf16, CarryIntoExponent) {
  // Largest fp32 below 2.0 rounds up across the exponent boundary.
  EXPECT_EQ(round_bf16(std::nextafter(2.0f, 0.0f)), 2.0f);
}

TEST(Bf16, SpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(round_bf16(inf), inf);
  EXPECT_EQ(round_bf16(-inf), -inf);
  EXPECT_TRUE(std::isnan(round_bf16(std::numeric_limits<float>::quiet_NaN())));
  // A signaling-ish NaN payload must stay NaN (quieted), not become inf.
  float snan;
  std::uint32_t snan_bits = 0x7f800001u;
  std::memcpy(&snan, &snan_bits, sizeof(snan));
  EXPECT_TRUE(std::isnan(round_bf16(snan)));
}

TEST(Bf16, ErrorBoundedByHalfUlp) {
  runtime::Rng rng(21);
  for (int i = 0; i < 10000; ++i) {
    const float f = static_cast<float>(rng.normal()) * 8.0f;
    const float r = round_bf16(f);
    // bf16 has 8 significand bits: half-ulp relative error <= 2^-9.
    EXPECT_LE(std::abs(r - f), std::abs(f) * 0x1.0p-8f) << f;
  }
}

// ---------------- fp16 ----------------

TEST(Fp16, ExactValuesRoundTrip) {
  for (const float f : {0.0f, -0.0f, 1.0f, -0.75f, 0.5f, 65504.0f,
                        0x1.0p-14f, 0x1.0p-24f, 1024.0f, -2048.0f}) {
    EXPECT_EQ(round_fp16(f), f) << f;
  }
}

TEST(Fp16, RoundsToNearestTiesToEven) {
  // 1 + 2^-11 is halfway between 1.0 (even mantissa) and 1 + 2^-10.
  EXPECT_EQ(round_fp16(1.0f + 0x1.0p-11f), 1.0f);
  EXPECT_EQ(round_fp16(1.0f + 3.0f * 0x1.0p-11f), 1.0f + 0x1.0p-9f);
  EXPECT_EQ(round_fp16(1.0f + 0x1.2p-11f), 1.0f + 0x1.0p-10f);
}

TEST(Fp16, OverflowSaturatesToInfinity) {
  const float inf = std::numeric_limits<float>::infinity();
  // Max finite fp16 is 65504; halfway to the next step (65520) ties to the
  // would-be 65536 which overflows -> infinity per IEEE RNE.
  EXPECT_EQ(round_fp16(65520.0f), inf);
  EXPECT_EQ(round_fp16(65519.9f), 65504.0f);
  EXPECT_EQ(round_fp16(1e6f), inf);
  EXPECT_EQ(round_fp16(-1e6f), -inf);
  EXPECT_EQ(round_fp16(inf), inf);
}

TEST(Fp16, SubnormalsQuantizeToUlp) {
  // fp16 subnormal ulp is 2^-24: representable multiples survive, others
  // round to the nearest multiple.
  EXPECT_EQ(round_fp16(3.0f * 0x1.0p-24f), 3.0f * 0x1.0p-24f);
  EXPECT_EQ(round_fp16(0x1.1p-24f), 0x1.0p-24f);
  // Halfway between 0 and the smallest subnormal ties to even -> zero.
  EXPECT_EQ(round_fp16(0x1.0p-25f), 0.0f);
  // Just above halfway rounds up to the smallest subnormal.
  EXPECT_EQ(round_fp16(0x1.2p-25f), 0x1.0p-24f);
  // Subnormal rounding can carry into the smallest normal.
  EXPECT_EQ(round_fp16(std::nextafter(0x1.0p-14f, 0.0f)), 0x1.0p-14f);
  // Below half the smallest subnormal: signed zero.
  EXPECT_EQ(round_fp16(0x1.0p-26f), 0.0f);
  EXPECT_EQ(float_bits(round_fp16(-0x1.0p-26f)), 0x80000000u);
}

TEST(Fp16, NaNStaysNaN) {
  EXPECT_TRUE(std::isnan(round_fp16(std::numeric_limits<float>::quiet_NaN())));
  float snan;
  std::uint32_t snan_bits = 0x7f800001u;
  std::memcpy(&snan, &snan_bits, sizeof(snan));
  EXPECT_TRUE(std::isnan(round_fp16(snan)));
}

TEST(Fp16, ErrorBoundedByHalfUlp) {
  runtime::Rng rng(22);
  for (int i = 0; i < 10000; ++i) {
    const float f = static_cast<float>(rng.normal()) * 8.0f;
    const float r = round_fp16(f);
    EXPECT_LE(std::abs(r - f), std::abs(f) * 0x1.0p-11f) << f;
  }
}

#if defined(__F16C__)
TEST(Fp16, SoftConversionMatchesHardware) {
  // The software converter pins the semantics; where the TU has F16C the
  // hardware instruction must agree bit-for-bit (including subnormals,
  // ties, and overflow).
  runtime::Rng rng(23);
  std::vector<float> probes;
  for (int i = 0; i < 20000; ++i) {
    const float mag = std::exp(static_cast<float>(rng.normal()) * 8.0f);
    probes.push_back(static_cast<float>(rng.normal()) * mag);
  }
  probes.insert(probes.end(),
                {0.0f, -0.0f, 65504.0f, 65520.0f, 0x1.0p-24f, 0x1.0p-25f,
                 0x1.2p-25f, std::numeric_limits<float>::infinity()});
  for (const float f : probes) {
    // The raw intrinsics are the point here: cross-checking the soft
    // converters against the hardware instructions.
    const std::uint16_t hw = static_cast<std::uint16_t>(
        _cvtss_sh(f, _MM_FROUND_TO_NEAREST_INT));  // lint:allow(half-bitcast)
    EXPECT_EQ(to_fp16_bits(f), hw) << f;
    EXPECT_EQ(from_fp16_bits(hw), _cvtsh_ss(hw)) << f;  // lint:allow(half-bitcast)
  }
}
#endif

// ---------------- packing helpers ----------------

TEST(Half, PairBf16Layout) {
  const std::uint32_t pair = pair_bf16(1.0f, -2.0f);
  EXPECT_EQ(pair & 0xFFFFu, to_bf16_bits(1.0f));
  EXPECT_EQ(pair >> 16, to_bf16_bits(-2.0f));
}

TEST(Half, SpanEncodersMatchScalar) {
  runtime::Rng rng(24);
  std::vector<float> src(257);  // odd length: exercises any tail handling
  for (auto& v : src) v = static_cast<float>(rng.normal()) * 3.0f;
  std::vector<std::uint16_t> b(src.size());
  encode_bf16(src, b.data());
  for (std::size_t i = 0; i < src.size(); ++i)
    EXPECT_EQ(b[i], to_bf16_bits(src[i]));
}

#if defined(GROUPFEL_HALF_SIMD)
TEST(Half, SimdExpandMatchesScalar) {
  runtime::Rng rng(25);
  alignas(64) std::uint16_t b[16];
  for (std::size_t i = 0; i < 16; ++i)
    b[i] = to_bf16_bits(static_cast<float>(rng.normal()) * 5.0f);
  simd::v16f eb;
  simd::expand_bf16(b, eb);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(eb[i], from_bf16_bits(b[i]));
}
#endif

}  // namespace
}  // namespace groupfel::util::half
