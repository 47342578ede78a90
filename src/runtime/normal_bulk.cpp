// Bulk Box–Muller kernel behind Rng::add_normals.
//
// Eight pairs per call, one pair per lane of GCC vector-extension doubles:
//   - log u1: exponent split u1 = 2^k·m with m in [√½, √2), then
//     ln m = 2·atanh(s), s = (m − 1)/(m + 1), with fdlibm's e_log.c
//     polynomial and ln 2 split into hi and lo parts;
//   - r = sqrt(−2 ln u1), one correctly rounded sqrt per lane;
//   - sin/cos of θ = 2π·u2: θ·2/π rounded to the nearest quadrant n, a
//     three-part Cody–Waite reduction θ − n·(pio2_1 + pio2_2 + pio2_2t)
//     (fdlibm's constants, ~118 bits of π/2) into a double-double y0 + y1,
//     fdlibm's k_sin/k_cos kernels, and a quadrant swap and sign flip.
// The result is a few ulps from libm but not bit-equal to it, so every
// scaled value y = half·scale is tested Ziv style before it is used: with
// B = 2^-36, float(y − B|y|) == float(y + B|y|) proves that the reference
// float(y_ref) equals float(y), because |y_ref − y| <= 2^-46·|y| < B·|y|
// (pinned by tests) and float rounding is monotone. A pair that fails the
// test (~7e-4 of pairs) is recomputed through box_muller().
//
// This TU must keep strict IEEE semantics, so it never gets -ffast-math:
// the reduction relies on exact subtractions and on the round-to-nearest
// shift trick, and the error bound is what makes the test sound.
#include <cmath>
#include <cstdint>
#include <cstring>

#include "runtime/rng.hpp"

namespace groupfel::runtime::detail {

namespace {

constexpr std::size_t kLanes = kNormalLanes;
typedef double vec_f64 __attribute__((vector_size(kLanes * sizeof(double))));
typedef std::uint64_t vec_u64
    __attribute__((vector_size(kLanes * sizeof(std::uint64_t))));
typedef float vec_f32 __attribute__((vector_size(kLanes * sizeof(float))));
typedef std::uint32_t vec_u32
    __attribute__((vector_size(kLanes * sizeof(std::uint32_t))));
typedef float vec_f32x2
    __attribute__((vector_size(2 * kLanes * sizeof(float))));

// Rounding-test band B.
constexpr double kBand = 0x1p-36;

// log (fdlibm e_log.c).
constexpr std::uint64_t kMantissaMask = 0x000fffffffffffffull;
constexpr std::uint64_t kExponentOne = 0x3ff0000000000000ull;
constexpr std::uint64_t kTwoPow52Bits = 0x4330000000000000ull;
constexpr double kSqrt2 = 0x1.6a09e667f3bcdp+0;
constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kLg1 = 0x1.5555555555593p-1;
constexpr double kLg2 = 0x1.999999997fa04p-2;
constexpr double kLg3 = 0x1.2492494229359p-2;
constexpr double kLg4 = 0x1.c71c51d8e78afp-3;
constexpr double kLg5 = 0x1.7466496cb03dep-3;
constexpr double kLg6 = 0x1.39a09d078c69fp-3;
constexpr double kLg7 = 0x1.2f112df3e5244p-3;

// π/2 reduction (fdlibm e_rem_pio2.c): pio2_1 and pio2_2 hold 33 bits
// each, so n·pio2_1 and n·pio2_2 are exact for n < 2^20.
constexpr double kInvPio2 = 0x1.45f306dc9c883p-1;
constexpr double kPio2_1 = 0x1.921fb54400000p+0;
constexpr double kPio2_2 = 0x1.0b4611a600000p-34;
constexpr double kPio2_2t = 0x1.3198a2e037073p-69;
// Adding 1.5·2^52 rounds to an integer held in the low mantissa bits.
constexpr double kRoundShift = 0x1.8p52;

// sin/cos kernels on [−π/4, π/4] (fdlibm k_sin.c, k_cos.c).
constexpr double kS1 = -0x1.5555555555549p-3;
constexpr double kS2 = 0x1.111111110f8a6p-7;
constexpr double kS3 = -0x1.a01a019c161d5p-13;
constexpr double kS4 = 0x1.71de357b1fe7dp-19;
constexpr double kS5 = -0x1.ae5e68a2b9cebp-26;
constexpr double kS6 = 0x1.5d93a5acfd57cp-33;
constexpr double kC1 = 0x1.555555555554cp-5;
constexpr double kC2 = -0x1.6c16c16c15177p-10;
constexpr double kC3 = 0x1.a01a019cb1590p-16;
constexpr double kC4 = -0x1.27e4f809c52adp-22;
constexpr double kC5 = 0x1.1ee9ebdb4b1c4p-29;
constexpr double kC6 = -0x1.8fae9be8838d4p-37;

constexpr std::uint64_t kSignBit = 0x8000000000000000ull;

// Vectors travel by reference: passing or returning a vector wider than the
// target ISA's registers by value would trip -Wpsabi in portable builds.
inline void blend(vec_f64& dst, const vec_u64& mask, const vec_f64& if_set,
                  const vec_f64& if_clear) noexcept {
  dst = (vec_f64)(((vec_u64)if_set & mask) | ((vec_u64)if_clear & ~mask));
}

// ln u1 for u1 in (0, 1), normal doubles.
inline void log_lanes(const vec_f64& u1, vec_f64& out) noexcept {
  const vec_u64 bits = (vec_u64)u1;
  vec_f64 m = (vec_f64)((bits & kMantissaMask) | kExponentOne);
  const vec_u64 high = (vec_u64)(m > kSqrt2);  // m in [√2, 2): halve it
  blend(m, high, m * 0.5, m);
  // k = biased exponent − 1023 (+1 where m was halved), converted exactly
  // through the 2^52 mantissa trick: SSE2 has no int64 → double convert.
  const vec_f64 biased = (vec_f64)((bits >> 52) | kTwoPow52Bits) - 0x1p52;
  const vec_f64 dk =
      (biased - 1023.0) + (vec_f64)(high & (vec_u64)(vec_f64{} + 1.0));
  const vec_f64 f = m - 1.0;
  const vec_f64 s = f / (2.0 + f);
  const vec_f64 z = s * s;
  const vec_f64 w = z * z;
  const vec_f64 t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const vec_f64 t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const vec_f64 hfsq = 0.5 * f * f;
  out = dk * kLn2Hi - ((hfsq - (s * (hfsq + (t1 + t2)) + dk * kLn2Lo)) - f);
}

// sin θ and cos θ for θ in [0, 2π].
inline void sincos_lanes(const vec_f64& theta, vec_f64& sin_out,
                         vec_f64& cos_out) noexcept {
  const vec_f64 shifted = theta * kInvPio2 + kRoundShift;
  const vec_f64 n = shifted - kRoundShift;
  const vec_u64 quadrant = (vec_u64)shifted & std::uint64_t{3};
  // θ − n·pio2_1 is exact (n·pio2_1 is within a factor 2 of θ for n >= 1);
  // the rest of n·π/2 is subtracted as a double-double y0 + y1.
  const vec_f64 t = theta - n * kPio2_1;
  vec_f64 w = n * kPio2_2;
  const vec_f64 r = t - w;
  w = n * kPio2_2t - ((t - r) - w);
  const vec_f64 y0 = r - w;
  const vec_f64 y1 = (r - y0) - w;

  const vec_f64 z = y0 * y0;
  const vec_f64 v = z * y0;
  const vec_f64 rs = kS2 + z * (kS3 + z * (kS4 + z * (kS5 + z * kS6)));
  const vec_f64 sin_y = y0 - ((z * (0.5 * y1 - v * rs) - y1) - v * kS1);
  const vec_f64 zz = z * z;
  const vec_f64 rc = z * (kC1 + z * (kC2 + z * kC3)) +
                     zz * zz * (kC4 + z * (kC5 + z * kC6));
  const vec_f64 hz = 0.5 * z;
  const vec_f64 one_minus_hz = 1.0 - hz;
  const vec_f64 cos_y =
      one_minus_hz + (((1.0 - one_minus_hz) - hz) + (z * rc - y0 * y1));

  // Quadrants 1 and 3 swap sin and cos; sin is negated in quadrants 2 and
  // 3, cos in 1 and 2.
  const vec_u64 odd = vec_u64{} - (quadrant & std::uint64_t{1});
  const vec_u64 sin_sign = (quadrant & std::uint64_t{2}) << 62;
  const vec_u64 cos_sign = ((quadrant + std::uint64_t{1}) & std::uint64_t{2})
                           << 62;
  blend(sin_out, odd, cos_y, sin_y);
  blend(cos_out, odd, sin_y, cos_y);
  sin_out = (vec_f64)((vec_u64)sin_out ^ sin_sign);
  cos_out = (vec_f64)((vec_u64)cos_out ^ cos_sign);
}

void fast_pairs(const vec_f64& u1, const vec_f64& u2, vec_f64& cos_half,
                vec_f64& sin_half) noexcept {
  vec_f64 log_u1{};
  log_lanes(u1, log_u1);
  const vec_f64 r2 = -2.0 * log_u1;
  vec_f64 r{};
  for (std::size_t i = 0; i < kLanes; ++i) r[i] = std::sqrt(r2[i]);
  const vec_f64 theta = (2.0 * M_PI) * u2;  // the reference's θ, bit for bit
  vec_f64 sin_theta{}, cos_theta{};
  sincos_lanes(theta, sin_theta, cos_theta);
  cos_half = r * cos_theta;
  sin_half = r * sin_theta;
}

// All-ones in lanes where every double within B·|y| of y rounds to the same
// float as y.
inline void rounds_surely(const vec_f64& y, vec_u32& sure) noexcept {
  const vec_f64 band = kBand * (vec_f64)((vec_u64)y & ~kSignBit);
  const vec_f32 lo = __builtin_convertvector(y - band, vec_f32);
  const vec_f32 hi = __builtin_convertvector(y + band, vec_f32);
  sure = (vec_u32)(lo == hi);
}

}  // namespace

void box_muller_fast(std::span<const double, kNormalLanes> u1,
                     std::span<const double, kNormalLanes> u2,
                     std::span<double, kNormalLanes> cos_half,
                     std::span<double, kNormalLanes> sin_half) noexcept {
  vec_f64 a{}, b{}, c{}, s{};
  std::memcpy(&a, u1.data(), sizeof a);
  std::memcpy(&b, u2.data(), sizeof b);
  fast_pairs(a, b, c, s);
  std::memcpy(cos_half.data(), &c, sizeof c);
  std::memcpy(sin_half.data(), &s, sizeof s);
}

std::size_t add_normal_pairs(std::span<const double, kNormalLanes> u1,
                             std::span<const double, kNormalLanes> u2,
                             std::size_t pairs, double scale,
                             const float* base, float* out) noexcept {
  vec_f64 a{}, b{}, c{}, s{};
  std::memcpy(&a, u1.data(), sizeof a);
  std::memcpy(&b, u2.data(), sizeof b);
  fast_pairs(a, b, c, s);
  const vec_f64 yc = c * scale;
  const vec_f64 ys = s * scale;
  vec_u32 sure_c{}, sure_s{};
  rounds_surely(yc, sure_c);
  rounds_surely(ys, sure_s);
  const vec_u32 sure = sure_c & sure_s;
  const vec_f32 fc = __builtin_convertvector(yc, vec_f32);
  const vec_f32 fs = __builtin_convertvector(ys, vec_f32);

  bool all_sure = pairs == kLanes;
  for (std::size_t p = 0; p < kLanes; ++p) all_sure &= sure[p] != 0;
  if (all_sure) {
    // Interleave to stream order: cos half, sin half, next pair, ...
    const vec_f32x2 noise = __builtin_shufflevector(
        fc, fs, 0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15);
    vec_f32x2 sum{};
    std::memcpy(&sum, base, sizeof sum);
    sum += noise;
    std::memcpy(out, &sum, sizeof sum);
    return 0;
  }
  std::size_t fallbacks = 0;
  for (std::size_t p = 0; p < pairs; ++p) {
    if (sure[p] != 0) {
      out[2 * p] = base[2 * p] + fc[p];
      out[2 * p + 1] = base[2 * p + 1] + fs[p];
      continue;
    }
    ++fallbacks;
    const NormalPair ref = box_muller(u1[p], u2[p]);
    out[2 * p] = base[2 * p] + static_cast<float>(ref.cos_half * scale);
    out[2 * p + 1] = base[2 * p + 1] + static_cast<float>(ref.sin_half * scale);
  }
  return fallbacks;
}

}  // namespace groupfel::runtime::detail
