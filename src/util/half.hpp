// Half-width floating-point storage types: IEEE 754 binary16 (fp16) and
// bfloat16 (bf16), with the scalar and vectorized conversion routines the
// bf16 GEMM packs and the fp16 wire codec are built on.
//
// This header is the ONLY place in the repository where float bits may be
// reinterpreted as half-width bits or vice versa (scripts/lint.py rule
// `half-bitcast` enforces it). Everything else — kernel packs, the
// compression codecs, tests — goes through these functions, so the rounding
// semantics live in exactly one file:
//
//  * all float -> half conversions round to nearest, ties to even (RNE),
//    matching the hardware converters (VCVTPS2PH, VCVTNEPS2BF16);
//  * NaN payloads are truncated and quieted, never collapsed to infinity;
//  * fp16 overflow saturates to infinity, subnormals round correctly;
//  * conversions are pure integer arithmetic, so every translation unit —
//    with or without -march=native — produces identical bits (determinism:
//    results never depend on which TU did the conversion).
//
// The simd sub-namespace provides the in-register bf16 expand load the
// convert-on-load micro-kernels use (GNU vector extensions). Accumulation is
// always fp32 — half types are a STORAGE format in this codebase, never an
// accumulator.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>

namespace groupfel::util::half {

// ---------------- scalar conversions ----------------

/// float -> bf16 bits, RNE. bf16 is fp32's top half, so rounding is one
/// carry-propagating add; infinities survive and NaNs are quieted.
inline std::uint16_t to_bf16_bits(float f) noexcept {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  if ((u & 0x7fffffffu) > 0x7f800000u)  // NaN: truncate payload, force quiet
    return static_cast<std::uint16_t>((u >> 16) | 0x0040u);
  u += 0x7fffu + ((u >> 16) & 1u);  // RNE bias; may carry into the exponent
  return static_cast<std::uint16_t>(u >> 16);
}

/// bf16 bits -> float (exact: every bf16 value is representable in fp32).
inline float from_bf16_bits(std::uint16_t h) noexcept {
  const std::uint32_t u = static_cast<std::uint32_t>(h) << 16;
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

/// float -> IEEE binary16 bits, RNE, with saturation to infinity and
/// correctly rounded subnormals (software path; bit-identical to VCVTPS2PH
/// with round-to-nearest).
inline std::uint16_t to_fp16_bits(float f) noexcept {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  const auto sign = static_cast<std::uint16_t>((u >> 16) & 0x8000u);
  const std::uint32_t abs = u & 0x7fffffffu;
  if (abs >= 0x7f800000u) {  // inf or NaN
    if (abs > 0x7f800000u)   // NaN: truncated payload, quiet bit forced
      return static_cast<std::uint16_t>(sign | 0x7e00u | ((abs >> 13) & 0x3ffu));
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }
  const std::uint32_t e = abs >> 23;  // fp32 biased exponent
  if (e >= 113) {                     // normal fp16 range (>= 2^-14)
    std::uint32_t he = e - 112;       // fp16 biased exponent
    const std::uint32_t m = abs & 0x7fffffu;
    std::uint32_t r = m + 0x0fffu + ((m >> 13) & 1u);  // RNE at bit 13
    if (r & 0x800000u) {  // mantissa rounded up past 1.0: bump exponent
      r = 0;
      ++he;
    }
    if (he >= 31) return static_cast<std::uint16_t>(sign | 0x7c00u);  // inf
    return static_cast<std::uint16_t>(sign | (he << 10) | (r >> 13));
  }
  if (e < 102) return sign;  // |x| <= 2^-25 ties to even -> signed zero
  // Subnormal: quantize the full 24-bit significand to units of 2^-24.
  const std::uint32_t sig = (abs & 0x7fffffu) | 0x800000u;
  const std::uint32_t shift = 126 - e;  // 14 .. 24
  std::uint32_t q = sig >> shift;
  const std::uint32_t rem = sig & ((1u << shift) - 1u);
  const std::uint32_t halfway = 1u << (shift - 1);
  if (rem > halfway || (rem == halfway && (q & 1u))) ++q;
  // A carry out of q lands exactly on the smallest normal encoding.
  return static_cast<std::uint16_t>(sign | q);
}

/// IEEE binary16 bits -> float (exact).
inline float from_fp16_bits(std::uint16_t h) noexcept {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t e = (h >> 10) & 0x1fu;
  std::uint32_t m = h & 0x3ffu;
  std::uint32_t u;
  if (e == 0) {
    if (m == 0) {
      u = sign;  // signed zero
    } else {     // subnormal: renormalize into fp32
      std::uint32_t shift = 0;
      while (!(m & 0x400u)) {
        m <<= 1;
        ++shift;
      }
      u = sign | ((113u - shift) << 23) | ((m & 0x3ffu) << 13);
    }
  } else if (e == 31) {
    u = sign | 0x7f800000u | (m << 13);  // inf / NaN
  } else {
    u = sign | ((e + 112u) << 23) | (m << 13);
  }
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

/// Round-trips through the half format: the value a reader of half storage
/// observes. The storage-rounding semantics of the bf16 GEMM and the fp16
/// wire codec are defined as exactly these functions per element.
inline float round_bf16(float f) noexcept { return from_bf16_bits(to_bf16_bits(f)); }
inline float round_fp16(float f) noexcept { return from_fp16_bits(to_fp16_bits(f)); }

/// Two vertically adjacent bf16 values packed into one dword, low k first —
/// the VNNI pair-interleaved layout AMX/VDPBF16PS B-tiles use.
inline std::uint32_t pair_bf16(float lo, float hi) noexcept {
  return static_cast<std::uint32_t>(to_bf16_bits(lo)) |
         (static_cast<std::uint32_t>(to_bf16_bits(hi)) << 16);
}

// ---------------- span conversions ----------------
//
// A plain loop over the scalar converter: an integer-only body that the
// autovectorizer lifts to SIMD in the kernel TUs, with bit-identical
// results in every TU.

inline void encode_bf16(std::span<const float> src, std::uint16_t* dst) noexcept {
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = to_bf16_bits(src[i]);
}

}  // namespace groupfel::util::half

// ---------------- SIMD expand load (kernel TUs) ----------------

#if defined(__GNUC__) || defined(__clang__)
#define GROUPFEL_HALF_SIMD 1

// The helper writes through an out-parameter: a 64-byte vector passed or
// returned by value changes the calling convention between ISA levels,
// which -Wpsabi flags in portable (non-native) builds.
namespace groupfel::util::half::simd {

typedef float v16f __attribute__((vector_size(16 * sizeof(float))));
typedef float v16f_u
    __attribute__((vector_size(16 * sizeof(float)), aligned(alignof(float)),
                   may_alias));
typedef std::uint16_t v16u16
    __attribute__((vector_size(16 * sizeof(std::uint16_t)),
                   aligned(alignof(std::uint16_t)), may_alias));
typedef std::uint32_t v16u32
    __attribute__((vector_size(16 * sizeof(std::uint32_t))));

/// 16 bf16 values expanded to fp32 lanes (widen + shift; exact).
inline void expand_bf16(const std::uint16_t* p, v16f& out) noexcept {
  const v16u16 h = *reinterpret_cast<const v16u16*>(p);
  v16u32 w = __builtin_convertvector(h, v16u32);
  w = w << 16;
  std::memcpy(&out, &w, sizeof(out));
}

}  // namespace groupfel::util::half::simd

#endif  // __GNUC__ || __clang__
