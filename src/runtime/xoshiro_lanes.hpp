#pragma once
// Internal to the lane kernels (runtime/categorical_bulk.cpp,
// runtime/normal_bulk.cpp, data/lazy_shard.cpp): GCC vector-extension types
// one native register wide, and Rng's xoshiro256++ step and next_double()
// conversion on them, bit for bit.
//
// The width follows the ISA the including TU builds for: 8 lanes of 64 bits
// with AVX-512, 4 with AVX, 2 otherwise. A wider generic vector's compares
// are lowered lane by lane to scalar code, so a kernel over more streams
// runs them as register-wide parts. Vectors travel by reference: passing
// one wider than the target's registers by value trips -Wpsabi in portable
// builds.
#include <cstddef>
#include <cstdint>

namespace groupfel::runtime::lanes {

#if defined(__AVX512F__)
constexpr std::size_t kVecBytes = 64;
#elif defined(__AVX__)
constexpr std::size_t kVecBytes = 32;
#else
constexpr std::size_t kVecBytes = 16;
#endif
constexpr std::size_t kWidth = kVecBytes / sizeof(std::uint64_t);
typedef double vec_f64 __attribute__((vector_size(kVecBytes)));
typedef std::int64_t vec_i64 __attribute__((vector_size(kVecBytes)));
typedef std::uint64_t vec_u64 __attribute__((vector_size(kVecBytes)));

// One xoshiro256++ step per lane, as Rng::next_u64(): the state words
// advance in place and x gets each lane's output.
inline void xoshiro_step(vec_u64& s0, vec_u64& s1, vec_u64& s2, vec_u64& s3,
                         vec_u64& x) noexcept {
  const vec_u64 sum = s0 + s3;
  x = ((sum << 23) | (sum >> 41)) + s0;
  const vec_u64 t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = (s3 << 45) | (s3 >> 19);
}

// next_double() of each lane's x: double(x >> 11) * 2^-53, converted
// exactly at every width. The top 52 bits of m = x >> 11 go through the
// 2^52 exponent trick, doubled, plus m's lowest bit as 0.0 or 1.0.
// AVX-512DQ's packed conversion ran the categorical kernel about 10% faster
// on an AVX-512 Xeon but moved fleet_1m's set-up time by less than its
// noise, so there is no second path for it.
inline void unit_doubles(const vec_u64& x, vec_f64& u) noexcept {
  const vec_f64 half =
      (vec_f64)((x >> 12) | 0x4330000000000000ull) - 0x1.0p52;
  const vec_f64 low = (vec_f64)(-((x >> 11) & 1) & 0x3ff0000000000000ull);
  u = ((half + half) + low) * 0x1.0p-53;
}

}  // namespace groupfel::runtime::lanes
