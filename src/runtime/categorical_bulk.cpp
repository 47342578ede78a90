// Bulk categorical kernel: categorical_counts() over up to eight streams.
//
// Each stream owns one lane of GCC vector-extension integers and doubles:
// its xoshiro256++ state words, its total, its draw count and its weights,
// transposed so w[i] holds every lane's i-th weight. One vector step gives
// each lane its stream's next u64, and u = double(x >> 11) * 2^-53 * total
// is next_double() * total, rounded the same way. The vectors are one
// native register wide (8 lanes with AVX-512, 4 with AVX, 2 otherwise; a
// wider generic vector's compares are lowered lane by lane to scalar code),
// so eight streams run as one to four register-wide parts, one after the
// other.
//
// Each lane then runs categorical()'s whole subtraction chain u -= w[i] for
// i < k - 1 instead of stopping at the first negative u, and acc[i] counts
// the draws with u < 0 after step i. With every w >= 0, u - w <= u under
// round-to-nearest, so the chain never increases and stays negative once it
// goes negative: acc[i] counts exactly the draws whose categorical() index
// is <= i. So counts[i] = acc[i] - acc[i - 1] and counts[k - 1] = n -
// acc[k - 2], with no per-draw scatter. Every total is validated through
// categorical_total() before any lane draws, as categorical() validates
// before its draw, so the w >= 0 the argument needs always holds.
//
// Streams with fewer draws drop out under a mask: from step n_l on, lane l's
// state stops advancing and its u is +inf, which no chain step counts.
//
// The lanes must compute exactly categorical()'s products and differences,
// so this TU builds with -ffp-contract=off and never with -ffast-math: an
// FMA fused from next_double() * total - w[0] would round once instead of
// twice. Vectors never cross a function boundary by value (-Wpsabi).
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "runtime/rng.hpp"

namespace groupfel::runtime {

namespace {
#if defined(__AVX512F__)
constexpr std::size_t kVecBytes = 64;
#elif defined(__AVX__)
constexpr std::size_t kVecBytes = 32;
#else
constexpr std::size_t kVecBytes = 16;
#endif
constexpr std::size_t kWidth = kVecBytes / sizeof(double);  // lanes per part
typedef double vec_f64 __attribute__((vector_size(kVecBytes)));
typedef std::int64_t vec_i64 __attribute__((vector_size(kVecBytes)));
typedef std::uint64_t vec_u64 __attribute__((vector_size(kVecBytes)));
static_assert(kCategoricalLanes % kWidth == 0);

// Draws generated per pass over the chain, so each weight and counter
// vector is loaded once per kBlock draws.
constexpr std::size_t kBlock = 8;

using State = std::array<std::uint64_t, 4>;

// Draws the streams of one part (at most kWidth of them) into their counts,
// advancing state[l] in place of part[l].rng's state; totals[l] is
// categorical_total(part[l].weights). w and acc hold chain * kWidth doubles
// and counters of scratch.
void draw_part(std::span<const CategoricalStream> part,
               std::span<const double> totals, std::span<State> state,
               std::size_t chain, double* w, std::int64_t* acc) {
  std::fill(w, w + chain * kWidth, 0.0);
  std::fill(acc, acc + chain * kWidth, std::int64_t{0});

  // Lanes past part.size(), and streams with n = 0, never draw.
  vec_u64 s0{}, s1{}, s2{}, s3{};
  vec_f64 total{}, n{};
  std::size_t steps = 0;
  for (std::size_t l = 0; l < part.size(); ++l) {
    const CategoricalStream& st = part[l];
    for (std::size_t i = 0; i < chain; ++i) w[i * kWidth + l] = st.weights[i];
    if (st.n == 0) continue;
    s0[l] = state[l][0];
    s1[l] = state[l][1];
    s2[l] = state[l][2];
    s3[l] = state[l][3];
    total[l] = totals[l];
    n[l] = static_cast<double>(st.n);  // exact: n < 2^53
    steps = std::max(steps, st.n);
  }

  const vec_f64 inf = vec_f64{} + std::numeric_limits<double>::infinity();
  for (std::size_t t = 0; t < steps; t += kBlock) {
    vec_f64 u[kBlock] = {};
    for (std::size_t b = 0; b < kBlock; ++b) {
      // -1 in the lanes whose stream still draws at step t + b.
      const vec_i64 active = static_cast<double>(t + b) < n;
      const vec_u64 keep = (vec_u64)active;

      // xoshiro256++, as Rng::next_u64(), committed only where `keep`.
      const vec_u64 sum = s0 + s3;
      const vec_u64 x = ((sum << 23) | (sum >> 41)) + s0;
      const vec_u64 shifted = s1 << 17;
      vec_u64 n2 = s2 ^ s0;
      vec_u64 n3 = s3 ^ s1;
      const vec_u64 n1 = s1 ^ n2;
      const vec_u64 n0 = s0 ^ n3;
      n2 ^= shifted;
      n3 = (n3 << 45) | (n3 >> 19);
      s0 = (n0 & keep) | (s0 & ~keep);
      s1 = (n1 & keep) | (s1 & ~keep);
      s2 = (n2 & keep) | (s2 & ~keep);
      s3 = (n3 & keep) | (s3 & ~keep);

      // m = x >> 11 < 2^53 as a double, exactly as next_double() converts
      // it: the top 52 bits of m through the 2^52 exponent trick, doubled,
      // plus m's lowest bit as 0.0 or 1.0. Every step is exact at every
      // width. AVX-512DQ's packed conversion ran this kernel about 10%
      // faster on an AVX-512 Xeon but moved fleet_1m's set-up time by less
      // than its noise, so there is no second path for it.
      const vec_f64 half = (vec_f64)((x >> 12) | 0x4330000000000000ull) -
                           0x1.0p52;
      const vec_u64 low = -((x >> 11) & 1) & 0x3ff0000000000000ull;
      const vec_f64 m = (half + half) + (vec_f64)low;
      const vec_f64 draw = m * 0x1.0p-53 * total;
      u[b] = active ? draw : inf;
    }
    for (std::size_t i = 0; i < chain; ++i) {
      vec_f64 wi{};
      vec_i64 ai{};
      std::memcpy(&wi, w + i * kWidth, sizeof wi);
      std::memcpy(&ai, acc + i * kWidth, sizeof ai);
      for (std::size_t b = 0; b < kBlock; ++b) {
        u[b] -= wi;
        ai -= u[b] < 0.0;  // (u < 0) is -1 where true, 0 where false
      }
      std::memcpy(acc + i * kWidth, &ai, sizeof ai);
    }
  }

  for (std::size_t l = 0; l < part.size(); ++l) {
    const CategoricalStream& st = part[l];
    state[l] = {s0[l], s1[l], s2[l], s3[l]};
    std::int64_t below = 0;  // draws with an index < i
    for (std::size_t i = 0; i < chain; ++i) {
      const std::int64_t upto = acc[i * kWidth + l];
      st.counts[i] += static_cast<std::uint32_t>(upto - below);
      below = upto;
    }
    st.counts[chain] +=
        static_cast<std::uint32_t>(static_cast<std::int64_t>(st.n) - below);
  }
}
}  // namespace

void categorical_counts(std::span<const CategoricalStream> streams) {
  if (streams.size() > kCategoricalLanes)
    throw std::invalid_argument("categorical_counts: more than 8 streams");
  if (streams.empty()) return;
  const std::size_t k = streams[0].weights.size();
  for (const CategoricalStream& st : streams)
    if (k == 0 || st.weights.size() != k || st.counts.size() != k)
      throw std::invalid_argument(
          "categorical_counts: streams need the same nonempty k weights and "
          "counts");
  const std::size_t chain = k - 1;

  // Validate every lane before any draws, as categorical() does.
  std::array<double, kCategoricalLanes> totals{};
  for (std::size_t l = 0; l < streams.size(); ++l)
    totals[l] = categorical_total(streams[l].weights);

  // Transposed weights and counters, kept per thread and grown to the
  // longest chain seen, so the partition's calls allocate nothing.
  thread_local std::vector<double> w;
  thread_local std::vector<std::int64_t> acc;
  if (w.size() < chain * kWidth) {
    w.resize(chain * kWidth);
    acc.resize(chain * kWidth);
  }
  std::array<State, kCategoricalLanes> state{};
  for (std::size_t l = 0; l < streams.size(); ++l)
    if (streams[l].n != 0) state[l] = streams[l].rng->s_;
  for (std::size_t p = 0; p < streams.size(); p += kWidth) {
    const std::size_t lanes = std::min(kWidth, streams.size() - p);
    draw_part(streams.subspan(p, lanes), std::span(totals).subspan(p, lanes),
              std::span(state).subspan(p, lanes), chain, w.data(), acc.data());
  }
  for (std::size_t l = 0; l < streams.size(); ++l)
    if (streams[l].n != 0) streams[l].rng->s_ = state[l];
}

}  // namespace groupfel::runtime
