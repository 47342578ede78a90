// Deterministic pseudo-random number generation for simulation.
//
// Every stochastic component of the simulator (data synthesis, Dirichlet
// partitioning, group sampling, SGD minibatch shuffling, secure-aggregation
// key material) draws from its own Rng stream derived from a root seed via
// splitmix64, so experiments are reproducible bit-for-bit regardless of
// thread scheduling: each parallel task receives a stream keyed by its
// logical index, never by execution order.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace groupfel::runtime {

/// splitmix64 step; used to derive seeds and to seed xoshiro state. Inline
/// so lane kernels that seed many streams at once can vectorise it.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace detail {

/// One Box–Muller pair: r·cos θ and r·sin θ with r = sqrt(-2 ln u1) and
/// θ = 2π·u2.
struct NormalPair {
  double cos_half = 0.0;
  double sin_half = 0.0;
};

/// The reference pair arithmetic (libm log/sqrt/sin/cos). Rng::normal() and
/// the bulk kernel's per-pair fallback both call it, so it is defined once.
[[nodiscard]] NormalPair box_muller(double u1, double u2) noexcept;

/// Pairs Rng::add_normals draws per scaled_normal_pairs() call.
inline constexpr std::size_t kNormalLanes = 16;

/// The kernel's vector fast path alone, for u1[i] in (0, 1) and u2[i] in
/// [0, 1), all four spans of one length. Relative error against
/// box_muller() is far below the 2^-36 band scaled_normal_pairs() tests;
/// exposed for accuracy tests.
void box_muller_fast(std::span<const double> u1, std::span<const double> u2,
                     std::span<double> cos_half,
                     std::span<double> sin_half) noexcept;

/// halves[2i] = float(box_muller(u1[i], u2[i]).cos_half * scale) and
/// halves[2i + 1] = float(... .sin_half * scale) for every pair i, with
/// u1[i] in (0, 1) and u2[i] in [0, 1), u1 and u2 of one length and halves
/// twice as long. The pairs run through the vector fast path
/// (runtime/normal_bulk.cpp), two native registers at a time; a pair whose
/// fast value is not certain to round to the same float as the reference
/// is recomputed through box_muller(). Returns the number of pairs that
/// took that fallback.
std::size_t scaled_normal_pairs(std::span<const double> u1,
                                std::span<const double> u2, double scale,
                                std::span<float> halves) noexcept;

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace detail

class Rng;

/// Validated total of a categorical weight vector, summed left to right:
/// throws std::invalid_argument if a weight is negative or NaN, or if the
/// total is not finite and > 0. categorical() and categorical_counts() both
/// validate through it.
[[nodiscard]] double categorical_total(std::span<const double> weights);

/// Streams per call of the bulk categorical kernel.
inline constexpr std::size_t kCategoricalLanes = 8;

/// One lane of categorical_counts(): n draws from `rng` over `weights`,
/// added to `counts`.
struct CategoricalStream {
  Rng* rng = nullptr;
  std::span<const double> weights;
  std::size_t n = 0;
  std::span<std::uint32_t> counts;
};

/// The bulk categorical kernel (runtime/categorical_bulk.cpp): for each of
/// up to kCategoricalLanes streams, counts ends exactly where n calls of
/// `++counts[categorical(weights)]` on that stream leave it, and so does the
/// stream (one next_u64() per draw). The streams advance together, one
/// vector lane each; a lane whose n is reached drops out. Throws
/// std::invalid_argument, before any stream draws, unless there are at most
/// kCategoricalLanes streams, all with the same nonempty
/// k = weights.size() = counts.size(), and categorical_total() accepts every
/// stream's weights.
void categorical_counts(std::span<const CategoricalStream> streams);

/// xoshiro256++ generator. Small, fast, passes BigCrush; not cryptographic
/// (the secagg module layers a keyed PRG on top for mask expansion).
class Rng {
 public:
  using result_type = std::uint64_t;
  using State = std::array<std::uint64_t, 4>;

  /// Seeds all 256 bits of state from `seed` via splitmix64: word i is the
  /// (i + 1)-th splitmix64() step from state `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) noexcept;

  /// The xoshiro256++ state words. Lane kernels that advance many streams
  /// at once in vector registers (runtime/categorical_bulk.cpp,
  /// data/lazy_shard.cpp) read a stream's words with state() and hand them
  /// back with set_state(), after which the stream continues exactly. The
  /// cached normal is not part of the words: set_state() keeps it.
  [[nodiscard]] const State& state() const noexcept { return s_; }
  void set_state(const State& s) noexcept { s_ = s; }

  /// Derives an independent child stream; `salt` distinguishes siblings.
  [[nodiscard]] Rng fork(std::uint64_t salt) const noexcept;

  /// One xoshiro256++ step. Inline: the §7.2 partition and the Box–Muller
  /// draws call it hundreds of times per client.
  [[nodiscard]] std::uint64_t next_u64() noexcept {
    const std::uint64_t result = detail::rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = detail::rotl(s_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface so <random> distributions work too.
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ull; }
  result_type operator()() noexcept { return next_u64(); }

  /// Uniform in [0, n). Unbiased via rejection (Lemire's method).
  [[nodiscard]] std::uint64_t next_below(std::uint64_t n) noexcept;

  /// Uniform double in [0, 1): the top 53 bits of next_u64(), times 2^-53.
  [[nodiscard]] double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Standard normal via Box–Muller (cached second value).
  [[nodiscard]] double normal() noexcept;

  /// Normal with mean/stddev.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Bulk Gaussian noise: writes exactly what the loop
  ///   out[d] = base[d] + static_cast<float>(normal() * scale)
  /// writes, and leaves the stream (position and cached half-pair) exactly
  /// where that loop leaves it. Full pairs go through
  /// detail::scaled_normal_pairs(), kNormalLanes at a time; an odd last
  /// value goes through normal(), which caches its sin half. Requires
  /// base.size() == out.size().
  void add_normals(std::span<const float> base, double scale,
                   std::span<float> out) noexcept;

  /// Gamma(shape, 1) via Marsaglia–Tsang; shape > 0.
  [[nodiscard]] double gamma(double shape) noexcept;

  /// Dirichlet(alpha, ..., alpha) over out.size() categories, written into
  /// `out`: one gamma(alpha) per category in order, their left-to-right sum,
  /// then each divided by it. If the sum underflows to 0, all mass goes on
  /// category next_below(k).
  void dirichlet_into(double alpha, std::span<double> out) noexcept;

  /// Dirichlet with per-category concentration alpha[i]. Throws
  /// std::invalid_argument unless alpha.size() == out.size().
  void dirichlet_into(std::span<const double> alpha, std::span<double> out);

  /// dirichlet_into() into a new vector of `k` proportions.
  [[nodiscard]] std::vector<double> dirichlet(double alpha, std::size_t k);

  /// dirichlet_into() with per-category concentration, into a new vector.
  [[nodiscard]] std::vector<double> dirichlet(std::span<const double> alpha);

  /// Draws an index from an (unnormalized, nonnegative) weight vector: for
  /// u = next_double() * categorical_total(weights), the first i < k - 1
  /// whose running u -= weights[i] goes negative, else k - 1.
  [[nodiscard]] std::size_t categorical(std::span<const double> weights);

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = next_below(i);
      std::swap(v[i - 1], v[j]);
    }
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    shuffle(std::span<T>(v));
  }

  /// k distinct indices from [0, n) (partial Fisher–Yates).
  [[nodiscard]] std::vector<std::size_t> sample_without_replacement(
      std::size_t n, std::size_t k);

 private:
  State s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace groupfel::runtime
