#include "runtime/rng.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace groupfel::runtime {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace detail {

NormalPair box_muller(double u1, double u2) noexcept {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  return {r * std::cos(theta), r * std::sin(theta)};
}

}  // namespace detail

namespace {
// The draws of one Box–Muller pair, in stream order: u1 (redrawn while it
// would make log(u1) blow up), then u2.
void draw_pair_uniforms(Rng& rng, double& u1, double& u2) noexcept {
  u1 = rng.next_double();
  while (u1 <= 1e-300) u1 = rng.next_double();
  u2 = rng.next_double();
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng Rng::fork(std::uint64_t salt) const noexcept {
  // Mix the current state with the salt through splitmix so sibling forks
  // (salt 0, 1, 2, ...) are decorrelated from each other and the parent.
  std::uint64_t sm = s_[0] ^ detail::rotl(s_[2], 17) ^ (salt * 0x9e3779b97f4a7c15ull);
  Rng child(splitmix64(sm));
  return child;
}

std::uint64_t Rng::next_below(std::uint64_t n) noexcept {
  assert(n > 0);
  // Lemire's nearly-divisionless method with rejection for exact uniformity.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * next_double();
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0, u2 = 0.0;
  draw_pair_uniforms(*this, u1, u2);
  const detail::NormalPair pair = detail::box_muller(u1, u2);
  cached_normal_ = pair.sin_half;
  has_cached_normal_ = true;
  return pair.cos_half;
}

void Rng::add_normals(std::span<const float> base, double scale,
                      std::span<float> out) noexcept {
  assert(base.size() == out.size());
  const std::size_t n = out.size();
  std::size_t d = 0;
  if (n > 0 && has_cached_normal_) {
    out[0] = base[0] + static_cast<float>(normal() * scale);
    d = 1;
  }
  // Lanes past `pairs` in a short last batch keep valid earlier uniforms;
  // their results are discarded.
  std::array<double, detail::kNormalLanes> u1{}, u2{};
  u1.fill(0.5);
  while (n - d >= 2) {
    const std::size_t pairs = std::min(detail::kNormalLanes, (n - d) / 2);
    for (std::size_t p = 0; p < pairs; ++p)
      draw_pair_uniforms(*this, u1[p], u2[p]);
    (void)detail::add_normal_pairs(u1, u2, pairs, scale, base.data() + d,
                                   out.data() + d);
    d += 2 * pairs;
  }
  if (d < n) out[d] = base[d] + static_cast<float>(normal() * scale);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::gamma(double shape) noexcept {
  assert(shape > 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia–Tsang trick).
    const double u = next_double();
    return gamma(shape + 1.0) * std::pow(u > 0 ? u : 1e-300, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = normal();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    const double u = next_double();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

namespace {
// The one Dirichlet body: gamma(alpha_at(i)) for each category in order,
// their left-to-right sum, then each divided by it.
template <typename AlphaAt>
void dirichlet_body(Rng& rng, AlphaAt alpha_at, std::span<double> out) {
  double sum = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = rng.gamma(alpha_at(i));
    sum += out[i];
  }
  if (sum <= 0.0) {
    // Extreme concentration underflow: put all mass on one category.
    std::fill(out.begin(), out.end(), 0.0);
    out[rng.next_below(out.size())] = 1.0;
    return;
  }
  for (double& g : out) g /= sum;
}
}  // namespace

void Rng::dirichlet_into(double alpha, std::span<double> out) noexcept {
  dirichlet_body(*this, [alpha](std::size_t) { return alpha; }, out);
}

void Rng::dirichlet_into(std::span<const double> alpha,
                         std::span<double> out) {
  if (alpha.size() != out.size())
    throw std::invalid_argument("dirichlet_into: alpha/out size mismatch");
  dirichlet_body(*this, [alpha](std::size_t i) { return alpha[i]; }, out);
}

std::vector<double> Rng::dirichlet(double alpha, std::size_t k) {
  std::vector<double> out(k);
  dirichlet_into(alpha, out);
  return out;
}

std::vector<double> Rng::dirichlet(std::span<const double> alpha) {
  std::vector<double> out(alpha.size());
  dirichlet_into(alpha, out);
  return out;
}

double categorical_total(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    if (!(w >= 0.0))
      throw std::invalid_argument("categorical: negative weight");
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument("categorical: zero total weight");
  if (!std::isfinite(total))
    throw std::invalid_argument("categorical: non-finite total weight");
  return total;
}

std::size_t Rng::categorical(std::span<const double> weights) {
  const double total = categorical_total(weights);  // throws before drawing
  double u = next_double() * total;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    u -= weights[i];
    if (u < 0.0) return i;
  }
  return weights.size() - 1;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  if (k > n) throw std::invalid_argument("sample_without_replacement: k > n");
  std::vector<std::size_t> pool(n);
  std::iota(pool.begin(), pool.end(), std::size_t{0});
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + next_below(n - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

}  // namespace groupfel::runtime
