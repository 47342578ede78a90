// Bulk categorical kernel behind Rng::categorical_counts.
//
// Eight draws per batch, one per lane of GCC vector-extension doubles. Each
// lane runs categorical()'s whole subtraction chain u -= w[i] for
// i < k - 1 instead of stopping at the first negative u, and counts the
// steps that end with !(u < 0). With every w >= 0, u - w <= u under
// round-to-nearest, so the chain never increases and stays negative once it
// goes negative: those steps form a prefix, and their count is the first
// index with u < 0 (k - 1 when there is none) — categorical()'s answer. A
// NaN u is never < 0 and so lands on k - 1, as it does there.
//
// The lanes must compute exactly categorical()'s differences, so this TU
// builds with -ffp-contract=off and never with -ffast-math: an FMA fused
// from next_double() * total - w[0] would round once instead of twice.
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "runtime/rng.hpp"

namespace groupfel::runtime {

namespace detail {

namespace {
constexpr std::size_t kLanes = kCategoricalLanes;
typedef double vec_f64 __attribute__((vector_size(kLanes * sizeof(double))));
typedef std::int64_t vec_i64
    __attribute__((vector_size(kLanes * sizeof(std::int64_t))));
}  // namespace

void add_categorical_lanes(std::span<const double, kCategoricalLanes> u,
                           std::span<const double> weights,
                           std::span<std::uint32_t> counts) noexcept {
  vec_f64 lane_u{};
  std::memcpy(&lane_u, u.data(), sizeof lane_u);
  vec_i64 index{};
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    lane_u -= weights[i];
    index += (lane_u < 0.0) + 1;  // (u < 0) is -1 where true, 0 where false
  }
  for (std::size_t l = 0; l < kLanes; ++l)
    ++counts[static_cast<std::size_t>(index[l])];
}

}  // namespace detail

void Rng::categorical_counts(std::span<const double> weights, std::size_t n,
                             std::span<std::uint32_t> counts) {
  if (counts.size() != weights.size())
    throw std::invalid_argument("categorical_counts: counts size mismatch");
  const double total = detail::categorical_total(weights);
  std::array<double, detail::kCategoricalLanes> u{};
  std::size_t d = 0;
  for (; n - d >= u.size(); d += u.size()) {
    for (double& v : u) v = next_double() * total;
    detail::add_categorical_lanes(u, weights, counts);
  }
  for (; d < n; ++d)
    ++counts[detail::categorical_index(next_double() * total, weights)];
}

}  // namespace groupfel::runtime
