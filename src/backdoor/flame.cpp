#include "backdoor/flame.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace groupfel::backdoor {

namespace {
double l2(std::span<const float> v) {
  double s = 0.0;
  for (float x : v) s += static_cast<double>(x) * static_cast<double>(x);
  return std::sqrt(s);
}

/// 1-D 2-means (exact enough at this scale): initialized at min/max, Lloyd
/// iterations until stable. Returns per-point cluster and both centroids.
struct TwoMeans {
  std::vector<int> assign;
  double c0 = 0.0, c1 = 0.0;  // c0 <= c1
};

TwoMeans two_means_1d(const std::vector<double>& xs) {
  TwoMeans tm;
  tm.assign.assign(xs.size(), 0);
  const auto [mn, mx] = std::minmax_element(xs.begin(), xs.end());
  tm.c0 = *mn;
  tm.c1 = *mx;
  if (tm.c0 == tm.c1) return tm;  // all identical -> single cluster
  for (int iter = 0; iter < 50; ++iter) {
    bool changed = false;
    double s0 = 0.0, s1 = 0.0;
    std::size_t n0 = 0, n1 = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const int a = std::abs(xs[i] - tm.c0) <= std::abs(xs[i] - tm.c1) ? 0 : 1;
      if (a != tm.assign[i]) {
        tm.assign[i] = a;
        changed = true;
      }
      if (a == 0) {
        s0 += xs[i];
        ++n0;
      } else {
        s1 += xs[i];
        ++n1;
      }
    }
    if (n0) tm.c0 = s0 / static_cast<double>(n0);
    if (n1) tm.c1 = s1 / static_cast<double>(n1);
    if (!changed) break;
  }
  return tm;
}
}  // namespace

FlameResult flame_filter(const std::vector<std::vector<float>>& updates,
                         const FlameConfig& config, runtime::Rng& rng) {
  const std::size_t n = updates.size();
  if (n == 0) throw std::invalid_argument("flame_filter: no updates");
  const std::size_t dim = updates[0].size();
  for (const auto& u : updates)
    if (u.size() != dim)
      throw std::invalid_argument("flame_filter: ragged updates");

  FlameResult res;
  res.accepted.assign(n, true);

  if (n >= 3) {
    // Step 1+2: mean cosine distance profile, then 1-D 2-means.
    const auto dist = pairwise_cosine_distance(updates);
    std::vector<double> mean_dist(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < n; ++j)
        if (j != i) s += dist[i][j];
      mean_dist[i] = s / static_cast<double>(n - 1);
    }
    const TwoMeans tm = two_means_1d(mean_dist);
    if (tm.c1 - tm.c0 > config.separation_threshold) {
      // Reject the far-from-crowd cluster unless it is the majority (the
      // benign-majority assumption of FLAME).
      std::size_t far_count = 0;
      for (int a : tm.assign) far_count += (a == 1);
      if (far_count * 2 < n) {
        for (std::size_t i = 0; i < n; ++i)
          if (tm.assign[i] == 1) {
            res.accepted[i] = false;
            ++res.num_rejected;
          }
      }
    }
  }

  // Step 3: median-norm clipping over accepted updates.
  std::vector<double> norms;
  for (std::size_t i = 0; i < n; ++i)
    if (res.accepted[i]) norms.push_back(l2(updates[i]));
  std::sort(norms.begin(), norms.end());
  res.clip_norm = norms.empty() ? 0.0 : norms[norms.size() / 2];

  res.aggregated.assign(dim, 0.0f);
  std::size_t accepted_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!res.accepted[i]) continue;
    ++accepted_count;
    const double norm = l2(updates[i]);
    const double scale =
        (norm > res.clip_norm && norm > 0.0) ? res.clip_norm / norm : 1.0;
    for (std::size_t k = 0; k < dim; ++k)
      res.aggregated[k] +=
          static_cast<float>(static_cast<double>(updates[i][k]) * scale);
  }
  if (accepted_count > 0) {
    const float inv = 1.0f / static_cast<float>(accepted_count);
    for (auto& v : res.aggregated) v *= inv;
  }

  // Step 4: DP-style noise.
  if (config.noise_factor > 0.0 && res.clip_norm > 0.0) {
    const double sigma = config.noise_factor * res.clip_norm /
                         std::sqrt(static_cast<double>(dim));
    for (auto& v : res.aggregated)
      v += static_cast<float>(rng.normal(0.0, sigma));
  }
  return res;
}

}  // namespace groupfel::backdoor
