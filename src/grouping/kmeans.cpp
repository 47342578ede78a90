#include "grouping/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace groupfel::grouping {

namespace {

double sq_dist(const double* a, const double* b, std::size_t dim) {
  double s = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

/// Point-block granularity for every parallel stage. Fixed by n alone, so
/// the work decomposition — and therefore every blocked reduction below —
/// never depends on the pool size. One block reproduces the historical
/// straight-line accumulation order exactly, which keeps small inputs
/// (every existing test) byte-identical to the serial implementation.
constexpr std::size_t kPointBlock = 4096;

/// Runs body(block_index) over ceil(n / kPointBlock) blocks, parallel when
/// a pool with at least one worker is supplied.
template <typename Body>
void for_each_block(std::size_t n, runtime::ThreadPool* pool,
                    const Body& body) {
  const std::size_t blocks = (n + kPointBlock - 1) / kPointBlock;
  if (pool != nullptr && pool->size() > 0 && blocks > 1) {
    pool->parallel_for(blocks, body);
  } else {
    for (std::size_t bi = 0; bi < blocks; ++bi) body(bi);
  }
}

inline std::size_t num_blocks(std::size_t n) {
  return (n + kPointBlock - 1) / kPointBlock;
}

}  // namespace

KMeansResult kmeans(std::span<const double> flat, std::size_t dim,
                    std::size_t k, runtime::Rng& rng, std::size_t max_iters,
                    runtime::ThreadPool* pool) {
  if (dim == 0) throw std::invalid_argument("kmeans: zero dimension");
  if (flat.size() % dim != 0)
    throw std::invalid_argument("kmeans: flat size not row-divisible");
  const std::size_t n = flat.size() / dim;
  if (n == 0) throw std::invalid_argument("kmeans: no points");
  if (k == 0) throw std::invalid_argument("kmeans: k == 0");
  k = std::min(k, n);
  const auto point = [&](std::size_t i) { return flat.data() + i * dim; };
  const std::size_t blocks = num_blocks(n);

  KMeansResult res;
  res.centroids.reserve(k);
  const auto push_centroid = [&](std::size_t i) {
    res.centroids.emplace_back(point(i), point(i) + dim);
  };

  // k-means++ seeding. d2 writes are disjoint per point; the normalizer is
  // a fixed-shape blocked sum combined in block order.
  push_centroid(rng.next_below(n));
  std::vector<double> d2(n, 0.0);
  std::vector<double> block_sums(blocks, 0.0);
  while (res.centroids.size() < k) {
    for_each_block(n, pool, [&](std::size_t bi) {
      const std::size_t i0 = bi * kPointBlock;
      const std::size_t i1 = std::min(n, i0 + kPointBlock);
      double local = 0.0;
      for (std::size_t i = i0; i < i1; ++i) {
        double best = std::numeric_limits<double>::infinity();
        for (const auto& c : res.centroids)
          best = std::min(best, sq_dist(point(i), c.data(), dim));
        d2[i] = best;
        local += best;
      }
      block_sums[bi] = local;
    });
    double total = 0.0;
    for (std::size_t bi = 0; bi < blocks; ++bi) total += block_sums[bi];
    if (total <= 0.0) {
      // All remaining points coincide with centroids; pick arbitrarily.
      push_centroid(rng.next_below(n));
      continue;
    }
    push_centroid(rng.categorical(d2));
  }

  const std::size_t kk = res.centroids.size();
  res.assignment.assign(n, 0);
  // Per-block partials for the centroid recompute: each block accumulates
  // its own k x dim sums and counts, then partials merge in block order —
  // the deterministic fixed-shape tree reduction pattern.
  std::vector<std::vector<double>> block_csums(
      blocks, std::vector<double>(kk * dim, 0.0));
  std::vector<std::vector<std::size_t>> block_counts(
      blocks, std::vector<std::size_t>(kk, 0));
  std::vector<std::uint8_t> block_changed(blocks, 0);

  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    ++res.iterations;
    for_each_block(n, pool, [&](std::size_t bi) {
      const std::size_t i0 = bi * kPointBlock;
      const std::size_t i1 = std::min(n, i0 + kPointBlock);
      std::uint8_t local_changed = 0;
      auto& csums = block_csums[bi];
      auto& counts = block_counts[bi];
      std::fill(csums.begin(), csums.end(), 0.0);
      std::fill(counts.begin(), counts.end(), std::size_t{0});
      for (std::size_t i = i0; i < i1; ++i) {
        double best = std::numeric_limits<double>::infinity();
        std::size_t best_c = 0;
        for (std::size_t c = 0; c < kk; ++c) {
          const double d = sq_dist(point(i), res.centroids[c].data(), dim);
          if (d < best) {
            best = d;
            best_c = c;
          }
        }
        if (res.assignment[i] != best_c) {
          res.assignment[i] = best_c;
          local_changed = 1;
        }
        ++counts[best_c];
        const double* p = point(i);
        for (std::size_t d = 0; d < dim; ++d) csums[best_c * dim + d] += p[d];
      }
      block_changed[bi] = local_changed;
    });
    bool changed = false;
    for (std::size_t bi = 0; bi < blocks; ++bi)
      changed = changed || block_changed[bi] != 0;
    if (!changed && iter > 0) break;

    // Merge per-block partials in block order; empty clusters are reseeded
    // to a random point.
    std::vector<std::vector<double>> sums(kk, std::vector<double>(dim, 0.0));
    std::vector<std::size_t> counts(kk, 0);
    for (std::size_t bi = 0; bi < blocks; ++bi) {
      for (std::size_t c = 0; c < kk; ++c) {
        counts[c] += block_counts[bi][c];
        for (std::size_t d = 0; d < dim; ++d)
          sums[c][d] += block_csums[bi][c * dim + d];
      }
    }
    for (std::size_t c = 0; c < kk; ++c) {
      if (counts[c] == 0) {
        const double* p = point(rng.next_below(n));
        res.centroids[c].assign(p, p + dim);
        continue;
      }
      for (std::size_t d = 0; d < dim; ++d)
        res.centroids[c][d] = sums[c][d] / static_cast<double>(counts[c]);
    }
  }

  for_each_block(n, pool, [&](std::size_t bi) {
    const std::size_t i0 = bi * kPointBlock;
    const std::size_t i1 = std::min(n, i0 + kPointBlock);
    double local = 0.0;
    for (std::size_t i = i0; i < i1; ++i)
      local += sq_dist(point(i), res.centroids[res.assignment[i]].data(), dim);
    block_sums[bi] = local;
  });
  res.inertia = 0.0;
  for (std::size_t bi = 0; bi < blocks; ++bi) res.inertia += block_sums[bi];
  return res;
}

KMeansResult kmeans(const std::vector<std::vector<double>>& points,
                    std::size_t k, runtime::Rng& rng, std::size_t max_iters,
                    runtime::ThreadPool* pool) {
  if (points.empty()) throw std::invalid_argument("kmeans: no points");
  const std::size_t dim = points[0].size();
  std::vector<double> flat;
  flat.reserve(points.size() * dim);
  for (const auto& p : points) {
    if (p.size() != dim) throw std::invalid_argument("kmeans: ragged points");
    flat.insert(flat.end(), p.begin(), p.end());
  }
  return kmeans(flat, dim, k, rng, max_iters, pool);
}

}  // namespace groupfel::grouping
