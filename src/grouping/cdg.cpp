// CDG — clustering-then-distribution grouping, ported from OUEA [13].
//
// OUEA first clusters clients with similar label distributions, then deals
// the members of each cluster across groups so that every group receives a
// mix of client types and its combined distribution tends toward IID.
// OUEA does not control group size; as the paper does in §7, we port it to
// group formation by targeting floor(N / MinGS) groups.
//
// The feature build, the k-means inner loops, and the cluster bucketing all
// shard over the caller's ThreadPool; the bucketing is a two-phase counting
// sort over fixed point blocks whose per-(block, cluster) offsets are
// precomputed, so members land in ascending-index order within each cluster
// — exactly the order the historical push_back gather produced. The result
// is byte-identical for any pool size including nullptr (serial).
#include <algorithm>
#include <functional>

#include "grouping/grouping.hpp"
#include "grouping/kmeans.hpp"

namespace groupfel::grouping {

namespace {
constexpr std::size_t kClientBlock = 4096;
}  // namespace

Grouping cdg_grouping(const data::LabelMatrix& matrix,
                      const GroupingParams& params, runtime::Rng& rng,
                      runtime::ThreadPool* pool) {
  const std::size_t n = matrix.num_clients();
  const std::size_t gs = std::max<std::size_t>(1, params.min_group_size);
  const std::size_t num_groups = std::max<std::size_t>(1, n / gs);
  const std::size_t blocks = (n + kClientBlock - 1) / kClientBlock;
  const auto for_each_block = [&](const std::function<void(std::size_t)>& body) {
    if (pool != nullptr && pool->size() > 0 && blocks > 1) {
      pool->parallel_for(blocks, body);
    } else {
      for (std::size_t bi = 0; bi < blocks; ++bi) body(bi);
    }
  };

  // Normalized label distributions as clustering features, in the flat
  // row-major layout: one allocation for the whole federation instead of a
  // heap vector per client. Rows are disjoint, so blocking is exact.
  const std::size_t m = matrix.num_labels();
  std::vector<double> points(n * m);
  for_each_block([&](std::size_t bi) {
    const std::size_t i0 = bi * kClientBlock;
    const std::size_t i1 = std::min(n, i0 + kClientBlock);
    for (std::size_t i = i0; i < i1; ++i) {
      const auto row = matrix.row(i);
      const double total = static_cast<double>(matrix.client_total(i));
      for (std::size_t j = 0; j < m; ++j)
        points[i * m + j] =
            total > 0 ? static_cast<double>(row[j]) / total : 0.0;
    }
  });

  // One cluster per label.
  const KMeansResult km = kmeans(points, m, m, rng, 100, pool);
  const std::size_t kk = km.centroids.size();

  // Bucket members by cluster into ONE flat array via a two-phase counting
  // sort. Phase 1: per-(block, cluster) counts. Phase 2: exact write
  // offsets per (block, cluster), then a parallel scatter — each block
  // writes its members in ascending index order at its precomputed offset,
  // so cluster spans hold members in ascending order regardless of pool
  // size.
  std::vector<std::vector<std::size_t>> block_counts(
      blocks, std::vector<std::size_t>(kk, 0));
  for_each_block([&](std::size_t bi) {
    const std::size_t i0 = bi * kClientBlock;
    const std::size_t i1 = std::min(n, i0 + kClientBlock);
    auto& counts = block_counts[bi];
    for (std::size_t i = i0; i < i1; ++i) ++counts[km.assignment[i]];
  });
  // cluster_offsets[c]: start of cluster c's span; write_offsets[bi][c]:
  // where block bi's members of cluster c go.
  std::vector<std::size_t> cluster_offsets(kk + 1, 0);
  std::vector<std::vector<std::size_t>> write_offsets(
      blocks, std::vector<std::size_t>(kk, 0));
  for (std::size_t c = 0; c < kk; ++c) {
    std::size_t cursor = cluster_offsets[c];
    for (std::size_t bi = 0; bi < blocks; ++bi) {
      write_offsets[bi][c] = cursor;
      cursor += block_counts[bi][c];
    }
    cluster_offsets[c + 1] = cursor;
  }
  std::vector<std::size_t> bucketed(n);
  for_each_block([&](std::size_t bi) {
    const std::size_t i0 = bi * kClientBlock;
    const std::size_t i1 = std::min(n, i0 + kClientBlock);
    auto& cursors = write_offsets[bi];
    for (std::size_t i = i0; i < i1; ++i)
      bucketed[cursors[km.assignment[i]]++] = i;
  });

  // Shuffle within each cluster so the deal is unbiased. One RNG threads
  // the clusters in index order — the same draw sequence as the historical
  // per-cluster vector shuffles, hence byte-identical groups.
  for (std::size_t c = 0; c < kk; ++c) {
    rng.shuffle(std::span<std::size_t>(
        bucketed.data() + cluster_offsets[c],
        cluster_offsets[c + 1] - cluster_offsets[c]));
  }

  // Deal round-robin: consecutive members of the same cluster land in
  // different groups, so each group samples all client types.
  Grouping groups(num_groups);
  for (std::size_t cursor = 0; cursor < n; ++cursor)
    groups[cursor % num_groups].push_back(bucketed[cursor]);

  // Drop empty groups (possible when n < num_groups).
  groups.erase(std::remove_if(groups.begin(), groups.end(),
                              [](const auto& g) { return g.empty(); }),
               groups.end());
  return groups;
}

}  // namespace groupfel::grouping
