// KLDG — KL-divergence grouping, ported from SHARE [14].
//
// SHARE shapes the data distribution at each aggregator by minimizing the
// Kullback–Leibler divergence between the aggregator's combined label
// distribution and the global one. Ported to group formation: greedy like
// Algorithm 2, but the criterion is KLD(group || global) and — true to the
// original — the group distribution is recomputed from scratch for every
// candidate evaluation. That yields the O(|K|^4 |Y|) complexity (plus the
// log() calls) the paper measures in Fig. 5.
//
// params.greedy_window > 0 runs the same greedy inside windows of a
// once-shuffled pool through the driver CoVG uses (grouping/windowed.hpp);
// the per-candidate recompute is preserved, so windowed KLDG is O(n w^2 m)
// instead of O(n^3 m) — still the most expensive method, as in the paper.
//
// The candidates are a plain vector that erases each admitted client: one
// admission's scan recomputes the group distribution for every candidate,
// O(n·|g|·m) work plus n·m logs, so the O(n) erase is under 1/(|g|·m) of it.
#include <cmath>
#include <limits>

#include "grouping/windowed.hpp"
#include "util/stats.hpp"

namespace groupfel::grouping {

namespace {
/// KLD(group distribution || global distribution), recomputed from scratch
/// over the member rows (intentionally not incremental; see header comment).
/// `counts` is caller-owned scratch, resized/overwritten here so candidate
/// scans do not allocate per evaluation.
double group_kld(const data::LabelMatrix& matrix,
                 const std::vector<std::size_t>& group,
                 std::size_t extra_client,
                 const std::vector<double>& global_dist,
                 std::vector<double>& counts) {
  counts.assign(matrix.num_labels(), 0.0);
  for (auto c : group) {
    const auto row = matrix.row(c);
    for (std::size_t j = 0; j < counts.size(); ++j)
      counts[j] += static_cast<double>(row[j]);
  }
  const auto row = matrix.row(extra_client);
  for (std::size_t j = 0; j < counts.size(); ++j)
    counts[j] += static_cast<double>(row[j]);
  return util::kl_divergence(counts, global_dist);
}

void greedy_over_pool(const data::LabelMatrix& matrix,
                      const GroupingParams& params, runtime::Rng& rng,
                      const std::vector<double>& global_dist,
                      std::vector<std::size_t> pool, Grouping& groups) {
  std::vector<double> scratch;
  while (!pool.empty()) {
    const std::size_t first_pos = rng.next_below(pool.size());
    std::vector<std::size_t> group{pool[first_pos]};
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(first_pos));

    auto current_kld = [&] {
      scratch.assign(matrix.num_labels(), 0.0);
      for (auto c : group) {
        const auto row = matrix.row(c);
        for (std::size_t j = 0; j < scratch.size(); ++j)
          scratch[j] += static_cast<double>(row[j]);
      }
      return util::kl_divergence(scratch, global_dist);
    };

    while ((current_kld() > params.kld_threshold ||
            group.size() < params.min_group_size) &&
           !pool.empty()) {
      double best = std::numeric_limits<double>::infinity();
      std::size_t best_pos = 0;
      for (std::size_t pos = 0; pos < pool.size(); ++pos) {
        const double kld =
            group_kld(matrix, group, pool[pos], global_dist, scratch);
        if (kld < best) {
          best = kld;
          best_pos = pos;
        }
      }
      if (best < current_kld() || group.size() < params.min_group_size) {
        group.push_back(pool[best_pos]);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best_pos));
      } else {
        break;
      }
    }
    groups.push_back(std::move(group));
  }
}
}  // namespace

Grouping kldg_grouping(const data::LabelMatrix& matrix,
                       const GroupingParams& params, runtime::Rng& rng,
                       runtime::ThreadPool* pool) {
  const auto global_counts = matrix.global_counts();
  std::vector<double> global_dist(global_counts.size());
  for (std::size_t j = 0; j < global_counts.size(); ++j)
    global_dist[j] = static_cast<double>(global_counts[j]);

  return windowed_greedy(
      matrix.num_clients(), params, rng, pool,
      [&](runtime::Rng& wrng, std::vector<std::size_t> clients,
          Grouping& groups) {
        greedy_over_pool(matrix, params, wrng, global_dist,
                         std::move(clients), groups);
      });
}

}  // namespace groupfel::grouping
