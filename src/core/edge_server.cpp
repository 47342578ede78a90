#include "core/edge_server.hpp"

#include <algorithm>
#include <functional>

namespace groupfel::core {

std::vector<std::size_t> group_size_histogram(
    std::span<const FormedGroup> groups, runtime::ThreadPool* pool) {
  // Fixed-shape blocked reduction over integer partials: block max sizes,
  // then per-block histograms, merged in block order. Integer merges are
  // order-free, but keeping the deterministic combine order matches the
  // repo-wide reduction discipline.
  constexpr std::size_t kBlock = 4096;
  const std::size_t n = groups.size();
  const std::size_t blocks = (n + kBlock - 1) / kBlock;
  const auto run_blocks = [&](const std::function<void(std::size_t)>& body) {
    if (pool != nullptr && pool->size() > 0 && blocks > 1) {
      pool->parallel_for(blocks, body);
    } else {
      for (std::size_t bi = 0; bi < blocks; ++bi) body(bi);
    }
  };

  std::vector<std::size_t> block_max(blocks, 0);
  run_blocks([&](std::size_t bi) {
    const std::size_t g0 = bi * kBlock;
    const std::size_t g1 = std::min(n, g0 + kBlock);
    std::size_t mx = 0;
    for (std::size_t g = g0; g < g1; ++g)
      mx = std::max(mx, groups[g].clients.size());
    block_max[bi] = mx;
  });
  std::size_t max_size = 0;
  for (std::size_t bi = 0; bi < blocks; ++bi)
    max_size = std::max(max_size, block_max[bi]);

  std::vector<std::vector<std::size_t>> block_hist(
      blocks, std::vector<std::size_t>(max_size + 1, 0));
  run_blocks([&](std::size_t bi) {
    const std::size_t g0 = bi * kBlock;
    const std::size_t g1 = std::min(n, g0 + kBlock);
    auto& h = block_hist[bi];
    for (std::size_t g = g0; g < g1; ++g) ++h[groups[g].clients.size()];
  });
  std::vector<std::size_t> hist(max_size + 1, 0);
  for (std::size_t bi = 0; bi < blocks; ++bi)
    for (std::size_t s = 0; s <= max_size; ++s) hist[s] += block_hist[bi][s];
  return hist;
}

std::vector<FormedGroup> EdgeServer::form_groups(
    const data::LabelMatrix& global_matrix, grouping::GroupingMethod method,
    const grouping::GroupingParams& params, runtime::Rng& rng,
    runtime::ThreadPool* pool) const {
  const data::LabelMatrix local = global_matrix.submatrix(client_ids_);
  const grouping::Grouping local_groups =
      grouping::form_groups(method, local, params, rng, pool);
  grouping::validate_partition(local_groups, client_ids_.size());

  std::vector<FormedGroup> out;
  out.reserve(local_groups.size());
  for (const auto& g : local_groups) {
    FormedGroup fg;
    fg.edge_id = id_;
    fg.cov = grouping::group_cov(local, g);
    for (auto local_idx : g) {
      fg.clients.push_back(client_ids_[local_idx]);
      fg.data_count += local.client_total(local_idx);
    }
    out.push_back(std::move(fg));
  }
  return out;
}

}  // namespace groupfel::core
