#include "data/partition.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace groupfel::data {

void validate_partition_spec(const PartitionSpec& spec, const char* who) {
  const auto fail = [who](const char* what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  if (spec.num_clients == 0) fail("zero clients");
  if (spec.size_min == 0 || spec.size_min > spec.size_max)
    fail("bad size bounds");
  if (!(std::isfinite(spec.alpha) && spec.alpha > 0.0))
    fail("alpha must be finite and > 0");
  if (!std::isfinite(spec.size_mean)) fail("size_mean must be finite");
  if (!(std::isfinite(spec.size_std) && spec.size_std >= 0.0))
    fail("size_std must be finite and >= 0");
}

std::vector<ClientShard> dirichlet_partition(
    std::shared_ptr<const DataSet> dataset, const PartitionSpec& spec,
    runtime::Rng& rng) {
  if (!dataset) throw std::invalid_argument("dirichlet_partition: null dataset");
  validate_partition_spec(spec, "dirichlet_partition");

  const std::size_t m = dataset->num_classes();
  auto pools = dataset->label_pools();
  // Shuffle each pool once so sequential pops are random draws.
  for (std::size_t c = 0; c < m; ++c) {
    auto pool_rng = rng.fork(0x706f6f6cull + c);
    pool_rng.shuffle(pools[c]);
  }
  std::size_t remaining_total = dataset->size();

  // Draw all client sizes first so we can validate feasibility up front.
  std::vector<std::size_t> sizes(spec.num_clients);
  std::size_t total_requested = 0;
  for (std::size_t i = 0; i < spec.num_clients; ++i) {
    const double draw = rng.normal(spec.size_mean, spec.size_std);
    const auto clamped = std::clamp(
        static_cast<long long>(std::llround(draw)),
        static_cast<long long>(spec.size_min),
        static_cast<long long>(spec.size_max));
    sizes[i] = static_cast<std::size_t>(clamped);
    total_requested += sizes[i];
  }
  if (total_requested > dataset->size())
    throw std::invalid_argument(
        "dirichlet_partition: dataset too small (" +
        std::to_string(dataset->size()) + " samples for " +
        std::to_string(total_requested) + " requested)");

  std::vector<ClientShard> shards;
  shards.reserve(spec.num_clients);
  for (std::size_t i = 0; i < spec.num_clients; ++i) {
    const std::vector<double> props = rng.dirichlet(spec.alpha, m);
    std::vector<std::size_t> indices;
    indices.reserve(sizes[i]);
    for (std::size_t s = 0; s < sizes[i]; ++s) {
      // Weight labels by Dirichlet proportion, masked by pool availability.
      std::vector<double> weights(m);
      bool any = false;
      for (std::size_t c = 0; c < m; ++c) {
        weights[c] = pools[c].empty() ? 0.0 : props[c];
        any = any || weights[c] > 0.0;
      }
      if (!any) {
        // Requested labels exhausted: fall back to whatever remains so the
        // client still reaches its drawn size.
        for (std::size_t c = 0; c < m; ++c)
          weights[c] = static_cast<double>(pools[c].size());
      }
      const std::size_t c = rng.categorical(weights);
      indices.push_back(pools[c].back());
      pools[c].pop_back();
      --remaining_total;
    }
    shards.emplace_back(dataset, std::move(indices));
  }
  (void)remaining_total;
  return shards;
}

std::vector<std::vector<std::size_t>> assign_to_edges(std::size_t num_clients,
                                                      std::size_t num_edges) {
  if (num_edges == 0) throw std::invalid_argument("assign_to_edges: 0 edges");
  if (num_clients < num_edges)
    throw std::invalid_argument(
        "assign_to_edges: " + std::to_string(num_clients) + " clients for " +
        std::to_string(num_edges) + " edges (an edge would be empty)");
  std::vector<std::vector<std::size_t>> edges(num_edges);
  const std::size_t base = num_clients / num_edges;
  const std::size_t extra = num_clients % num_edges;
  std::size_t next = 0;
  for (std::size_t e = 0; e < num_edges; ++e) {
    const std::size_t count = base + (e < extra ? 1 : 0);
    for (std::size_t i = 0; i < count; ++i) edges[e].push_back(next++);
  }
  return edges;
}

}  // namespace groupfel::data
