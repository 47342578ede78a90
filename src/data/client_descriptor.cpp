#include "data/client_descriptor.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "util/check.hpp"

namespace groupfel::data {

ClientPopulation::ClientPopulation(std::size_t num_clients,
                                   std::size_t num_classes)
    : classes_(num_classes),
      counts_(num_clients * num_classes, 0),
      sizes_(num_clients, 0),
      seeds_(num_clients, 0) {
  if (num_classes == 0)
    throw std::invalid_argument("ClientPopulation: zero classes");
}

std::size_t ClientPopulation::intended_class(std::size_t c,
                                             std::size_t local_index) const {
  const std::span<const Count> row = label_counts(c);
  std::size_t prefix = 0;
  for (std::size_t cls = 0; cls < classes_; ++cls) {
    prefix += row[cls];
    if (local_index < prefix) return cls;
  }
  throw std::out_of_range("ClientPopulation::intended_class: index " +
                          std::to_string(local_index) + " >= client size");
}

std::size_t ClientPopulation::total_samples() const {
  std::size_t total = 0;
  for (auto s : sizes_) total += s;
  return total;
}

namespace {

/// Clients-per-task granularity for the parallel partition. The block
/// decomposition has NO effect on the result (each client's draws come from
/// its own index-keyed stream and write only its own rows); it just keeps
/// task-dispatch overhead negligible next to ~size_mean categorical draws
/// per client. A multiple of runtime::kCategoricalLanes, so every group but
/// the population's last is full.
constexpr std::size_t kPartitionBlock = 1024;

/// Clients [i0, i1), eight at a time: each client forks its stream, draws
/// its size and its Dirichlet proportions (into `props`, k per lane), then
/// one categorical_counts() call fills the group's histogram rows, and each
/// client's next draw is its seed. The draws per stream are exactly those of
/// fork(i), normal(), dirichlet(), `++row[categorical(props)]` x size and
/// next_u64().
void partition_block(ClientPopulation& pop, const PartitionSpec& spec,
                     const runtime::Rng& rng, std::size_t i0, std::size_t i1,
                     std::span<double> props) {
  constexpr std::size_t kLanes = runtime::kCategoricalLanes;
  const std::size_t k = pop.num_classes();
  std::array<runtime::Rng, kLanes> crng;
  std::array<runtime::CategoricalStream, kLanes> lanes;
  for (std::size_t g = i0; g < i1; g += kLanes) {
    const std::size_t group = std::min(kLanes, i1 - g);
    for (std::size_t l = 0; l < group; ++l) {
      const std::size_t i = g + l;
      // One independent stream per client, keyed by index — the partition
      // is reproducible and is evaluated in any order (or in parallel).
      crng[l] = rng.fork(i);
      const double draw = crng[l].normal(spec.size_mean, spec.size_std);
      const auto clamped = std::clamp(
          static_cast<long long>(std::llround(draw)),
          static_cast<long long>(spec.size_min),
          static_cast<long long>(spec.size_max));
      const std::size_t size = static_cast<std::size_t>(clamped);
      pop.set_data_count(i, size);

      const std::span<double> p = props.subspan(l * k, k);
      crng[l].dirichlet_into(spec.alpha, p);
      lanes[l] = {&crng[l], p, size, pop.label_counts_mutable(i)};
    }
    runtime::categorical_counts(std::span(lanes.data(), group));
    for (std::size_t l = 0; l < group; ++l) {
      const std::size_t i = g + l;
      pop.set_seed(i, crng[l].next_u64());
      std::size_t row_total = 0;
      for (auto c : lanes[l].counts) row_total += c;
      GF_CHECK_EQ(row_total, lanes[l].n, "descriptor_partition: client ", i,
                  " histogram does not sum to its data count");
    }
  }
}

}  // namespace

ClientPopulation descriptor_partition(const PartitionSpec& spec,
                                      std::size_t num_classes,
                                      runtime::Rng& rng,
                                      runtime::ThreadPool* pool) {
  validate_partition_spec(spec, "descriptor_partition");

  ClientPopulation pop(spec.num_clients, num_classes);
  const std::size_t blocks =
      (spec.num_clients + kPartitionBlock - 1) / kPartitionBlock;
  const auto fill_block = [&](std::size_t bi) {
    const std::size_t i0 = bi * kPartitionBlock;
    const std::size_t i1 = std::min(spec.num_clients, i0 + kPartitionBlock);
    std::vector<double> props(runtime::kCategoricalLanes * num_classes);
    partition_block(pop, spec, rng, i0, i1, props);
  };
  if (pool != nullptr && pool->size() > 1 && blocks > 1) {
    pool->parallel_for(blocks, fill_block);
  } else {
    for (std::size_t bi = 0; bi < blocks; ++bi) fill_block(bi);
  }
  return pop;
}

}  // namespace groupfel::data
