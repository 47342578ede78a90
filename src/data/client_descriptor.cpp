#include "data/client_descriptor.hpp"

#include <algorithm>
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
/// per client.
constexpr std::size_t kPartitionBlock = 1024;

/// One client's draws: size, Dirichlet proportions, histogram fill, seed.
void partition_one(ClientPopulation& pop, const PartitionSpec& spec,
                   const runtime::Rng& rng, std::size_t i) {
  // One independent stream per client, keyed by index — the partition is
  // reproducible and is evaluated in any order (or in parallel).
  runtime::Rng crng = rng.fork(i);
  const double draw = crng.normal(spec.size_mean, spec.size_std);
  const auto clamped = std::clamp(
      static_cast<long long>(std::llround(draw)),
      static_cast<long long>(spec.size_min),
      static_cast<long long>(spec.size_max));
  const std::size_t size = static_cast<std::size_t>(clamped);
  pop.set_data_count(i, size);

  const std::vector<double> props =
      crng.dirichlet(spec.alpha, pop.num_classes());
  auto row = pop.label_counts_mutable(i);
  crng.categorical_counts(props, size, row);
  pop.set_seed(i, crng.next_u64());

  std::size_t row_total = 0;
  for (auto c : row) row_total += c;
  GF_CHECK_EQ(row_total, size, "descriptor_partition: client ", i,
              " histogram does not sum to its data count");
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
    for (std::size_t i = i0; i < i1; ++i) partition_one(pop, spec, rng, i);
  };
  if (pool != nullptr && pool->size() > 1 && blocks > 1) {
    pool->parallel_for(blocks, fill_block);
  } else {
    for (std::size_t bi = 0; bi < blocks; ++bi) fill_block(bi);
  }
  return pop;
}

}  // namespace groupfel::data
