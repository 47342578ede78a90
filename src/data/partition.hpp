// Non-IID client partitioning following the paper's protocol (§7.2):
// each client's per-label proportions are drawn from Dirichlet(alpha)
// (Hsu et al. [36]) and its sample count from a clamped normal
// distribution (20..200 in the paper's CIFAR setup).
#pragma once

#include <memory>
#include <vector>

#include "data/dataset.hpp"
#include "runtime/rng.hpp"

namespace groupfel::data {

struct PartitionSpec {
  std::size_t num_clients = 300;
  double alpha = 0.5;        ///< Dirichlet concentration; smaller = more skew
  double size_mean = 110.0;  ///< client sample count ~ N(mean, std)
  double size_std = 45.0;
  std::size_t size_min = 20;
  std::size_t size_max = 200;
};

/// Throws std::invalid_argument, prefixed with `who` and naming the field,
/// unless the spec has clients, 0 < size_min <= size_max, a finite alpha
/// > 0, a finite size_mean and a finite size_std >= 0. Both partitioners
/// call it first: a NaN or infinite alpha would otherwise yield NaN
/// Dirichlet proportions.
void validate_partition_spec(const PartitionSpec& spec, const char* who);

/// Splits `dataset` into per-client shards. Sampling is without replacement
/// from per-label pools; when a requested label pool is exhausted the draw
/// falls back to the remaining pools (proportional to remaining size), so
/// every produced index is unique and the partition is always feasible as
/// long as the dataset has enough samples in total. Throws otherwise.
[[nodiscard]] std::vector<ClientShard> dirichlet_partition(
    std::shared_ptr<const DataSet> dataset, const PartitionSpec& spec,
    runtime::Rng& rng);

/// Assigns clients to edge servers contiguously (paper: 3 edges x 100
/// clients). Returns per-edge client-index lists. Throws
/// std::invalid_argument when an edge would get no client (num_edges == 0
/// or num_clients < num_edges).
[[nodiscard]] std::vector<std::vector<std::size_t>> assign_to_edges(
    std::size_t num_clients, std::size_t num_edges);

}  // namespace groupfel::data
