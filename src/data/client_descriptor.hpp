// O(bytes)-per-client federation state for fleet-scale simulation.
//
// A ClientPopulation is a structure-of-arrays descriptor table: per client it
// stores only the label histogram, the data count, and an RNG seed — the
// state a real federation's coordinator would actually hold (the paper's
// grouping and sampling machinery needs exactly the label distributions,
// §5.1). Training data is NEVER resident here; batches are synthesized on
// demand from the deterministic per-sample generators (data/lazy_shard.hpp),
// so an ExperimentSpec scales to 10^6 clients at ~10^2 bytes each instead of
// holding 10^6 shards (the dict-of-resident-clients layout this replaces
// costs sample_dim * 4 bytes per sample, a ~1000x difference).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/partition.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"

namespace groupfel::data {

/// SoA descriptor table: one row of label counts, one size, and one seed per
/// client. Counts are 32-bit: validate_partition_spec bounds size_max, and
/// so every count, by 2^32 - 1. The flat layout avoids the per-client heap
/// vector that makes a million `std::vector` rows cost an extra allocation
/// + 24 bytes each.
class ClientPopulation {
 public:
  using Count = std::uint32_t;

  ClientPopulation() = default;
  ClientPopulation(std::size_t num_clients, std::size_t num_classes);

  [[nodiscard]] std::size_t num_clients() const noexcept {
    return sizes_.size();
  }
  [[nodiscard]] std::size_t num_classes() const noexcept { return classes_; }

  /// Client `c`'s label histogram (row L_c of the label matrix).
  [[nodiscard]] std::span<const Count> label_counts(std::size_t c) const {
    return {counts_.data() + c * classes_, classes_};
  }
  [[nodiscard]] std::span<Count> label_counts_mutable(std::size_t c) {
    return {counts_.data() + c * classes_, classes_};
  }
  /// Every client's histogram, row-major: the label matrix L itself.
  [[nodiscard]] std::span<const Count> flat_counts() const noexcept {
    return counts_;
  }

  /// n_c: total samples on client `c`.
  [[nodiscard]] std::size_t data_count(std::size_t c) const {
    return sizes_[c];
  }
  void set_data_count(std::size_t c, std::size_t n) {
    sizes_[c] = static_cast<std::uint32_t>(n);
  }

  /// Root of client `c`'s per-sample synthesis streams.
  [[nodiscard]] std::uint64_t seed(std::size_t c) const { return seeds_[c]; }
  void set_seed(std::size_t c, std::uint64_t s) { seeds_[c] = s; }

  /// Intended class of client `c`'s local sample `j` under the canonical
  /// layout: samples are ordered by ascending label, so positions
  /// [0, counts[0]) are class 0, the next counts[1] class 1, and so on.
  /// O(num_classes). Label noise may still reroll the OBSERVED label at
  /// synthesis time; this is the class the features are drawn from.
  [[nodiscard]] std::size_t intended_class(std::size_t c,
                                           std::size_t local_index) const;

  /// Sum of all clients' data counts.
  [[nodiscard]] std::size_t total_samples() const;

  /// Descriptor footprint per client (histogram + size + seed), in bytes.
  [[nodiscard]] std::size_t bytes_per_client() const noexcept {
    return classes_ * sizeof(Count) + sizeof(std::uint32_t) +
           sizeof(std::uint64_t);
  }

 private:
  std::size_t classes_ = 0;
  std::vector<Count> counts_;          ///< [num_clients * num_classes]
  std::vector<std::uint32_t> sizes_;   ///< n_c per client
  std::vector<std::uint64_t> seeds_;   ///< synthesis seed per client
};

/// Streaming Dirichlet partition into descriptors — the paper's §7.2
/// protocol (per-label proportions ~ Dirichlet(alpha), sample count ~
/// clamped normal) drawn client by client with O(num_classes) working state
/// and NO global sample pools. Each client's draws come from an independent
/// stream forked by client index, so the result is deterministic in `rng`
/// and identical regardless of evaluation order. Unlike the pool-based
/// dirichlet_partition, label counts are multinomial draws from the
/// client's own proportions (with replacement across clients): there is no
/// shared-pool exhaustion coupling, which is what lets a 10^6-client
/// partition run without materializing 10^8 sample indices.
///
/// `pool` shards the client loop over parallel blocks; the per-client
/// streams are forked by index from `rng` (fork is const — the parent never
/// advances), so the result is bit-identical for any pool size including
/// nullptr (serial).
[[nodiscard]] ClientPopulation descriptor_partition(
    const PartitionSpec& spec, std::size_t num_classes, runtime::Rng& rng,
    runtime::ThreadPool* pool = nullptr);

}  // namespace groupfel::data
