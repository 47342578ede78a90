// Lazy shard materialization: synthesize a client's minibatches on demand.
//
// A LazyShardSource pairs a ClientPopulation descriptor table with the
// synthetic-data spec (and its precomputed class prototypes). A client's
// sample j is fully determined by (spec, client seed, j): the intended class
// comes from the descriptor histogram under the canonical by-label layout,
// and the features/observed label come from an independent per-sample RNG
// stream (data/synthetic.hpp). Nothing is cached — a minibatch costs
// O(batch * sample_dim) compute and writes into the caller-owned Batch
// buffers from the PR-4 zero-alloc pipeline, so the resident footprint of a
// million-client federation is the descriptor table alone.
//
// Bit-identity contract: materialize_population() builds resident
// ClientShards by running the SAME per-sample generators in the same order,
// so the lazy and resident paths produce byte-identical batches (ctest-gated
// by tests/lazy_shard_test.cpp, down to trained parameters in
// LazyTraining.DescriptorResidentBitIdenticalToLazy).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "data/client_descriptor.hpp"
#include "data/dataset.hpp"
#include "data/synthetic.hpp"

namespace groupfel::data {

class LazyShardSource {
 public:
  LazyShardSource() = default;
  LazyShardSource(SyntheticSpec spec, ClientPopulation population);

  [[nodiscard]] const SyntheticSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const ClientPopulation& population() const noexcept {
    return population_;
  }

  [[nodiscard]] std::size_t num_clients() const noexcept {
    return population_.num_clients();
  }
  [[nodiscard]] std::size_t num_classes() const noexcept {
    return spec_.num_classes;
  }
  /// n_c: local sample count of client `c`.
  [[nodiscard]] std::size_t data_count(std::size_t c) const {
    return population_.data_count(c);
  }
  [[nodiscard]] std::size_t sample_size() const noexcept { return dim_; }
  [[nodiscard]] std::span<const std::size_t> sample_shape() const noexcept {
    return spec_.sample_shape;
  }

  /// Synthesizes client `c`'s samples at `local_positions` into a
  /// caller-owned Batch (same storage-reuse contract as
  /// ClientShard::batch_into). Thread-safe: const, no mutable state, every
  /// sample has its own RNG stream.
  void batch_into(std::size_t c, std::span<const std::size_t> local_positions,
                  DataSet::Batch& out) const;

  /// All of client `c`'s samples, in canonical local order.
  [[nodiscard]] DataSet::Batch materialize_client(std::size_t c) const;

 private:
  SyntheticSpec spec_;
  ClientPopulation population_;
  std::vector<float> prototypes_;
  std::size_t dim_ = 0;
};

/// A fully resident federation: one shared DataSet holding every client's
/// samples plus per-client contiguous-range shards.
struct MaterializedPopulation {
  std::shared_ptr<const DataSet> dataset;
  std::vector<ClientShard> shards;
};

/// Materializes the whole population through the same per-sample generators
/// the lazy path uses — the resident half of the lazy-vs-resident A/B
/// toggle. Memory: O(total samples * sample_dim); use only at small scale.
[[nodiscard]] MaterializedPopulation materialize_population(
    const LazyShardSource& source);

}  // namespace groupfel::data
