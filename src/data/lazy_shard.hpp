// Lazy shard materialization: synthesize a client's minibatches on demand.
//
// A LazyShardSource pairs a ClientPopulation descriptor table with the
// synthetic-data spec (and its precomputed class prototypes). A client's
// sample j is fully determined by (spec, client seed, j): the intended class
// comes from the descriptor histogram under the canonical by-label layout,
// and the features/observed label come from an independent per-sample RNG
// stream (data/synthetic.hpp).
//
// materialize_client() is the one synthesis routine. It runs eight
// consecutive samples at a time, one sample stream per vector lane: lane
// seeding, xoshiro draws and the Box–Muller transform
// (runtime::detail::scaled_normal_pairs) all work on lanes, and each sample
// comes out bit-identical to synthesize_sample(), which stays the scalar
// reference and the fallback for the rare u1 = 0 draw.
//
// batch_into() serves minibatches from a one-client memo per thread: the
// first read of a client synthesizes all n_c of its samples, later reads of
// the same client on that thread copy rows. Every training reader (local
// SGD, the traced replay) reads all n_c positions each epoch, so a 1-epoch
// update synthesizes exactly what it reads and a 2-epoch one half of it. The
// memo is keyed by a process-unique source id, assigned at construction and
// never reused, plus the client index, so a new source at a freed address
// never sees a stale client. Its bound is one client per thread: n_c *
// sample_size() floats plus n_c labels, grown to the largest client that
// thread has read (25.6 KB at fleet_1m's 200 x 32, 338 KB at
// round_cnn_secagg's 110 x 768). Otherwise the resident footprint of a
// million-client federation is the descriptor table alone.
//
// Bit-identity contract: materialize_population() builds resident
// ClientShards through the same routine, so the lazy and resident paths
// produce byte-identical batches (ctest-gated by tests/lazy_shard_test.cpp,
// down to trained parameters in
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

  /// Client `c`'s samples at `local_positions` into a caller-owned Batch
  /// (same storage-reuse contract as ClientShard::batch_into), copied from
  /// this thread's memo, which materialize_client() fills when it does not
  /// hold client `c` of this source. Throws std::out_of_range, before any
  /// synthesis, if a position is >= n_c. Thread-safe: the memo is
  /// thread_local and the source is never written.
  void batch_into(std::size_t c, std::span<const std::size_t> local_positions,
                  DataSet::Batch& out) const;

  /// All of client `c`'s samples, in canonical local order, into `features`
  /// (data_count(c) * sample_size() floats) and `labels` (data_count(c)).
  /// Throws std::invalid_argument on any other size.
  void materialize_client(std::size_t c, std::span<float> features,
                          std::span<std::int32_t> labels) const;

  /// All of client `c`'s samples, in canonical local order.
  [[nodiscard]] DataSet::Batch materialize_client(std::size_t c) const;

 private:
  static std::uint64_t next_id() noexcept;

  SyntheticSpec spec_;
  ClientPopulation population_;
  std::vector<float> prototypes_;
  std::size_t dim_ = 0;
  /// Memo key: unique per constructed source; copies share it (and their
  /// samples).
  std::uint64_t id_ = next_id();
};

/// A fully resident federation: one shared DataSet holding every client's
/// samples plus per-client contiguous-range shards.
struct MaterializedPopulation {
  std::shared_ptr<const DataSet> dataset;
  std::vector<ClientShard> shards;
};

/// Materializes the whole population through materialize_client(), the
/// routine the lazy path uses: the descriptor-resident arm. Memory:
/// O(total samples * sample_dim); use only at small scale.
[[nodiscard]] MaterializedPopulation materialize_population(
    const LazyShardSource& source);

}  // namespace groupfel::data
