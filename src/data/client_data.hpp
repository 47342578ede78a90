// Client data access for the trainer, independent of residency.
//
// ClientDataRef is a non-owning view of ONE client's training data that
// dispatches (without virtual calls) to either a resident ClientShard or a
// LazyShardSource that synthesizes batches on demand. The local update
// rules (algorithms/) take ClientDataRef, so the same SGD loop trains a
// 64-client resident federation and a million-client lazy one.
//
// ClientDataStore is the federation-wide container behind
// FederationTopology: either a vector of resident shards (the legacy pool
// path and the descriptor-resident A/B arm) or a shared LazyShardSource
// (O(bytes) per client).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "data/client_descriptor.hpp"
#include "data/dataset.hpp"
#include "data/label_matrix.hpp"
#include "data/lazy_shard.hpp"

namespace groupfel::data {

class ClientDataRef {
 public:
  /// Implicit: existing call sites that hold a ClientShard keep working.
  ClientDataRef(const ClientShard& shard)  // NOLINT(runtime/explicit)
      : shard_(&shard) {}
  ClientDataRef(const LazyShardSource& source, std::size_t client)
      : lazy_(&source), client_(client) {}

  /// Local sample count n_c.
  [[nodiscard]] std::size_t size() const {
    return shard_ ? shard_->size() : lazy_->data_count(client_);
  }

  /// Materializes local positions into a caller-owned Batch (zero-alloc
  /// steady state; bit-identical across residency for descriptor-built
  /// federations).
  void batch_into(std::span<const std::size_t> local_positions,
                  DataSet::Batch& out) const {
    if (shard_)
      shard_->batch_into(local_positions, out);
    else
      lazy_->batch_into(client_, local_positions, out);
  }

  /// Allocating form (legacy reuse_batch_buffers=false path).
  [[nodiscard]] DataSet::Batch batch(
      std::span<const std::size_t> local_positions) const {
    DataSet::Batch out;
    batch_into(local_positions, out);
    return out;
  }

 private:
  const ClientShard* shard_ = nullptr;
  const LazyShardSource* lazy_ = nullptr;
  std::size_t client_ = 0;
};

class ClientDataStore {
 public:
  ClientDataStore() = default;

  /// Legacy pool path: resident shards carved from one shared dataset. The
  /// label matrix is computed from observed shard labels (byte-identical to
  /// the pre-descriptor behavior).
  [[nodiscard]] static ClientDataStore resident(
      std::vector<ClientShard> shards);

  /// Descriptor-resident A/B arm: resident shards materialized from a
  /// descriptor population. The label matrix comes from the population
  /// histograms (intended labels) so grouping matches the lazy arm exactly.
  [[nodiscard]] static ClientDataStore resident(
      std::vector<ClientShard> shards, ClientPopulation population);

  /// O(bytes)-per-client arm: batches synthesized on demand.
  [[nodiscard]] static ClientDataStore lazy(
      std::shared_ptr<const LazyShardSource> source);

  [[nodiscard]] std::size_t num_clients() const noexcept {
    return lazy_ ? lazy_->num_clients() : shards_.size();
  }
  [[nodiscard]] bool is_lazy() const noexcept { return lazy_ != nullptr; }

  /// View of one client's data, whatever the residency.
  [[nodiscard]] ClientDataRef client(std::size_t c) const {
    if (lazy_) return {*lazy_, c};
    return {shards_.at(c)};
  }

  /// n_c without materializing anything.
  [[nodiscard]] std::size_t data_count(std::size_t c) const {
    return lazy_ ? lazy_->data_count(c) : shards_.at(c).size();
  }

  /// Resident shards; empty in lazy mode (benches that inspect shard
  /// internals must check is_lazy()).
  [[nodiscard]] const std::vector<ClientShard>& shards() const noexcept {
    return shards_;
  }
  [[nodiscard]] const LazyShardSource* lazy_source() const noexcept {
    return lazy_.get();
  }
  /// Descriptor table when this store was built from one (either arm).
  [[nodiscard]] const ClientPopulation* population() const noexcept;

  /// The §5.1 label matrix L for grouping: population histograms when a
  /// descriptor table is present, observed shard labels otherwise. `pool`
  /// parallelizes the descriptor-table copy (bit-identical for any pool).
  [[nodiscard]] LabelMatrix label_matrix(
      runtime::ThreadPool* pool = nullptr) const;

  /// Approximate resident bytes held by this store's client data (feature
  /// tensors + index lists for resident shards; descriptor table when
  /// lazy). LazyTraining.HundredThousandClientsUnderTenthOfNaiveMemory
  /// bounds it at 100k clients.
  [[nodiscard]] std::size_t resident_bytes() const;

 private:
  std::vector<ClientShard> shards_;
  std::shared_ptr<const LazyShardSource> lazy_;
  std::optional<ClientPopulation> population_;
};

}  // namespace groupfel::data
