#include "data/client_data.hpp"

#include <unordered_set>

namespace groupfel::data {

ClientDataStore ClientDataStore::resident(std::vector<ClientShard> shards) {
  ClientDataStore store;
  store.shards_ = std::move(shards);
  return store;
}

ClientDataStore ClientDataStore::resident(std::vector<ClientShard> shards,
                                          ClientPopulation population) {
  ClientDataStore store;
  store.shards_ = std::move(shards);
  store.population_ =
      std::make_shared<const ClientPopulation>(std::move(population));
  return store;
}

ClientDataStore ClientDataStore::lazy(
    std::shared_ptr<const LazyShardSource> source) {
  ClientDataStore store;
  store.lazy_ = std::move(source);
  return store;
}

const ClientPopulation* ClientDataStore::population() const noexcept {
  if (lazy_) return &lazy_->population();
  return population_.get();
}

LabelMatrix ClientDataStore::label_matrix(
    runtime::ThreadPool* /*pool*/) const {
  if (lazy_)
    return LabelMatrix::from_population(
        std::shared_ptr<const ClientPopulation>(lazy_, &lazy_->population()));
  if (population_) return LabelMatrix::from_population(population_);
  return LabelMatrix::from_shards(shards_);
}

std::size_t ClientDataStore::resident_bytes() const {
  std::size_t bytes = 0;
  if (lazy_) {
    const ClientPopulation& pop = lazy_->population();
    bytes += pop.num_clients() * pop.bytes_per_client();
    bytes += lazy_->sample_size() * lazy_->num_classes() *
             lazy_->spec().modes_per_class * sizeof(float);  // prototypes
    return bytes;
  }
  // Shards share datasets; count each backing tensor once.
  std::unordered_set<const DataSet*> seen;
  for (const auto& shard : shards_) {
    bytes += shard.indices().size() * sizeof(std::size_t);
    const DataSet* ds = &shard.dataset();
    if (seen.insert(ds).second)
      bytes += ds->features().size() * sizeof(float) +
               ds->labels().size() * sizeof(std::int32_t);
  }
  if (population_)
    bytes += population_->num_clients() * population_->bytes_per_client();
  return bytes;
}

}  // namespace groupfel::data
