#include "data/label_matrix.hpp"

#include <numeric>
#include <stdexcept>

namespace groupfel::data {

LabelMatrix::LabelMatrix(const std::vector<std::vector<Count>>& rows,
                         std::size_t num_labels) {
  std::vector<Count> flat;
  flat.reserve(rows.size() * num_labels);
  for (const auto& r : rows) {
    if (r.size() != num_labels)
      throw std::invalid_argument("LabelMatrix: ragged rows");
    flat.insert(flat.end(), r.begin(), r.end());
  }
  *this = from_flat(std::move(flat), num_labels);
}

LabelMatrix LabelMatrix::from_flat(std::vector<Count> flat,
                                   std::size_t num_labels) {
  if (num_labels == 0 ? !flat.empty() : flat.size() % num_labels != 0)
    throw std::invalid_argument("LabelMatrix: flat size not row-divisible");
  LabelMatrix m;
  m.clients_ = num_labels == 0 ? 0 : flat.size() / num_labels;
  m.labels_ = num_labels;
  auto owned = std::make_shared<const std::vector<Count>>(std::move(flat));
  m.table_ = std::shared_ptr<const Count>(owned, owned->data());
  return m;
}

LabelMatrix LabelMatrix::from_shards(std::span<const ClientShard> shards) {
  if (shards.empty()) return {};
  const std::size_t m = shards[0].dataset().num_classes();
  std::vector<Count> flat;
  flat.reserve(shards.size() * m);
  // A shard's count is at most its size, and partitions bound sizes by
  // size_max < 2^32 (validate_partition_spec), so every count fits.
  for (const auto& shard : shards)
    for (const std::size_t c : shard.label_counts())
      flat.push_back(static_cast<Count>(c));
  return from_flat(std::move(flat), m);
}

LabelMatrix LabelMatrix::from_population(
    std::shared_ptr<const ClientPopulation> population) {
  if (!population)
    throw std::invalid_argument("LabelMatrix::from_population: no population");
  LabelMatrix m;
  m.clients_ = population->num_clients();
  m.labels_ = population->num_classes();
  const Count* counts = population->flat_counts().data();
  m.table_ = std::shared_ptr<const Count>(std::move(population), counts);
  return m;
}

std::span<const LabelMatrix::Count> LabelMatrix::row(std::size_t client) const {
  if (client >= clients_)
    throw std::out_of_range("LabelMatrix::row: bad client");
  return {table_.get() + client * labels_, labels_};
}

std::size_t LabelMatrix::client_total(std::size_t client) const {
  const auto r = row(client);
  return std::accumulate(r.begin(), r.end(), std::size_t{0});
}

std::vector<std::size_t> LabelMatrix::global_counts() const {
  std::vector<std::size_t> sums(labels_, 0);
  for (std::size_t i = 0; i < clients_; ++i) {
    const auto r = row(i);
    for (std::size_t j = 0; j < labels_; ++j) sums[j] += r[j];
  }
  return sums;
}

LabelMatrix LabelMatrix::submatrix(
    std::span<const std::size_t> clients) const {
  std::vector<Count> flat;
  flat.reserve(clients.size() * labels_);
  for (auto c : clients) {
    const auto r = row(c);
    flat.insert(flat.end(), r.begin(), r.end());
  }
  return from_flat(std::move(flat), labels_);
}

}  // namespace groupfel::data
