// The label matrix L from §5.1: L[i][j] = number of samples of label j on
// client i. Grouping algorithms operate exclusively on this matrix — the
// paper stresses that CoV needs "the data label distributions from users...
// without any information of their local data, model, nor gradient".
//
// Storage is one flat row-major table of 32-bit counts (the descriptor
// table's ClientPopulation::Count) under shared ownership. A matrix built
// from a descriptor table IS that table: it aliases the population's counts
// and keeps the population alive, so a million-client L costs no copy.
// Matrices built from shards, flat counts, rows or a submatrix own their
// table. Copies share the table either way; it is never written after
// construction.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "data/client_descriptor.hpp"
#include "data/dataset.hpp"

namespace groupfel::data {

class LabelMatrix {
 public:
  using Count = ClientPopulation::Count;

  LabelMatrix() = default;

  /// rows[i] is client i's per-label sample count.
  LabelMatrix(const std::vector<std::vector<Count>>& rows,
              std::size_t num_labels);

  /// Flat row-major counts: flat[i * num_labels + j] = L[i][j]. A named
  /// factory (not a constructor) so nested-brace row literals in the ctor
  /// above stay unambiguous.
  static LabelMatrix from_flat(std::vector<Count> flat, std::size_t num_labels);

  /// Builds the matrix from client shards (observed labels).
  static LabelMatrix from_shards(std::span<const ClientShard> shards);

  /// The descriptor table's histograms (intended labels) as L, without a
  /// copy: rows alias `population`'s counts, and the matrix shares its
  /// ownership. A caller holding a temporary wraps it with make_shared.
  static LabelMatrix from_population(
      std::shared_ptr<const ClientPopulation> population);

  [[nodiscard]] std::size_t num_clients() const noexcept { return clients_; }
  [[nodiscard]] std::size_t num_labels() const noexcept { return labels_; }

  [[nodiscard]] std::span<const Count> row(std::size_t client) const;

  /// Total samples on a client.
  [[nodiscard]] std::size_t client_total(std::size_t client) const;

  /// Column sums: the global label distribution (unnormalized).
  [[nodiscard]] std::vector<std::size_t> global_counts() const;

  /// Sub-matrix restricted to the given clients (used per edge server).
  [[nodiscard]] LabelMatrix submatrix(std::span<const std::size_t> clients) const;

 private:
  std::shared_ptr<const Count> table_;  ///< [clients_ * labels_], row-major
  std::size_t clients_ = 0;
  std::size_t labels_ = 0;
};

}  // namespace groupfel::data
