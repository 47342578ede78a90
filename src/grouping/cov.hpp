// Coefficient-of-variation (CoV) grouping criterion from §5.1.
//
// For a group g with per-label sample counts c_j (j = 1..m) and total n_g,
// the canonical CoV is sigma/mu where mu = n_g/m and
// sigma = sqrt(sum_j (n_g/m - c_j)^2 / m).
//
// The paper's Eq. (27) displays sigma/mu but writes the right-hand side with
// an n_g denominator, sqrt(sum_j (n_g/m - c_j)^2 / n_g), which equals
// CoV * sqrt(n_g/m) exactly: it is scale-DEPENDENT (a single-label group's
// value grows with sqrt(n_g)) and contradicts the paper's own motivation for
// preferring CoV over variance. We therefore use the canonical sigma/mu as
// cov() — its range [0, sqrt(m-1)] matches Fig. 6's axis and Table 1's
// values. See DESIGN.md §3.
#pragma once

#include <span>
#include <vector>

#include "data/label_matrix.hpp"

namespace groupfel::grouping {

/// Canonical CoV = sigma/mu of per-label counts. Returns 0 for an empty
/// group (no data, no skew to measure). Range: [0, sqrt(m-1)].
[[nodiscard]] double cov(std::span<const std::size_t> label_counts);

/// Sums the label-matrix rows of `clients` into one group count vector.
[[nodiscard]] std::vector<std::size_t> group_label_counts(
    const data::LabelMatrix& matrix, std::span<const std::size_t> clients);

/// Convenience: CoV of a set of clients under `matrix`.
[[nodiscard]] double group_cov(const data::LabelMatrix& matrix,
                               std::span<const std::size_t> clients);

/// Incremental CoV evaluation for greedy grouping: maintains the group's
/// running label counts so "CoV if client c joined" is O(m) instead of
/// O(|g| * m). Client rows are the label matrix's 32-bit counts; the group's
/// counts and every sum are size_t.
class IncrementalCov {
 public:
  using Row = std::span<const data::LabelMatrix::Count>;

  explicit IncrementalCov(std::size_t num_labels);

  void add(Row client_counts);

  /// CoV of the current group.
  [[nodiscard]] double value() const;

  /// CoV if `client_counts` were added (group unchanged).
  [[nodiscard]] double value_with(Row client_counts) const;

  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] std::span<const std::size_t> counts() const noexcept {
    return counts_;
  }

 private:
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace groupfel::grouping
