#include "grouping/cov.hpp"

#include <cmath>
#include <stdexcept>

namespace groupfel::grouping {

double cov(std::span<const std::size_t> label_counts) {
  if (label_counts.empty()) throw std::invalid_argument("cov: no labels");
  std::size_t total = 0;
  for (auto c : label_counts) total += c;
  if (total == 0) return 0.0;
  const double m = static_cast<double>(label_counts.size());
  const double mu = static_cast<double>(total) / m;
  double s = 0.0;  // sum of squared deviations from the balanced count
  for (auto c : label_counts) {
    const double d = mu - static_cast<double>(c);
    s += d * d;
  }
  return std::sqrt(s / m) / mu;
}

std::vector<std::size_t> group_label_counts(
    const data::LabelMatrix& matrix, std::span<const std::size_t> clients) {
  std::vector<std::size_t> counts(matrix.num_labels(), 0);
  for (auto c : clients) {
    const auto row = matrix.row(c);
    for (std::size_t j = 0; j < counts.size(); ++j) counts[j] += row[j];
  }
  return counts;
}

double group_cov(const data::LabelMatrix& matrix,
                 std::span<const std::size_t> clients) {
  return cov(group_label_counts(matrix, clients));
}

IncrementalCov::IncrementalCov(std::size_t num_labels)
    : counts_(num_labels, 0) {
  if (num_labels == 0) throw std::invalid_argument("IncrementalCov: no labels");
}

void IncrementalCov::add(Row client_counts) {
  if (client_counts.size() != counts_.size())
    throw std::invalid_argument("IncrementalCov::add: label count mismatch");
  for (std::size_t j = 0; j < counts_.size(); ++j) {
    counts_[j] += client_counts[j];
    total_ += client_counts[j];
  }
}

double IncrementalCov::value() const { return cov(counts_); }

double IncrementalCov::value_with(Row client_counts) const {
  if (client_counts.size() != counts_.size())
    throw std::invalid_argument("IncrementalCov::value_with: size mismatch");
  const double m = static_cast<double>(counts_.size());
  double combined_total = 0.0;
  double s = 0.0;
  // Two passes over m entries: total first, then deviations.
  std::size_t total = 0;
  for (std::size_t j = 0; j < counts_.size(); ++j)
    total += counts_[j] + client_counts[j];
  if (total == 0) return 0.0;
  combined_total = static_cast<double>(total);
  const double mu = combined_total / m;
  for (std::size_t j = 0; j < counts_.size(); ++j) {
    const double d = mu - static_cast<double>(counts_[j] + client_counts[j]);
    s += d * d;
  }
  return std::sqrt(s / m) / mu;
}

}  // namespace groupfel::grouping
