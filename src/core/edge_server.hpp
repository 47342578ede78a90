// Edge-server role: owns a set of clients and performs group formation on
// them (Algorithm 1 lines 2-3). Groups are stored with GLOBAL client ids so
// the cloud can address any group's members directly.
#pragma once

#include <vector>

#include "data/label_matrix.hpp"
#include "grouping/grouping.hpp"

namespace groupfel::core {

/// One formed group as the cloud sees it.
struct FormedGroup {
  std::size_t edge_id = 0;
  std::vector<std::size_t> clients;  ///< global client ids
  std::size_t data_count = 0;        ///< n_g
  double cov = 0.0;                  ///< CoV of combined label counts
};

class EdgeServer {
 public:
  EdgeServer(std::size_t id, std::vector<std::size_t> client_ids)
      : id_(id), client_ids_(std::move(client_ids)) {}

  [[nodiscard]] std::size_t id() const noexcept { return id_; }
  [[nodiscard]] const std::vector<std::size_t>& client_ids() const noexcept {
    return client_ids_;
  }

  /// Runs the configured grouping method over this edge's clients.
  /// `global_matrix` is the full label matrix indexed by global client id.
  /// `pool` drives the grouping-internal parallelism (parallel windows,
  /// CDG bucketing); bit-identical for any pool size.
  [[nodiscard]] std::vector<FormedGroup> form_groups(
      const data::LabelMatrix& global_matrix,
      grouping::GroupingMethod method, const grouping::GroupingParams& params,
      runtime::Rng& rng, runtime::ThreadPool* pool = nullptr) const;

 private:
  std::size_t id_;
  std::vector<std::size_t> client_ids_;
};

}  // namespace groupfel::core
