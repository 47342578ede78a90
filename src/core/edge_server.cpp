#include "core/edge_server.hpp"

namespace groupfel::core {

std::vector<FormedGroup> EdgeServer::form_groups(
    const data::LabelMatrix& global_matrix, grouping::GroupingMethod method,
    const grouping::GroupingParams& params, runtime::Rng& rng,
    runtime::ThreadPool* pool) const {
  const data::LabelMatrix local = global_matrix.submatrix(client_ids_);
  const grouping::Grouping local_groups =
      grouping::form_groups(method, local, params, rng, pool);
  grouping::validate_partition(local_groups, client_ids_.size());

  std::vector<FormedGroup> out;
  out.reserve(local_groups.size());
  for (const auto& g : local_groups) {
    FormedGroup fg;
    fg.edge_id = id_;
    fg.cov = grouping::group_cov(local, g);
    for (auto local_idx : g) {
      fg.clients.push_back(client_ids_[local_idx]);
      fg.data_count += local.client_total(local_idx);
    }
    out.push_back(std::move(fg));
  }
  return out;
}

}  // namespace groupfel::core
