#include "core/cloud.hpp"

#include "util/check.hpp"

namespace groupfel::core {

void Cloud::set_groups(std::vector<FormedGroup> groups,
                       runtime::ThreadPool* pool) {
  groups_ = std::move(groups);
  GF_CHECK(!groups_.empty(), "Cloud: no groups");
  std::vector<double> covs;
  covs.reserve(groups_.size());
  group_sizes_.clear();
  for (const auto& g : groups_) {
    covs.push_back(g.cov);
    group_sizes_.push_back(g.data_count);
  }
  // Blocked Eq. 34: per-block Kahan partials combined in block order,
  // reusing p_'s storage across regroupings; bit-identical for any pool.
  sampling::sampling_probabilities_into(sampling_, covs, p_,
                                        sampling::kDefaultCovFloor, pool);
}

std::vector<std::size_t> Cloud::sample(std::size_t s,
                                       runtime::Rng& rng) const {
  return sampling::sample_groups(p_, std::min(s, p_.size()), rng);
}

void Cloud::aggregate_into(std::span<float> out,
                           std::span<const std::size_t> sampled,
                           std::span<const std::span<const float>> group_models,
                           runtime::ThreadPool* pool) const {
  GF_CHECK_EQ(sampled.size(), group_models.size(),
              "Cloud::aggregate_into: one model per sampled group");
  for (std::size_t i = 0; i < sampled.size(); ++i)
    GF_CHECK(sampled[i] < groups_.size(),
             "Cloud::aggregate_into: group index ", sampled[i],
             " out of range [0, ", groups_.size(), ")");
  const std::vector<double> w = sampling::aggregation_weights(
      aggregation_, sampled, p_, group_sizes_);
  nn::weighted_average_into(out, group_models, w, pool);
}

}  // namespace groupfel::core
