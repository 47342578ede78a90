// Cloud role: computes the group-sampling probability vector from group
// CoVs (Algorithm 1 line 4), samples S_t each round (line 6), and performs
// global aggregation (line 15) under the configured weighting mode.
#pragma once

#include <vector>

#include "core/edge_server.hpp"
#include "nn/model.hpp"
#include "sampling/sampler.hpp"
#include "sampling/weights.hpp"

namespace groupfel::core {

class Cloud {
 public:
  Cloud(sampling::SamplingMethod sampling_method,
        sampling::AggregationMode aggregation_mode)
      : sampling_(sampling_method), aggregation_(aggregation_mode) {}

  /// Registers the formed groups and computes p (Eq. 34) via the blocked
  /// parallel reduction — bit-identical for any `pool`, including nullptr.
  void set_groups(std::vector<FormedGroup> groups,
                  runtime::ThreadPool* pool = nullptr);

  [[nodiscard]] const std::vector<FormedGroup>& groups() const noexcept {
    return groups_;
  }
  [[nodiscard]] const std::vector<double>& probabilities() const noexcept {
    return p_;
  }

  /// Samples S_t group indices for one global round.
  [[nodiscard]] std::vector<std::size_t> sample(std::size_t s,
                                                runtime::Rng& rng) const;

  /// Aggregates group models into the new global model, written into `out`
  /// (sized to the model) via the fixed-shape parallel reduction.
  /// `group_models[i]` corresponds to `sampled[i]`. Bit-identical for any
  /// pool, including nullptr (serial).
  void aggregate_into(std::span<float> out,
                      std::span<const std::size_t> sampled,
                      std::span<const std::span<const float>> group_models,
                      runtime::ThreadPool* pool = nullptr) const;

 private:
  sampling::SamplingMethod sampling_;
  sampling::AggregationMode aggregation_;
  std::vector<FormedGroup> groups_;
  std::vector<double> p_;
  std::vector<std::size_t> group_sizes_;  // n_g per group
};

}  // namespace groupfel::core
