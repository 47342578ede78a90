// Cost-model calibration from wall-clock measurements of THIS repository's
// own implementations — the substitute for the paper's Raspberry-Pi
// measurements (Fig. 8). The measured curves confirm the functional shapes
// (quadratic group ops, linear training); `figures` fits them with
// util::fit_quadratic and util::fit_linear.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace groupfel::cost {

struct MeasurementPoint {
  double x = 0.0;        ///< group size or sample count
  double seconds = 0.0;  ///< measured wall-clock time
};

/// Measures the per-client cost of one secure-aggregation round (mask
/// generation + share of server unmasking) for each group size in `sizes`,
/// with model dimension `dim`.
[[nodiscard]] std::vector<MeasurementPoint> measure_secagg(
    std::span<const std::size_t> sizes, std::size_t dim);

/// Measures FLAME backdoor filtering for each group size.
[[nodiscard]] std::vector<MeasurementPoint> measure_backdoor(
    std::span<const std::size_t> sizes, std::size_t dim);

/// Measures one local training epoch for each sample count, given a model
/// factory and a sample feature dimension.
[[nodiscard]] std::vector<MeasurementPoint> measure_training(
    std::span<const std::size_t> sample_counts, std::size_t feature_dim,
    std::size_t num_classes);

}  // namespace groupfel::cost
