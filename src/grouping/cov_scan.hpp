// Lane-parallel candidate scan for the CoV greedy (Algorithm 2, line 5).
//
// The greedy evaluates CoV(g ∪ c) for every live candidate c once per
// admission. CovCandidateLanes keeps a window-local structure-of-arrays copy
// of the candidates' label counts, one double per count (exact for counts
// below 2^53), and scores eight candidates per step, one per vector lane.
//
// Byte-identity contract: every lane does IncrementalCov::value_with's
// arithmetic in its order — T = group total + candidate total, mu = T / m,
// s += d * d over the labels from j = 0 with d = mu - (g_j + c_j), then
// sqrt(s / m) / mu, and 0 when T = 0. Sums of integers below 2^53 are exact
// in doubles, and vector sqrt and divide are correctly rounded, so each
// lane's value equals the scalar one bit for bit (the TU builds with
// -ffp-contract=off so that s + d * d is never fused). The argmin keeps the
// FIRST minimum in slot order, like the scalar scan, so ties break the same.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "data/label_matrix.hpp"

namespace groupfel::grouping {

/// Candidates scored per lane batch.
inline constexpr std::size_t kCovLanes = 8;

/// Slot-aligned with a CandidatePool built from the same items: remove()
/// marks the slot the pool tombstones, and compact() must run exactly when
/// the pool's remove() reports that it compacted.
class CovCandidateLanes {
 public:
  CovCandidateLanes(const data::LabelMatrix& matrix,
                    std::span<const std::size_t> items);

  struct Best {
    std::size_t slot = 0;
    double cov = std::numeric_limits<double>::infinity();
  };

  /// The live slot minimizing the CoV of the group plus that candidate
  /// (first minimum in slot order), and that CoV. `group_counts` holds the
  /// group's per-label counts and `group_total` their sum.
  [[nodiscard]] Best argmin(std::span<const std::size_t> group_counts,
                            std::size_t group_total);

  /// Masks `slot` out of later scans.
  void remove(std::size_t slot);

  /// Drops masked slots, keeping the live ones in order — CandidatePool's
  /// compaction, so slot numbers stay aligned with it.
  void compact();

 private:
  std::size_t labels_ = 0;
  std::size_t slots_ = 0;   ///< slots in use, live or masked
  std::size_t stride_ = 0;  ///< slot capacity, a multiple of kCovLanes
  std::vector<double> counts_;      ///< [label * stride_ + slot]
  std::vector<double> totals_;      ///< candidate totals, [slot]
  std::vector<std::int64_t> live_;  ///< -1 live, 0 masked or padding
  std::vector<double> group_;       ///< argmin's group counts as doubles
};

}  // namespace groupfel::grouping
