// Probability-based group sampling at the cloud (§6).
//
// The sampling probability of group g is (Eq. 34)
//     p_g = w(1/CoV(g)) / sum_h w(1/CoV(h))
// with three non-decreasing weight functions considered by the paper:
//     RCoV   : w(x) = x
//     SRCoV  : w(x) = x^2
//     ESRCoV : w(x) = e^{x^2}   (the paper's default — best performance)
// plus uniform Random sampling as the baseline.
#pragma once

#include <string>
#include <vector>

#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"

namespace groupfel::sampling {

enum class SamplingMethod { kRandom, kRCov, kSRCov, kESRCov };

[[nodiscard]] std::string to_string(SamplingMethod method);
[[nodiscard]] SamplingMethod sampling_method_from_string(const std::string& name);

/// Default CoV floor of Eq. 34.
inline constexpr double kDefaultCovFloor = 0.05;

/// Eq. 34: writes the probability vector p over groups, computed from their
/// CoV values, into `out`, resized to the group count (its storage is reused
/// across regroupings). CoV values are floored at `cov_floor` so 1/CoV stays
/// finite for perfectly balanced groups. The normalizer is a
/// fixed-shape blocked tree reduction — per-block Kahan-compensated sums
/// combined in deterministic block order (the nn::weighted_average_into
/// pattern), with the block decomposition fixed by the group count alone —
/// so the result is bit-identical for any `pool` size including nullptr
/// (serial). ESRCoV precomputes the max exponent with a blocked max scan,
/// keeping the overflow-free shift. The result is GF_CHECKed against the
/// probability-vector invariant below.
void sampling_probabilities_into(SamplingMethod method,
                                 std::span<const double> group_covs,
                                 std::vector<double>& out,
                                 double cov_floor = kDefaultCovFloor,
                                 runtime::ThreadPool* pool = nullptr);

/// The probability-vector invariant: every entry finite and non-negative,
/// total mass 1 within tolerance. GF_CHECKs (always on) with `where` naming
/// the entry point; shared by the Eq. 34 producer and the sample_groups
/// consumer so the contract lives in one place.
void check_probability_vector(std::span<const double> p, const char* where);

/// Draws `s` distinct group indices with probabilities proportional to `p`
/// (sequential weighted draws without replacement).
[[nodiscard]] std::vector<std::size_t> sample_groups(std::span<const double> p,
                                                     std::size_t s,
                                                     runtime::Rng& rng);

}  // namespace groupfel::sampling
