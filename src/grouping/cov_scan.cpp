#include "grouping/cov_scan.hpp"

#include <cmath>
#include <cstring>

#include "util/check.hpp"

namespace groupfel::grouping {

namespace {

// One register of candidates per step. GCC lowers the compares of a
// generic vector wider than the target's registers to scalar code, so the
// width follows the ISA this TU is built for: 8 lanes on AVX-512, 4 on AVX,
// 2 on baseline SSE2. The slot stride stays a multiple of kCovLanes, and so
// of every width.
#if defined(__AVX512F__)
constexpr std::size_t kVecBytes = 64;
#elif defined(__AVX__)
constexpr std::size_t kVecBytes = 32;
#else
constexpr std::size_t kVecBytes = 16;
#endif
constexpr std::size_t kWidth = kVecBytes / sizeof(double);
static_assert(kCovLanes % kWidth == 0);
typedef double vec_f64 __attribute__((vector_size(kVecBytes)));
typedef std::int64_t vec_i64 __attribute__((vector_size(kVecBytes)));

}  // namespace

CovCandidateLanes::CovCandidateLanes(const data::LabelMatrix& matrix,
                                     std::span<const std::size_t> items)
    : labels_(matrix.num_labels()),
      slots_(items.size()),
      stride_((items.size() + kCovLanes - 1) / kCovLanes * kCovLanes),
      counts_(labels_ * stride_, 0.0),
      totals_(stride_, 0.0),
      live_(stride_, 0),
      group_(labels_, 0.0) {
  for (std::size_t s = 0; s < slots_; ++s) {
    const auto row = matrix.row(items[s]);
    std::size_t total = 0;
    for (std::size_t j = 0; j < labels_; ++j) {
      counts_[j * stride_ + s] = static_cast<double>(row[j]);
      total += row[j];
    }
    totals_[s] = static_cast<double>(total);
    live_[s] = -1;
  }
}

CovCandidateLanes::Best CovCandidateLanes::argmin(
    std::span<const std::size_t> group_counts, std::size_t group_total) {
  GF_CHECK_EQ(group_counts.size(), labels_,
              "CovCandidateLanes::argmin: label count mismatch");
  for (std::size_t j = 0; j < labels_; ++j)
    group_[j] = static_cast<double>(group_counts[j]);
  const double m = static_cast<double>(labels_);
  const double inf = std::numeric_limits<double>::infinity();
  const vec_f64 unscored = vec_f64{} + inf;

  vec_f64 best = unscored;
  vec_i64 best_slot{};
  vec_i64 slot{};
  for (std::size_t l = 0; l < kWidth; ++l)
    slot[l] = static_cast<std::int64_t>(l);
  for (std::size_t s0 = 0; s0 < slots_; s0 += kWidth) {
    vec_f64 total{};
    std::memcpy(&total, &totals_[s0], sizeof total);
    total += static_cast<double>(group_total);
    const vec_f64 mu = total / m;
    vec_f64 s{};
    for (std::size_t j = 0; j < labels_; ++j) {
      vec_f64 c{};
      std::memcpy(&c, &counts_[j * stride_ + s0], sizeof c);
      const vec_f64 d = mu - (group_[j] + c);
      s += d * d;
    }
    const vec_f64 q = s / m;
    vec_f64 cov{};
    for (std::size_t l = 0; l < kWidth; ++l) cov[l] = std::sqrt(q[l]);
    cov /= mu;
    cov = total == 0.0 ? vec_f64{} : cov;  // the scalar returns 0 first
    vec_i64 live{};
    std::memcpy(&live, &live_[s0], sizeof live);
    cov = live != 0 ? cov : unscored;
    const vec_i64 lower = cov < best;  // strict: a lane keeps its first min
    best = lower ? cov : best;
    best_slot = lower ? slot : best_slot;
    slot += static_cast<std::int64_t>(kWidth);
  }

  // Lowest value across lanes; among equal values the lowest slot, which is
  // the first minimum in slot order.
  Best out{0, inf};
  for (std::size_t l = 0; l < kWidth; ++l) {
    const auto lane_slot = static_cast<std::size_t>(best_slot[l]);
    if (best[l] < out.cov || (best[l] == out.cov && lane_slot < out.slot)) {
      out.cov = best[l];
      out.slot = lane_slot;
    }
  }
  return out;
}

void CovCandidateLanes::remove(std::size_t slot) {
  GF_CHECK(slot < slots_ && live_[slot] != 0,
           "CovCandidateLanes: remove of a dead slot ", slot);
  live_[slot] = 0;
}

void CovCandidateLanes::compact() {
  std::size_t w = 0;
  for (std::size_t s = 0; s < slots_; ++s) {
    if (live_[s] == 0) continue;
    for (std::size_t j = 0; j < labels_; ++j)
      counts_[j * stride_ + w] = counts_[j * stride_ + s];
    totals_[w] = totals_[s];
    live_[s] = 0;
    live_[w++] = -1;
  }
  slots_ = w;
}

}  // namespace groupfel::grouping
