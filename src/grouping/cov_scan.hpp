// Candidate scan for the CoV greedy (Algorithm 2, line 5).
//
// The greedy evaluates CoV(g ∪ c) for every live candidate c once per
// admission. CovCandidateLanes is the window's candidate set: it holds the
// candidates' ids and which of them are still live, plus a structure-of-
// arrays copy of their label counts, one double per count (exact for counts
// below 2^53). It ranks the live candidates on an exact integer key, and
// computes the float CoV only for the few whose key lies within a proven
// band of the minimum.
//
// Liveness. take() masks a slot; once over half the slots are masked the
// live ones are compacted to the front in order, so a window of n
// candidates pays O(n) in total for its removals. Live candidates always sit
// in the order a vector that erases each taken id would keep them, and the
// argmin keeps the FIRST minimum, so the greedy's groups are those of the
// erase-based greedy byte for byte.
//
// Key. With n_j = g_j + c_j the combined counts, T = Σ n_j and m labels,
// the exact CoV is E = √V / T with V = m·Σ n_j² − T². Per window each
// candidate's total t_c and Q_c = Σ c_j² are stored; per admission the group
// gives G = Σ g_j and P = Σ g_j², and per candidate one dot product
// D_c = ⟨g, c⟩ gives T = G + t_c and V = m·(P + 2·D_c + Q_c) − T². Every
// term is an integer below 2^52 while m·T_max² < 2^52 (T_max: the group
// total plus the window's largest candidate total), so V is exact in
// doubles, fused or not. A vector pass (8/4/2 lanes on AVX-512/AVX/SSE2)
// computes every key and keeps per lane the least V / T², compared by cross
// multiplication: no sqrt and no divide per candidate.
//
// Band lemma. IncrementalCov::value_with computes mu = fl(T / m), then
// s += d·d over the labels from j = 0 with d = mu − n_j, then
// sqrt(s / m) / mu (0 when T = 0). Write u = 2^-53 and η = mu − T/m, so
// |η| ≤ u·T/m. Because Σ_j (T/m − n_j) = 0, Σ_j (mu − n_j)² = V/m + m·η²
// exactly, so the unrounded sqrt(Σ / m) / (T/m) = √(V + m²η²) / T lies in
// [E, E + u]. The roundings — d (1 per term), d·d (1), the m − 1
// additions, s / m, sqrt, mu and the final divide — multiply that by a
// factor within 1 ± δ, δ = (m/2 + 5)·u for m ≤ kMaxKeyedLabels (first order
// (m/2 + 4.5)·u; the rest covers the second-order terms). So the float CoV
// lies in [E·(1 − δ), (E + u)·(1 + δ)]. The absolute u covers mu's rounding
// where V is small against T: as V → 0 no relative bound holds (at V = 0
// itself T/m is an integer, mu is exact and the CoV is exactly 0). Then a
// candidate c can tie or beat the pass-one minimum b only if
// E_c·(1 − δ) ≤ (E_b + u)·(1 + δ). A second vector pass flags the live slots
// whose key passes that test, with slack for the test's own roundings, and
// runs value_with's arithmetic on them in slot order, keeping the FIRST
// minimum. Every other slot's float CoV is strictly above b's, so the
// result — slot and cov bits — is that of the scalar first-minimum scan.
// Exact ties at different totals (proportional rows) all fall in the band,
// and float rounding picks the winner exactly as value_with does.
//
// Fallback. Above kMaxKeyedLabels labels, or when m·T_max² ≥ 2^52 (counts
// near 2^32), argmin runs value_with's arithmetic over every live slot.
// The TU builds with -ffp-contract=off so that s + d * d is never fused.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "data/label_matrix.hpp"

namespace groupfel::grouping {

/// Slot padding: the stride is a multiple of the widest lane batch (8
/// doubles, AVX-512, one 64-byte line), so every register width tiles it
/// exactly and every row starts on a line.
inline constexpr std::size_t kCovLanes = 8;

/// Largest label count the keyed scan takes; more labels use the fallback.
inline constexpr std::size_t kMaxKeyedLabels = 1024;

/// The candidate set of one greedy window. Slot numbers are valid until the
/// next take().
class CovCandidateLanes {
 public:
  CovCandidateLanes(const data::LabelMatrix& matrix,
                    std::vector<std::size_t> clients);

  struct Best {
    std::size_t slot = 0;
    double cov = std::numeric_limits<double>::infinity();
  };

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Number of live candidates.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Client id held in `slot`.
  [[nodiscard]] std::size_t client(std::size_t slot) const {
    return clients_[slot];
  }

  /// Slot of the pos-th live candidate (the random group opener). O(slots),
  /// but called once per group — the order of one candidate scan.
  [[nodiscard]] std::size_t nth_live_slot(std::size_t pos) const;

  /// The live slot minimizing the CoV of the group plus that candidate
  /// (first minimum in slot order), and that CoV, bit for bit as
  /// IncrementalCov::value_with computes it. `group_counts` holds the
  /// group's per-label counts and `group_total` their sum.
  [[nodiscard]] Best argmin(std::span<const std::size_t> group_counts,
                            std::size_t group_total);

  /// Removes the live candidate in `slot`, compacting once over half the
  /// slots are masked (which renumbers the slots).
  void take(std::size_t slot);

 private:
  /// value_with's arithmetic for the candidate in `slot` (group in group_).
  [[nodiscard]] double value_at(std::size_t slot, double group_total) const;

  /// Drops masked slots, keeping the live ones in order.
  void compact();

  // One buffer of (labels_ + 4) rows of stride_ doubles, the first row on a
  // 64-byte boundary: the label counts [label][slot], then t_c, Q_c / 2
  // (+inf once masked, and in padding), and argmin's V and T² per slot.
  [[nodiscard]] double* row(std::size_t r) {
    return buffer_.data() + offset_ + r * stride_;
  }
  [[nodiscard]] const double* row(std::size_t r) const {
    return buffer_.data() + offset_ + r * stride_;
  }
  [[nodiscard]] double* totals() { return row(labels_); }
  [[nodiscard]] const double* totals() const { return row(labels_); }
  [[nodiscard]] double* half_squares() { return row(labels_ + 1); }
  [[nodiscard]] const double* half_squares() const {
    return row(labels_ + 1);
  }
  [[nodiscard]] double* key_v() { return row(labels_ + 2); }
  [[nodiscard]] double* key_t2() { return row(labels_ + 3); }

  std::size_t labels_ = 0;
  std::size_t slots_ = 0;      ///< slots in use, live or masked
  std::size_t live_ = 0;       ///< live slots
  std::size_t stride_ = 0;     ///< slot capacity, a multiple of kCovLanes
  std::size_t max_total_ = 0;  ///< largest candidate total of the window
  std::size_t key_limit_ = 0;  ///< largest T with m·T² < 2^52
  std::size_t offset_ = 0;     ///< first element of row 0 in buffer_
  double band_scale_ = 0.0;    ///< ((1 + δ)/(1 − δ))², with slack
  std::vector<std::size_t> clients_;  ///< client id per slot
  std::vector<double> buffer_;
  std::vector<double> group_;  ///< argmin's group counts as doubles
};

}  // namespace groupfel::grouping
