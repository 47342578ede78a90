// Order-preserving candidate pool for the Algorithm 2 greedy inner loop
// (shared by cov_grouping.cpp and kldg.cpp).
//
// The greedy admits one client per inner iteration; with a plain vector that
// admit is an O(n) `erase`, adding a quadratic term per window on top of the
// candidate scans. This pool replaces erase with a tombstone mark plus
// amortized compaction (rebuild when over half the slots are dead), so a
// window of n candidates pays O(n) total removal cost.
//
// Byte-identity contract: `erase` preserves the relative order of the
// surviving candidates, and so does skip-tombstones-then-compact — live
// candidates are always visited in exactly the order the erase-based pool
// would produce. The greedy's argmin keeps the FIRST minimum it sees, so
// identical visit order means identical tie-breaking and therefore
// byte-identical groupings (ctest-gated against a reference copy of the
// erase-based greedy in tests/parallel_control_plane_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace groupfel::grouping {

class CandidatePool {
 public:
  explicit CandidatePool(std::vector<std::size_t> items)
      : items_(std::move(items)),
        dead_(items_.size(), 0),
        live_(items_.size()) {}

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Number of live candidates (what `pool.size()` was for the erase pool).
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Client id held in `slot`. Slots are only valid until the next remove().
  [[nodiscard]] std::size_t client(std::size_t slot) const {
    return items_[slot];
  }

  /// Visits every live candidate in order: f(slot, client). This is the
  /// candidate scan of Algorithm 2 line 5; the visit order matches the
  /// erase-based pool's iteration order exactly.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t s = 0; s < items_.size(); ++s)
      if (dead_[s] == 0) f(s, items_[s]);
  }

  /// Slot of the pos-th live candidate (the random group opener's
  /// `pool[first_pos]`). O(slots), but called once per group — the same
  /// order as one candidate scan.
  [[nodiscard]] std::size_t nth_live_slot(std::size_t pos) const {
    GF_CHECK(pos < live_, "CandidatePool: nth_live_slot(", pos,
             ") with only ", live_, " live candidates");
    std::size_t seen = 0;
    for (std::size_t s = 0; s < items_.size(); ++s) {
      if (dead_[s] != 0) continue;
      if (seen == pos) return s;
      ++seen;
    }
    GF_CHECK(false, "CandidatePool: live count out of sync");
    return 0;  // unreachable
  }

  /// Tombstones `slot` and compacts once at least half the slots are dead.
  /// Returns true when compaction ran: it invalidates previously obtained
  /// slots, and a slot-aligned copy (CovCandidateLanes) must compact too.
  bool remove(std::size_t slot) {
    GF_CHECK(dead_[slot] == 0, "CandidatePool: double remove of slot ", slot);
    dead_[slot] = 1;
    --live_;
    if (live_ * 2 >= items_.size()) return false;
    compact();
    return true;
  }

 private:
  void compact() {
    std::size_t w = 0;
    for (std::size_t s = 0; s < items_.size(); ++s)
      if (dead_[s] == 0) items_[w++] = items_[s];
    items_.resize(w);
    dead_.assign(w, 0);
  }

  std::vector<std::size_t> items_;
  std::vector<std::uint8_t> dead_;  ///< 1 = tombstoned
  std::size_t live_ = 0;
};

}  // namespace groupfel::grouping
