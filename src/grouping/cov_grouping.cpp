// CoV-Grouping — the paper's Algorithm 2.
//
// Greedy: open a group with a random client, then repeatedly add the client
// that minimizes the group's CoV, while the group is under MinGS or above
// MaxCoV. The group is finalized when no candidate improves the CoV and the
// size constraint is met (MaxCoV is soft — see the paper's footnote 4).
//
// With params.greedy_window > 0 the greedy runs inside windows of a
// once-shuffled pool, one RNG stream per window, concurrently on the
// caller's ThreadPool (grouping/windowed.hpp); window 0 is the classic
// whole-pool greedy.
#include "grouping/cov_scan.hpp"
#include "grouping/windowed.hpp"

namespace groupfel::grouping {

namespace {

/// Algorithm 2 over one candidate pool; consumes `pool_items`, appends to
/// `groups`. RNG draws: one next_below per opened group (line 3). The
/// candidate lanes keep the live candidates in the order of a vector that
/// erases each admitted client, and their scan returns the slot and CoV bits
/// of the scalar first-minimum scan over IncrementalCov::value_with
/// (grouping/cov_scan.hpp), so the output is byte-identical to the
/// erase-based scalar greedy.
void greedy_over_pool(const data::LabelMatrix& matrix,
                      const GroupingParams& params, runtime::Rng& rng,
                      std::vector<std::size_t> pool_items, Grouping& groups) {
  CovCandidateLanes pool(matrix, std::move(pool_items));
  while (!pool.empty()) {
    // Line 3: random first client — the paper notes this randomization is
    // what makes periodic regrouping produce fresh groups.
    const std::size_t first_slot = pool.nth_live_slot(rng.next_below(pool.size()));
    std::vector<std::size_t> group{pool.client(first_slot)};
    pool.take(first_slot);

    IncrementalCov inc(matrix.num_labels());
    inc.add(matrix.row(group[0]));
    double group_cov = inc.value();  // recomputed only when the group grows

    // Line 4: loop while the group does not yet meet its requirement.
    while ((group_cov > params.max_cov ||
            group.size() < params.min_group_size) &&
           !pool.empty()) {
      // Line 5: the candidate that minimizes CoV(g ∪ c).
      const CovCandidateLanes::Best best =
          pool.argmin(inc.counts(), inc.total());
      // Line 6: add if it improves CoV, or the group is still too small.
      if (best.cov < group_cov || group.size() < params.min_group_size) {
        const std::size_t chosen = pool.client(best.slot);
        inc.add(matrix.row(chosen));
        group_cov = inc.value();
        group.push_back(chosen);
        pool.take(best.slot);
      } else {
        break;  // Line 9: finalize (MaxCoV is a soft constraint).
      }
    }
    groups.push_back(std::move(group));
  }
}

}  // namespace

Grouping cov_grouping(const data::LabelMatrix& matrix,
                      const GroupingParams& params, runtime::Rng& rng,
                      runtime::ThreadPool* pool) {
  return windowed_greedy(
      matrix.num_clients(), params, rng, pool,
      [&](runtime::Rng& wrng, std::vector<std::size_t> clients,
          Grouping& groups) {
        greedy_over_pool(matrix, params, wrng, std::move(clients), groups);
      });
}

}  // namespace groupfel::grouping
