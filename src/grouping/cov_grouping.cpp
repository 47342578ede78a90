// CoV-Grouping — the paper's Algorithm 2.
//
// Greedy: open a group with a random client, then repeatedly add the client
// that minimizes the group's CoV, while the group is under MinGS or above
// MaxCoV. The group is finalized when no candidate improves the CoV and the
// size constraint is met (MaxCoV is soft — see the paper's footnote 4).
//
// With params.greedy_window > 0 the greedy runs inside windows of a
// once-shuffled pool (streaming/partitioned mode for fleet-scale edges);
// window 0 is the classic whole-pool greedy, byte-identical to the original
// implementation. params.parallel_windows runs the windows concurrently,
// each on its own counter-based RNG stream, with groups emitted in
// deterministic window order — bit-identical for any ThreadPool size.
#include <numeric>

#include "grouping/candidate_pool.hpp"
#include "grouping/cov_scan.hpp"
#include "grouping/grouping.hpp"

namespace groupfel::grouping {

namespace {

/// Algorithm 2 over one candidate pool; consumes `pool_items`, appends to
/// `groups`. RNG draws: one next_below per opened group (line 3). The
/// tombstone pool keeps candidate visit order identical to the historical
/// erase-based pool, and the lane scan scores each candidate bit for bit as
/// IncrementalCov::value_with does and keeps the same first minimum, so the
/// output is byte-identical to the erase-based scalar greedy.
void greedy_over_pool(const data::LabelMatrix& matrix,
                      const GroupingParams& params, runtime::Rng& rng,
                      std::vector<std::size_t> pool_items, Grouping& groups) {
  CovCandidateLanes lanes(matrix, pool_items);
  CandidatePool pool(std::move(pool_items));
  const auto take = [&](std::size_t slot) {
    lanes.remove(slot);
    if (pool.remove(slot)) lanes.compact();
  };
  while (!pool.empty()) {
    // Line 3: random first client — the paper notes this randomization is
    // what makes periodic regrouping produce fresh groups.
    const std::size_t first_slot = pool.nth_live_slot(rng.next_below(pool.size()));
    std::vector<std::size_t> group{pool.client(first_slot)};
    take(first_slot);

    IncrementalCov inc(matrix.num_labels());
    inc.add(matrix.row(group[0]));

    // Line 4: loop while the group does not yet meet its requirement.
    while ((inc.value() > params.max_cov ||
            group.size() < params.min_group_size) &&
           !pool.empty()) {
      // Line 5: the candidate that minimizes CoV(g ∪ c).
      const CovCandidateLanes::Best best =
          lanes.argmin(inc.counts(), inc.total());
      // Line 6: add if it improves CoV, or the group is still too small.
      if (best.cov < inc.value() || group.size() < params.min_group_size) {
        const std::size_t chosen = pool.client(best.slot);
        inc.add(matrix.row(chosen));
        group.push_back(chosen);
        take(best.slot);
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
  const std::size_t n = matrix.num_clients();
  Grouping groups;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});

  const std::size_t window = params.greedy_window;
  if (window == 0 || n <= window) {
    greedy_over_pool(matrix, params, rng, std::move(order), groups);
    return groups;
  }

  // Streaming mode: one shuffle gives every window an unbiased slice of the
  // population.
  rng.shuffle(order);
  const std::size_t num_windows = (n + window - 1) / window;
  const auto window_items = [&](std::size_t w) {
    const std::size_t start = w * window;
    const std::size_t end = std::min(n, start + window);
    return std::vector<std::size_t>(
        order.begin() + static_cast<std::ptrdiff_t>(start),
        order.begin() + static_cast<std::ptrdiff_t>(end));
  };

  if (!params.parallel_windows) {
    // Serial windows thread ONE stream through all windows in order —
    // byte-identical to previous releases.
    for (std::size_t w = 0; w < num_windows; ++w)
      greedy_over_pool(matrix, params, rng, window_items(w), groups);
    return groups;
  }

  // Parallel windows: one counter-based stream per window (fork is const,
  // so the streams do not depend on execution order), per-window output
  // slots, deterministic window-order concatenation.
  std::vector<Grouping> per_window(num_windows);
  const auto run_window = [&](std::size_t w) {
    runtime::Rng wrng = rng.fork(w);
    greedy_over_pool(matrix, params, wrng, window_items(w), per_window[w]);
  };
  if (pool != nullptr && pool->size() > 1 && num_windows > 1) {
    pool->parallel_for(num_windows, run_window);
  } else {
    for (std::size_t w = 0; w < num_windows; ++w) run_window(w);
  }
  for (auto& wg : per_window)
    for (auto& g : wg) groups.push_back(std::move(g));
  return groups;
}

}  // namespace groupfel::grouping
