// The windowed greedy driver shared by CoVG (cov_grouping.cpp) and KLDG
// (kldg.cpp).
//
// With params.greedy_window = w > 0 the pool is shuffled once and cut into
// consecutive windows of w clients; window i runs the caller's greedy on
// its own counter-based stream rng.fork(i) (fork is const, so the streams do
// not depend on execution order), the windows run concurrently on the
// caller's ThreadPool, and their groups are concatenated in window order.
// The result is bit-identical for any pool size, including none. Window 0
// (or a pool no larger than one window) runs the greedy once over every
// client on `rng` itself: the classic whole-pool Algorithm 2.
//
// Groups never cross a window, so MinGS (Eq. 31) holds per window: the last
// group of each window, closed when the window's candidates run out, may be
// smaller than MinGS (GroupingParams::greedy_window has measured counts).
#pragma once

#include <vector>

#include "grouping/grouping.hpp"
#include "util/function_ref.hpp"

namespace groupfel::grouping {

/// One greedy pass: consumes `clients` (rows of the edge's LabelMatrix),
/// draws from `rng` and appends its groups to `groups`. Windows call it
/// concurrently, each with its own rng and output.
using WindowGreedy = util::FunctionRef<void(
    runtime::Rng& rng, std::vector<std::size_t> clients, Grouping& groups)>;

/// Throws std::invalid_argument when 0 < greedy_window < min_group_size (a
/// window that small can only close groups below MinGS, breaking Eq. 31) or
/// when a window is set with parallel_windows = false (a retired mode).
[[nodiscard]] Grouping windowed_greedy(std::size_t num_clients,
                                       const GroupingParams& params,
                                       runtime::Rng& rng,
                                       runtime::ThreadPool* pool,
                                       WindowGreedy greedy);

}  // namespace groupfel::grouping
