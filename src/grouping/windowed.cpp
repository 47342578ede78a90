#include "grouping/windowed.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

namespace groupfel::grouping {

Grouping windowed_greedy(std::size_t num_clients, const GroupingParams& params,
                         runtime::Rng& rng, runtime::ThreadPool* pool,
                         WindowGreedy greedy) {
  const std::size_t window = params.greedy_window;
  if (window > 0 && !params.parallel_windows)
    throw std::invalid_argument(
        "grouping: parallel_windows = false is retired; windowed grouping "
        "always runs one stream per window");
  if (window > 0 && window < params.min_group_size)
    throw std::invalid_argument(
        "grouping: greedy_window " + std::to_string(window) +
        " is below min_group_size " + std::to_string(params.min_group_size) +
        "; every group of such a window would break the MinGS constraint");

  const std::size_t n = num_clients;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Grouping groups;
  if (window == 0 || n <= window) {
    greedy(rng, std::move(order), groups);
    return groups;
  }

  // One shuffle gives every window an unbiased slice of the population.
  rng.shuffle(order);
  const std::size_t num_windows = (n + window - 1) / window;
  std::vector<Grouping> per_window(num_windows);
  const auto run_window = [&](std::size_t w) {
    const auto start = order.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto end = order.begin() +
                     static_cast<std::ptrdiff_t>(std::min(n, (w + 1) * window));
    runtime::Rng wrng = rng.fork(w);
    greedy(wrng, std::vector<std::size_t>(start, end), per_window[w]);
  };
  if (pool != nullptr && pool->size() > 0) {
    pool->parallel_for(num_windows, run_window);
  } else {
    for (std::size_t w = 0; w < num_windows; ++w) run_window(w);
  }
  for (auto& wg : per_window)
    for (auto& g : wg) groups.push_back(std::move(g));
  return groups;
}

}  // namespace groupfel::grouping
