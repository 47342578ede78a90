#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace groupfel::runtime {
namespace {

TEST(ThreadPool, InlineModeRunsEverything) {
  ThreadPool pool(0);
  std::vector<int> hits(100, 0);
  pool.parallel_for(100, [&](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ThreadPool, WorkersRunEverything) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyLoopIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleIterationRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(10,
                                 [&](std::size_t i) {
                                   if (i == 5)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, AllIterationsCompleteDespiteException) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  try {
    pool.parallel_for(64, [&](std::size_t i) {
      hits[i].fetch_add(1);
      if (i % 7 == 0) throw std::runtime_error("x");
    });
  } catch (const std::runtime_error&) {
  }
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ResultIndependentOfPoolSize) {
  // Determinism contract: randomness keyed by logical index gives the same
  // aggregate no matter how many workers execute the loop.
  auto run_with = [](std::size_t workers) {
    ThreadPool pool(workers);
    std::vector<std::uint64_t> out(200);
    pool.parallel_for(200, [&](std::size_t i) {
      out[i] = i * 2654435761u;  // stand-in for fork(i)-derived values
    });
    return out;
  };
  EXPECT_EQ(run_with(0), run_with(1));
  EXPECT_EQ(run_with(1), run_with(5));
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int rep = 0; rep < 10; ++rep) {
    std::atomic<int> sum{0};
    pool.parallel_for(50, [&](std::size_t) { sum.fetch_add(1); });
    EXPECT_EQ(sum.load(), 50);
  }
}

TEST(ThreadPool, GlobalPoolExists) {
  // hw - 1 workers plus the caller: one loop thread per hardware thread.
  const std::size_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(ThreadPool::global().size() + 1, hw);
  std::atomic<int> sum{0};
  ThreadPool::global().parallel_for(10, [&](std::size_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(), 10);
}

TEST(ThreadPool, NestedDataIsVisibleAfterLoop) {
  // parallel_for is a barrier: writes inside must be visible after return.
  ThreadPool pool(4);
  std::vector<std::size_t> out(256, 0);
  pool.parallel_for(256, [&](std::size_t i) { out[i] = i + 1; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i + 1);
}

}  // namespace
}  // namespace groupfel::runtime
