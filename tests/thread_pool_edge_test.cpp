// Edge-case coverage for ThreadPool::parallel_for and the Evaluator's
// pool-size independence — the contracts the concurrency analysis layer
// (TSan preset + tests/concurrency_stress_test.cpp) assumes hold.
#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/evaluator.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"

namespace groupfel::runtime {
namespace {

TEST(ThreadPoolEdge, ZeroSizeLoopNeverInvokesBody) {
  for (std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(workers);
    std::atomic<int> calls{0};
    pool.parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0) << "workers = " << workers;
  }
}

TEST(ThreadPoolEdge, ZeroSizeLoopAfterRealWorkIsStillNoop) {
  ThreadPool pool(3);
  std::atomic<int> calls{0};
  pool.parallel_for(64, [&](std::size_t) { calls.fetch_add(1); });
  pool.parallel_for(0, [&](std::size_t) { calls.fetch_add(1000); });
  EXPECT_EQ(calls.load(), 64);
}

TEST(ThreadPoolEdge, LoopRunsOnCallerAndEveryWorker) {
  // The thread contract: a loop of n > size() iterations runs on the caller
  // and every worker, size() + 1 threads. Each body records its thread and
  // then waits until size() + 1 distinct threads have checked in (or a 10 s
  // deadline passes), so no thread can drain the loop alone.
  for (std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    ThreadPool pool(workers);
    const std::size_t want = workers + 1;
    std::mutex mu;
    std::set<std::thread::id> seen;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    pool.parallel_for(4 * want, [&](std::size_t) {
      {
        std::lock_guard<std::mutex> lock(mu);
        seen.insert(std::this_thread::get_id());
      }
      for (;;) {
        {
          std::lock_guard<std::mutex> lock(mu);
          if (seen.size() >= want) return;
        }
        if (std::chrono::steady_clock::now() > deadline) return;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
    EXPECT_EQ(seen.size(), want) << "workers = " << workers;
  }
}

TEST(ThreadPoolEdge, NestedSubmissionCompletes) {
  // A body that submits to the SAME pool must not deadlock: the caller of
  // the inner loop participates in it, so progress never depends on a free
  // worker being available.
  ThreadPool pool(2);
  constexpr std::size_t kOuter = 8, kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallel_for(kOuter, [&](std::size_t o) {
    pool.parallel_for(kInner, [&](std::size_t i) {
      hits[o * kInner + i].fetch_add(1);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolEdge, DoublyNestedSubmissionCompletes) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) {
      pool.parallel_for(4, [&](std::size_t) { total.fetch_add(1); });
    });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolEdge, ExceptionTypeIsPreserved) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(
                   32, [&](std::size_t i) {
                     if (i == 7) throw std::out_of_range("specific type");
                   }),
               std::out_of_range);
}

TEST(ThreadPoolEdge, ExceptionFromNestedLoopPropagatesToOuterCaller) {
  ThreadPool pool(2);
  std::atomic<int> inner_runs{0};
  EXPECT_THROW(pool.parallel_for(
                   4,
                   [&](std::size_t o) {
                     pool.parallel_for(8, [&](std::size_t i) {
                       inner_runs.fetch_add(1);
                       if (o == 1 && i == 3)
                         throw std::runtime_error("inner boom");
                     });
                   }),
               std::runtime_error);
  // Every inner loop still drains fully (parallel_for completes all
  // iterations before rethrowing).
  EXPECT_EQ(inner_runs.load(), 32);
}

TEST(ThreadPoolEdge, PoolIsReusableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8, [](std::size_t) { throw std::runtime_error("x"); }),
      std::runtime_error);
  std::atomic<int> sum{0};
  pool.parallel_for(100, [&](std::size_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(), 100);
}

TEST(ThreadPoolEdge, EvaluatorAccuracyIdenticalForAnyPoolSize) {
  // The Evaluator's determinism contract: batched inference fans out over
  // the pool but reduces in fixed batch order, so accuracy AND loss are
  // bit-identical for inline, single-worker, and many-worker pools.
  runtime::Rng rng(11);
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.sample_shape = {12};
  const data::DataSet test = data::make_synthetic(spec, 503, rng);
  nn::Model m = nn::make_mlp(12, 24, 4);
  runtime::Rng irng(12);
  m.init(irng);

  ThreadPool inline_pool(0);
  const core::EvalResult ref = core::evaluate(m, test, 32, &inline_pool);
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{7}}) {
    ThreadPool pool(workers);
    const core::EvalResult got = core::evaluate(m, test, 32, &pool);
    EXPECT_DOUBLE_EQ(got.accuracy, ref.accuracy) << "workers = " << workers;
    EXPECT_DOUBLE_EQ(got.loss, ref.loss) << "workers = " << workers;
  }
}

}  // namespace
}  // namespace groupfel::runtime
