// runtime::SweepScheduler — concurrent execution of independent experiment
// cells over a shared ThreadPool.
//
// A "cell" is one self-contained unit of a sweep (one method x seed x config
// combination of a figure reproduction). Cells share no mutable state: they
// read the same immutable inputs (e.g. a shared DataSet) and each derives
// its own RNG streams from its config seed, so the scheduler can run them in
// any order on any number of threads and store results by index.
// A scheduled sweep is therefore bit-identical to the serial loop — the only
// observable difference is wall-clock time.
//
// Nesting is safe: a cell may itself call parallel_for on the same pool
// (trainers parallelize over groups/clients internally); ThreadPool's caller
// participation guarantees forward progress.
#pragma once

#include <cstddef>
#include <functional>

#include "runtime/thread_pool.hpp"
#include "util/sync.hpp"

namespace groupfel::runtime {

class SweepScheduler {
 public:
  explicit SweepScheduler(ThreadPool& pool) noexcept : pool_(pool) {}

  /// Runs body(i) for every cell i in [0, n) over the pool: concurrently,
  /// up to size() + 1 cells at once (the caller runs cells beside every
  /// worker), or serially in index order on a 0-thread pool — the reference
  /// execution the concurrent path must match bit for bit. Blocks until
  /// every cell finished. Exceptions propagate like ThreadPool::parallel_for.
  void run(std::size_t n, const std::function<void(std::size_t)>& body) {
    {
      util::MutexLock lock(progress_mu_);
      cells_completed_ = 0;
    }
    pool_.parallel_for(n, [&](std::size_t i) {
      body(i);
      util::MutexLock lock(progress_mu_);
      ++cells_completed_;
    });
  }

  /// Cells finished so far — safe to poll from another thread while run()
  /// is in flight (progress reporting); equals n after run() returns.
  [[nodiscard]] std::size_t cells_completed() const {
    util::MutexLock lock(progress_mu_);
    return cells_completed_;
  }

 private:
  ThreadPool& pool_;
  mutable util::Mutex progress_mu_;
  std::size_t cells_completed_ GF_GUARDED_BY(progress_mu_) = 0;
};

}  // namespace groupfel::runtime
