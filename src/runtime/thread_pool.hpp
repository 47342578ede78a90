// Work-stealing-free, queue-based thread pool with a structured
// `parallel_for` used to simulate the paper's "in parallel" loops over
// groups (Algorithm 1 line 7) and clients (line 10).
//
// Thread contract: a loop runs on the calling thread plus every worker, so
// `parallel_for` on a pool of size() workers uses up to size() + 1 threads
// (fewer when n is smaller). A pool meant to give N threads to its loops is
// built with N - 1 workers; size() == 0 runs every loop inline.
//
// Determinism contract: tasks must derive any randomness from their logical
// index (see runtime/rng.hpp), never from thread identity, so results are
// identical for any pool size, including size 0 (inline execution).
//
// Locking discipline (checked at compile time by the `groupfel_analyze`
// preset): `mu_` guards the queue of loops waiting for helpers and the stop
// flag; `cv_` signals queue/stop transitions. `workers_` is written only by
// the constructor (before any worker can observe it) and joined by the
// destructor after the stop handshake, so it needs no lock.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace groupfel::runtime {

class ThreadPool {
 public:
  /// Starts `workers` worker threads; 0 runs every loop inline on the
  /// caller.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 = inline mode). A loop uses up to
  /// size() + 1 threads: the workers and the caller.
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Runs body(i) for i in [0, n) on the caller and up to min(size(), n - 1)
  /// workers; blocks until all iterations finish.
  /// Exceptions thrown by any iteration are captured and the first one is
  /// rethrown on the calling thread after the loop drains.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body)
      GF_EXCLUDES(mu_);

  /// Shared pool of hardware_concurrency - 1 workers (0 on a one-thread
  /// host), so its loops use one thread per hardware thread.
  static ThreadPool& global();

 private:
  struct Loop;  // shared state of one parallel_for call
  /// A loop that up to `helpers` more workers may still join. The caller
  /// withdraws its entry once every index is claimed, so the queue holds
  /// only loops with work left.
  struct Pending {
    std::shared_ptr<Loop> loop;
    std::size_t helpers = 0;
  };

  void worker_loop() GF_EXCLUDES(mu_);

  // Written in the constructor, joined in the destructor; never touched
  // while workers run. lint:allow(missing-guard-annotation)
  std::vector<std::thread> workers_;
  util::Mutex mu_;
  util::CondVar cv_;
  std::deque<Pending> queue_ GF_GUARDED_BY(mu_);
  bool stopping_ GF_GUARDED_BY(mu_) = false;
};

}  // namespace groupfel::runtime
