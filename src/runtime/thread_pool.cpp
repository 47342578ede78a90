#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace groupfel::runtime {

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

/// Shared state of one parallel_for call. Every worker that joins the loop
/// holds it by shared_ptr, so a worker that gets there after the last index
/// was claimed (or after the caller rethrew) finds only a harmless no-op —
/// never a dangling stack frame. `body` may point into the caller's frame:
/// it is called only for claimed indices, and the caller returns only after
/// every claimed index finished. This also makes nested parallel_for safe:
/// the caller always finishes the loop itself, so it never blocks on a
/// helper that cannot be scheduled.
struct ThreadPool::Loop {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t n_total = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  util::Mutex error_mu;
  std::exception_ptr first_error GF_GUARDED_BY(error_mu);
  util::Mutex done_mu;
  util::CondVar done_cv;

  void run() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n_total) return;
      try {
        (*body)(i);
      } catch (...) {
        util::MutexLock lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n_total) {
        util::MutexLock lock(done_mu);
        done_cv.notify_all();
      }
    }
  }
};

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Loop> loop;
    {
      util::MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) cv_.wait(mu_);
      if (queue_.empty()) return;  // stopping, queue drained
      Pending& front = queue_.front();
      loop = front.loop;
      if (--front.helpers == 0) queue_.pop_front();
    }
    loop->run();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto loop = std::make_shared<Loop>();
  loop->body = &body;
  loop->n_total = n;

  // Up to one helper per worker, but no more than the iterations beyond the
  // caller's, who participates: the loop runs on up to size() + 1 threads.
  // A shared atomic cursor self-balances imbalanced iteration costs.
  const std::size_t helpers = std::min(workers_.size(), n - 1);
  {
    util::MutexLock lock(mu_);
    queue_.push_back({loop, helpers});
  }
  cv_.notify_all();
  loop->run();
  // Every index is claimed: withdraw the helper slots no worker took. On a
  // pool whose workers are all busy (cells of a sweep, each running nested
  // loops) the entry would otherwise wait, holding its loop state, until a
  // worker came free.
  {
    util::MutexLock lock(mu_);
    const auto it =
        std::find_if(queue_.begin(), queue_.end(),
                     [&](const Pending& p) { return p.loop == loop; });
    if (it != queue_.end()) queue_.erase(it);
  }

  {
    util::MutexLock lock(loop->done_mu);
    while (loop->done.load(std::memory_order_acquire) < n)
      loop->done_cv.wait(loop->done_mu);
  }
  // Every write to first_error happens-before the final `done` increment we
  // just observed, but take the lock anyway: it is uncontended by now, and
  // keeps the access pattern uniform for the static analysis.
  std::exception_ptr err;
  {
    util::MutexLock lock(loop->error_mu);
    err = loop->first_error;
  }
  if (err) std::rethrow_exception(err);
}

ThreadPool& ThreadPool::global() {
  // The caller joins every loop, so hw - 1 workers give hw threads.
  static ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()) -
                         1);
  return pool;
}

}  // namespace groupfel::runtime
