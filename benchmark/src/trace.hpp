// In-memory span recorder for the traced replay.
//
// Each thread appends completed spans to its own buffer (found through a
// thread_local slot, so recording takes no lock after a thread's first
// span). Spans carry the layer-metric name, start/end in nanoseconds since
// the tracer was created, the id of the span that caused them, and the
// global round. Per-step times inside a client update are counters on the
// client span, not spans of their own. Buffers are read and written out
// once the replay has finished.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace groupfel::benchmark {

/// Counters a client-update span accumulates over its SGD steps.
enum Counter : std::size_t {
  kBatchNs,      ///< ClientDataRef::batch_into (shard synthesis / gather)
  kForwardNs,    ///< Model::forward
  kLossNs,       ///< softmax_cross_entropy_into
  kBackwardNs,   ///< Model::backward
  kOptimizerNs,  ///< SgdOptimizer::step
  kExchangeNs,   ///< replica lookup, set_flat_parameters, flat_parameters_into
  kSamples,
  kSteps,
  kNumCounters
};

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::int64_t round = -1;   ///< -1 outside the round loop
  std::uint32_t tid = 0;
  std::array<std::int64_t, kNumCounters> counters{};

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// One thread's recorded spans.
struct SpanBuffer {
  std::uint32_t tid = 0;
  std::uint64_t next_seq = 0;
  std::vector<Span> spans;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Nanoseconds since construction.
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  /// A fresh span on the calling thread (not yet recorded).
  [[nodiscard]] Span open(const char* name, std::uint64_t parent,
                          std::int64_t round);
  /// Stamps the end time and appends the span to the calling thread's
  /// buffer.
  void close(Span& span);

  /// Every recorded span, thread buffers in registration order.
  [[nodiscard]] std::vector<Span> spans() const GF_EXCLUDES(mu_);

  /// Writes the spans as Chrome trace_event JSON (chrome://tracing and
  /// https://ui.perfetto.dev open it). Returns false if the file could not
  /// be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  SpanBuffer& local() GF_EXCLUDES(mu_);

  std::chrono::steady_clock::time_point origin_;
  std::uint64_t generation_;  ///< tells this tracer's thread slots apart
  mutable util::Mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_ GF_GUARDED_BY(mu_);
};

/// RAII span: opened at construction, recorded at destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent,
             std::int64_t round)
      : tracer_(tracer), span_(tracer.open(name, parent, round)) {}
  ~ScopedSpan() { tracer_.close(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }
  std::int64_t& counter(Counter c) { return span_.counters[c]; }

 private:
  Tracer& tracer_;
  Span span_;
};

}  // namespace groupfel::benchmark
