#include "trace.hpp"

#include <atomic>
#include <cstdio>

namespace groupfel::benchmark {

namespace {

std::atomic<std::uint64_t> g_generation{0};

/// The calling thread's buffer in the most recent tracer it recorded into.
struct Slot {
  std::uint64_t generation = 0;
  SpanBuffer* buffer = nullptr;
};
thread_local Slot t_slot;

constexpr const char* kCounterNames[kNumCounters] = {
    "data.batch_ns",     "nn.forward_ns",        "nn.loss_ns",
    "nn.backward_ns",    "nn.optimizer_ns",      "nn.model_exchange_ns",
    "data.samples",      "nn.sgd_steps"};

}  // namespace

Tracer::Tracer()
    : origin_(std::chrono::steady_clock::now()),
      generation_(g_generation.fetch_add(1) + 1) {}

SpanBuffer& Tracer::local() {
  if (t_slot.generation == generation_) return *t_slot.buffer;
  util::MutexLock lock(mu_);
  buffers_.push_back(std::make_unique<SpanBuffer>());
  SpanBuffer& buffer = *buffers_.back();
  buffer.tid = static_cast<std::uint32_t>(buffers_.size() - 1);
  t_slot = {generation_, &buffer};
  return buffer;
}

Span Tracer::open(const char* name, std::uint64_t parent, std::int64_t round) {
  SpanBuffer& buffer = local();
  Span span;
  span.name = name;
  span.parent = parent;
  span.round = round;
  span.tid = buffer.tid;
  span.id = (static_cast<std::uint64_t>(buffer.tid + 1) << 40) |
            ++buffer.next_seq;
  span.start_ns = now_ns();
  return span;
}

void Tracer::close(Span& span) {
  span.end_ns = now_ns();
  local().spans.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  util::MutexLock lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_)
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  return all;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  bool first = true;
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu, \"round\": %lld",
                 first ? "" : ",\n", s.name, s.tid,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.round));
    for (std::size_t c = 0; c < kNumCounters; ++c)
      if (s.counters[c] != 0)
        std::fprintf(f, ", \"%s\": %lld", kCounterNames[c],
                     static_cast<long long>(s.counters[c]));
    std::fputs("}}", f);
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace groupfel::benchmark
