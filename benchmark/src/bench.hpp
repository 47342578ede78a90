// Shared declarations of the repository benchmark binary.
//
// The binary runs one workload per process. The untraced run (main.cpp +
// workloads.cpp) times only the library's public entry points:
// core::build_experiment, the GroupFelTrainer constructor,
// GroupFelTrainer::train() and core::run_sweep. The traced run (replay.cpp)
// re-executes the same work stage by stage through each layer's public
// functions, records spans around every call, and must reproduce train()
// bit for bit.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "runtime/thread_pool.hpp"

namespace groupfel::benchmark {

/// A workload is a list of experiment cells. Round workloads hold one cell;
/// each repeat builds it, constructs the trainer and calls train()
/// `trains_per_repeat` times. The sweep workload runs all its cells through
/// core::run_sweep per repeat. `traced_cell` is the cell the traced run
/// replays.
struct Workload {
  std::string name;
  std::vector<core::SweepCell> cells;
  std::size_t traced_cell = 0;
  bool sweep = false;
  std::size_t trains_per_repeat = 1;
};

/// The four workloads, in output order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds a workload for `seed` (throws std::invalid_argument for an unknown
/// name). `smoke` shrinks every dimension so the whole set runs in seconds.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, bool smoke);

/// One reported number: value, unit, sample count, and the samples behind
/// an end-to-end median (written to the result file).
struct Metric {
  Metric() = default;
  Metric(double v, std::string u, std::size_t count)
      : value(v), unit(std::move(u)), n(count) {}

  double value = 0.0;
  std::string unit;
  std::size_t n = 1;
  std::vector<double> samples;
};
using Metrics = std::map<std::string, Metric>;

/// What a run produced: metrics plus the correctness tally. An op is one
/// timed repeat (round workloads) or one sweep cell.
struct Outcome {
  Metrics metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  std::string params_digest;          ///< FNV-1a of the traced cell's params

  void fail(const std::string& why);
};

/// Builds under kSetupExtraBelow seconds are noisy, so both runs top their
/// set-up samples up with set-up-only builds to at least kSetupSamples.
inline constexpr std::size_t kSetupSamples = 20;
inline constexpr double kSetupExtraBelow = 0.5;

struct RunOptions {
  double seconds = 10.0;       ///< measuring window
  std::size_t min_repeats = 3;  ///< timed repeats even past the window
  runtime::ThreadPool* pool = nullptr;
  std::string trace_path;  ///< Chrome trace output of the traced run
  bool smoke = false;      ///< the tiny workloads of --smoke
};

// ---- One untraced repeat (workloads.cpp) ----

struct RepeatResult {
  double build_s = 0.0;         ///< core::build_experiment
  double ctor_s = 0.0;          ///< GroupFelTrainer constructor
  std::vector<double> train_s;  ///< each GroupFelTrainer::train() call
  core::TrainResult result;     ///< of the first call
};

/// Fresh build_experiment + trainer + w.trains_per_repeat train() calls for
/// one cell; throws if a later call's parameters differ from the first's.
[[nodiscard]] RepeatResult run_repeat(const Workload& w,
                                      const core::SweepCell& cell,
                                      runtime::ThreadPool* pool);

/// In-process core::run_sweep over every cell of the workload.
[[nodiscard]] core::SweepRunResult run_sweep_repeat(const Workload& w,
                                                    runtime::ThreadPool* pool);

/// Untraced run: end-to-end metrics.
[[nodiscard]] Outcome run_untraced(const Workload& w, const RunOptions& opts);

/// Traced run: per-layer metrics (replay.cpp).
[[nodiscard]] Outcome run_traced(const Workload& w, const RunOptions& opts);

// ---- Helpers shared by both runs ----

/// FNV-1a over the bytes of a parameter vector, as 16 hex digits.
[[nodiscard]] std::string fnv1a_hex(const std::vector<float>& params);

/// Median (mean of the middle pair for even n); 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> xs);

/// Nearest-rank percentile `pct` in [0, 100]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> xs, double pct);

/// Short method tag of a sweep cell label ("fedavg/seed0" -> "fedavg").
[[nodiscard]] std::string cell_method(const core::SweepCell& cell);

/// Method tags of the sweep workload, in cell order within one seed.
[[nodiscard]] const std::vector<std::string>& sweep_methods();

/// Samples this process's OS thread count (/proc/self/status); call after
/// every repeat. peak_threads() is the highest count sampled so far.
void note_threads();
[[nodiscard]] std::size_t peak_threads();

}  // namespace groupfel::benchmark
