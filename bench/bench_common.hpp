// Shared helpers for the bench binaries (figures, micro_kernels).
//
// Scaling: the paper's experiments ran on 8 V100s; this repository targets
// one CPU core. `--scale` (default 0.33) scales client counts / data sizes,
// and `--rounds` (default 30) sets T. The SHAPE of every reproduced curve is
// preserved; absolute cost/accuracy values shift with scale. Run with
// `--scale=1 --rounds=200` for a paper-scale run.
//
// bench::init(argc, argv) parses the uniform flag set:
//   --scale=F --rounds=N --seeds=N --budget=F --threads=N --out-dir=DIR
//   --backend=inproc|proc --workers=N --checkpoint=PATH --resume
//   --progress=SECONDS
// Cells run as one sweep over the shared ThreadPool via core::run_sweep.
// --backend=proc forks --workers processes and streams cells to them over
// the wire protocol; with --checkpoint (+ --resume) a killed run restarts
// from its completed cells. All modes produce bit-identical results.
#pragma once

#include <cmath>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "util/flags.hpp"

namespace groupfel::bench {

/// Resolved run options shared by every bench binary (set by init()).
struct BenchOptions {
  double scale = 0.33;
  std::size_t rounds = 30;
  std::size_t seeds = 3;
  double budget = -1.0;  ///< < 0: derived from scale (figures.cpp)
  std::string out_dir = "groupfel_results";
  core::SweepBackend backend = core::SweepBackend::kInProcess;
  std::size_t workers = 0;      ///< proc backend; 0 = hardware concurrency
  std::string checkpoint;       ///< journal path; empty = no checkpointing
  bool resume = false;          ///< reload completed cells from `checkpoint`
  double progress = 0.0;        ///< progress log interval; 0 = quiet
  std::unique_ptr<runtime::ThreadPool> owned_pool;  ///< set by --threads
};

/// "inproc" or "proc" -> SweepBackend.
inline core::SweepBackend parse_backend(const std::string& name) {
  if (name == "inproc") return core::SweepBackend::kInProcess;
  if (name == "proc") return core::SweepBackend::kProcess;
  throw std::invalid_argument("--backend: expected inproc|proc, got '" +
                              name + "'");
}

/// --name as a count: the flag when given, else `fallback`. Seeds and rounds
/// need at least 1; workers and threads at least 0.
inline std::size_t flag_count(const util::Flags& flags,
                              const std::string& name, std::size_t fallback,
                              std::int64_t min) {
  if (!flags.has(name)) return fallback;
  const std::int64_t value = flags.get_int(name, 0);
  if (value < min)
    throw std::invalid_argument("--" + name + ": must be >= " +
                                std::to_string(min) + ", got " +
                                std::to_string(value));
  return static_cast<std::size_t>(value);
}

/// Rejects a value of --name that fails `ok` (message names the flag).
inline void check_flag(bool ok, const std::string& name, double value,
                       const std::string& rule) {
  if (!ok)
    throw std::invalid_argument("--" + name + ": must be " + rule + ", got " +
                                std::to_string(value));
}

inline BenchOptions& options() {
  static BenchOptions opts;
  return opts;
}

/// Shared host-context JSON object for every BENCH_*.json writer, so each
/// snapshot records the hardware it was produced on in one uniform place
/// (parallel speedups are only interpretable next to the core count).
inline std::string hardware_context_json() {
  return "{\"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) + "}";
}

/// Parses the uniform flags into options() and returns the parsed Flags so
/// binaries can read their own extras (e.g. figures' --fig and --model).
inline util::Flags init(int argc, char** argv) {
  util::Flags flags(argc, argv);
  BenchOptions& o = options();
  o.scale = flags.get_double("scale", o.scale);
  check_flag(std::isfinite(o.scale) && o.scale > 0.0, "scale", o.scale,
             "finite and > 0");
  o.rounds = flag_count(flags, "rounds", o.rounds, 1);
  o.seeds = flag_count(flags, "seeds", o.seeds, 1);
  o.budget = flags.get_double("budget", o.budget);
  check_flag(std::isfinite(o.budget), "budget", o.budget,
             "finite (< 0 derives it from --scale)");
  o.out_dir = flags.get_string("out-dir", o.out_dir);
  const std::string backend = flags.get_string("backend", "");
  if (!backend.empty()) o.backend = parse_backend(backend);
  o.workers = flag_count(flags, "workers", o.workers, 0);
  o.checkpoint = flags.get_string("checkpoint", o.checkpoint);
  o.resume = flags.get_bool("resume", o.resume);
  o.progress = flags.get_double("progress", o.progress);
  check_flag(std::isfinite(o.progress) && o.progress >= 0.0, "progress",
             o.progress, "finite and >= 0");
  if (flags.has("threads"))
    o.owned_pool = std::make_unique<runtime::ThreadPool>(
        flag_count(flags, "threads", 0, 0));
  return flags;
}

inline double bench_scale() { return options().scale; }
inline std::size_t bench_rounds() { return options().rounds; }

/// Seeds averaged per configuration (default 3). Single-seed FL curves at
/// this scale carry ~±1.5% accuracy noise; the paper's method ordering is
/// about means.
inline std::size_t bench_seeds() { return options().seeds; }

inline core::SweepOptions sweep_options() {
  core::SweepOptions opts;
  opts.pool = options().owned_pool.get();  // null: ThreadPool::global()
  opts.backend = options().backend;
  opts.workers = options().workers;
  opts.checkpoint_path = options().checkpoint;
  opts.resume = options().resume;
  opts.progress_every_seconds = options().progress;
  return opts;
}

/// Output directory for CSVs (created on demand).
inline std::string results_dir() {
  std::filesystem::create_directories(options().out_dir);
  return options().out_dir;
}

/// The common Algorithm 1 hyperparameters used across figure benches
/// (paper: K=5, E=2; scaled K keeps per-round cost tractable).
inline core::GroupFelConfig base_config(std::uint64_t seed = 97) {
  core::GroupFelConfig cfg;
  cfg.global_rounds = bench_rounds();
  cfg.group_rounds = 5;   // paper: K = 5
  cfg.local_epochs = 2;   // paper: E = 2
  cfg.sampled_groups = 6;
  cfg.local.batch_size = 8;
  cfg.local.lr = 0.1f;
  cfg.grouping_params.min_group_size = 5;
  cfg.grouping_params.max_cov = 1.0;
  cfg.eval_every = 1;
  cfg.seed = seed;
  return cfg;
}

/// Pointwise average of per-seed training histories (same round grid).
inline core::TrainResult average_results(
    const std::vector<core::TrainResult>& results) {
  core::TrainResult avg = results.front();
  for (std::size_t i = 1; i < results.size(); ++i) {
    const auto& r = results[i];
    for (std::size_t j = 0; j < avg.history.size() && j < r.history.size();
         ++j) {
      avg.history[j].accuracy += r.history[j].accuracy;
      avg.history[j].test_loss += r.history[j].test_loss;
      avg.history[j].train_loss += r.history[j].train_loss;
      avg.history[j].cumulative_cost += r.history[j].cumulative_cost;
    }
    avg.total_cost += r.total_cost;
    avg.grouping.avg_cov += r.grouping.avg_cov;
    avg.grouping.avg_size += r.grouping.avg_size;
  }
  const double n = static_cast<double>(results.size());
  for (auto& m : avg.history) {
    m.accuracy /= n;
    m.test_loss /= n;
    m.train_loss /= n;
    m.cumulative_cost /= n;
  }
  avg.total_cost /= n;
  avg.grouping.avg_cov /= n;
  avg.grouping.avg_size /= n;
  avg.best_accuracy = 0.0;
  for (const auto& m : avg.history)
    avg.best_accuracy = std::max(avg.best_accuracy, m.accuracy);
  avg.final_accuracy = avg.history.empty() ? 0.0 : avg.history.back().accuracy;
  return avg;
}

/// The bench_seeds() copies of `cell` that a seed-averaged configuration
/// runs. The federation seed follows spec.seed + 1000*s and the trainer
/// seed is derived from it, so every driver's seed-s federation is the
/// same federation.
inline std::vector<core::SweepCell> seed_cells(const core::SweepCell& cell) {
  std::vector<core::SweepCell> cells(bench_seeds(), cell);
  for (std::size_t s = 0; s < cells.size(); ++s) {
    cells[s].label = cell.label + "/seed" + std::to_string(s);
    cells[s].spec.seed = cell.spec.seed + 1000 * s;
    cells[s].config.seed = cells[s].spec.seed ^ 0x5eed;
  }
  return cells;
}

}  // namespace groupfel::bench
