// Shared helpers for the per-figure benchmark drivers.
//
// Scaling: the paper's experiments ran on 8 V100s; this repository targets
// one CPU core. `--scale` (default 0.33) scales client counts / data sizes,
// and `--rounds` (default 30) sets T. The SHAPE of every reproduced curve is
// preserved; absolute cost/accuracy values shift with scale. Run with
// `--scale=1 --rounds=200` for a paper-scale run.
//
// Every driver calls bench::init(argc, argv) first, which parses the uniform
// flag set (the GROUPFEL_BENCH_* environment variables remain as fallback):
//   --scale=F --rounds=N --seeds=N --budget=F --threads=N --out-dir=DIR
//   --serial-cells --backend=inproc|proc --workers=N --checkpoint=PATH
//   --resume --progress=SECONDS
// Seed loops and method loops execute as one sweep over the shared
// ThreadPool via core::run_sweep (bit-identical to the historical serial
// loops); --serial-cells restores serial cell execution for A/B timing.
// --backend=proc forks --workers processes and streams cells to them over
// the wire protocol; with --checkpoint (+ --resume) a killed run restarts
// from its completed cells. All modes produce bit-identical results.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/format.hpp"

namespace groupfel::bench {

/// Resolved run options shared by every figure driver. Environment defaults
/// are read once; init()'s command-line flags override them.
struct BenchOptions {
  double scale = 0.33;
  std::size_t rounds = 30;
  std::size_t seeds = 3;
  double budget = -1.0;  ///< < 0: derived from scale (see bench_budget)
  std::string out_dir = "groupfel_results";
  bool serial_cells = false;
  core::SweepBackend backend = core::SweepBackend::kInProcess;
  std::size_t workers = 0;      ///< proc backend; 0 = hardware concurrency
  std::string checkpoint;       ///< journal path; empty = no checkpointing
  bool resume = false;          ///< reload completed cells from `checkpoint`
  double progress = 0.0;        ///< progress log interval; 0 = quiet
  std::unique_ptr<runtime::ThreadPool> owned_pool;  ///< set by --threads
};

/// "inproc" or "proc" -> SweepBackend (exits with a message otherwise).
inline core::SweepBackend parse_backend(const std::string& name) {
  if (name == "inproc") return core::SweepBackend::kInProcess;
  if (name == "proc") return core::SweepBackend::kProcess;
  std::cerr << "unknown --backend '" << name << "' (expected inproc|proc)\n";
  std::exit(2);
}

/// Checks a parsed count against its lower bound (seeds and rounds need at
/// least 1; workers and threads at least 0) and narrows it to size_t.
inline std::size_t checked_count(const std::string& name, std::int64_t value,
                                 std::int64_t min) {
  if (value < min)
    throw std::invalid_argument(name + ": must be >= " + std::to_string(min) +
                                ", got " + std::to_string(value));
  return static_cast<std::size_t>(value);
}

inline std::size_t env_count(const std::string& name, const char* text,
                             std::int64_t min) {
  return checked_count(name, util::parse_int(name, text), min);
}

/// --name as a count: the flag when given (bounds-checked), else `fallback`.
inline std::size_t flag_count(const util::Flags& flags,
                              const std::string& name, std::size_t fallback,
                              std::int64_t min) {
  if (!flags.has(name)) return fallback;
  return checked_count("--" + name, flags.get_int(name, 0), min);
}

inline BenchOptions& options() {
  static BenchOptions opts = [] {
    BenchOptions o;
    if (const char* env = std::getenv("GROUPFEL_BENCH_SCALE"))
      o.scale = util::parse_double("GROUPFEL_BENCH_SCALE", env);
    if (const char* env = std::getenv("GROUPFEL_BENCH_ROUNDS"))
      o.rounds = env_count("GROUPFEL_BENCH_ROUNDS", env, 1);
    if (const char* env = std::getenv("GROUPFEL_BENCH_SEEDS"))
      o.seeds = env_count("GROUPFEL_BENCH_SEEDS", env, 1);
    if (const char* env = std::getenv("GROUPFEL_BENCH_BUDGET"))
      o.budget = util::parse_double("GROUPFEL_BENCH_BUDGET", env);
    if (const char* env = std::getenv("GROUPFEL_BENCH_OUT")) o.out_dir = env;
    if (const char* env = std::getenv("GROUPFEL_BENCH_SERIAL"))
      o.serial_cells = std::atoi(env) != 0;
    if (const char* env = std::getenv("GROUPFEL_BENCH_BACKEND"))
      o.backend = parse_backend(env);
    if (const char* env = std::getenv("GROUPFEL_BENCH_WORKERS"))
      o.workers = env_count("GROUPFEL_BENCH_WORKERS", env, 0);
    if (const char* env = std::getenv("GROUPFEL_BENCH_CHECKPOINT"))
      o.checkpoint = env;
    if (const char* env = std::getenv("GROUPFEL_BENCH_RESUME"))
      o.resume = std::atoi(env) != 0;
    if (const char* env = std::getenv("GROUPFEL_BENCH_PROGRESS"))
      o.progress = util::parse_double("GROUPFEL_BENCH_PROGRESS", env);
    return o;
  }();
  return opts;
}

/// Shared host-context JSON object for every BENCH_*.json writer, so each
/// snapshot records the hardware it was produced on in one uniform place
/// (parallel speedups are only interpretable next to the core count).
inline std::string hardware_context_json() {
  return "{\"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) + "}";
}

/// Parses the uniform driver flags into options() and returns the parsed
/// Flags so drivers can read their own extras (e.g. fig9's --model).
inline util::Flags init(int argc, char** argv) {
  util::Flags flags(argc, argv);
  BenchOptions& o = options();
  o.scale = flags.get_double("scale", o.scale);
  o.rounds = flag_count(flags, "rounds", o.rounds, 1);
  o.seeds = flag_count(flags, "seeds", o.seeds, 1);
  o.budget = flags.get_double("budget", o.budget);
  o.out_dir = flags.get_string("out-dir", o.out_dir);
  o.serial_cells = flags.get_bool("serial-cells", o.serial_cells);
  const std::string backend = flags.get_string("backend", "");
  if (!backend.empty()) o.backend = parse_backend(backend);
  o.workers = flag_count(flags, "workers", o.workers, 0);
  o.checkpoint = flags.get_string("checkpoint", o.checkpoint);
  o.resume = flags.get_bool("resume", o.resume);
  o.progress = flags.get_double("progress", o.progress);
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

/// Pool driving both cell-level and trainer-internal parallelism; null
/// means ThreadPool::global().
inline runtime::ThreadPool* bench_pool() { return options().owned_pool.get(); }

inline core::SweepOptions sweep_options() {
  core::SweepOptions opts;
  opts.pool = bench_pool();
  opts.serial_cells = options().serial_cells;
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

/// Runs one named method on a prebuilt experiment and returns its history.
inline core::TrainResult run_method(const core::Experiment& exp,
                                    core::Method method,
                                    const core::GroupFelConfig& base,
                                    cost::Task task,
                                    double cost_budget = 0.0) {
  core::GroupFelConfig cfg = base;
  core::apply_method(method, cfg);
  core::GroupFelTrainer trainer(
      exp.topology, cfg,
      core::build_cost_model(task, core::cost_group_op(method)));
  return trainer.train(cost_budget);
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

/// Builds the per-seed cells of one configuration. The federation seed
/// follows spec0.seed + 1000*s and the trainer seed is derived from it —
/// the exact scheme of the historical serial loop, so sweeping the cells
/// reproduces it bit for bit.
template <typename Mutator>
std::vector<core::SweepCell> seed_cells(const core::ExperimentSpec& spec0,
                                        const core::GroupFelConfig& cfg0,
                                        cost::Task task, cost::GroupOp op,
                                        const std::string& label,
                                        Mutator&& mutate) {
  std::vector<core::SweepCell> cells(bench_seeds());
  for (std::size_t s = 0; s < cells.size(); ++s) {
    core::SweepCell& cell = cells[s];
    cell.label = label + "/seed" + std::to_string(s);
    cell.spec = spec0;
    cell.spec.seed = spec0.seed + 1000 * s;
    cell.config = cfg0;
    cell.config.seed = cell.spec.seed ^ 0x5eed;
    mutate(cell.config);
    cell.task = task;
    cell.op = op;
  }
  return cells;
}

/// Runs prebuilt cells through the shared scheduler (per-cell results in
/// input order). Drivers with bespoke config grids use this directly.
inline std::vector<core::SweepCellResult> run_cells(
    const std::vector<core::SweepCell>& cells) {
  return core::run_sweep(cells, sweep_options()).cells;
}

/// Runs an arbitrary configuration (mutator applies method/combo settings)
/// across bench_seeds() freshly-built federations — concurrently, as one
/// sweep — and averages the curves.
template <typename Mutator>
core::TrainResult run_config_seeds(const core::ExperimentSpec& spec0,
                                   const core::GroupFelConfig& cfg0,
                                   cost::Task task, cost::GroupOp op,
                                   Mutator&& mutate) {
  const auto cells = seed_cells(spec0, cfg0, task, op, "cfg",
                                std::forward<Mutator>(mutate));
  std::vector<core::TrainResult> results;
  results.reserve(cells.size());
  for (auto& cell : run_cells(cells)) results.push_back(std::move(cell.result));
  return average_results(results);
}

/// Seed-averaged run of one named method.
inline core::TrainResult run_method_seeds(const core::ExperimentSpec& spec,
                                          core::Method method,
                                          const core::GroupFelConfig& cfg,
                                          cost::Task task) {
  return run_config_seeds(
      spec, cfg, task, core::cost_group_op(method),
      [method](core::GroupFelConfig& c) { core::apply_method(method, c); });
}

/// One sweep over every (method x seed) cell of a figure; returns the
/// seed-averaged result per method, in `methods` order. Bit-identical to
/// calling run_method_seeds per method, but all cells overlap on the pool.
/// `tweak` applies per-method config adjustments (e.g. FedCLAR's cluster
/// round) before the method preset.
inline std::vector<core::TrainResult> run_methods(
    const core::ExperimentSpec& spec0,
    const std::vector<core::Method>& methods,
    const core::GroupFelConfig& base, cost::Task task,
    const std::function<void(core::Method, core::GroupFelConfig&)>& tweak =
        {}) {
  const std::size_t seeds = bench_seeds();
  std::vector<core::SweepCell> cells;
  cells.reserve(methods.size() * seeds);
  for (const auto method : methods) {
    core::GroupFelConfig cfg = base;
    if (tweak) tweak(method, cfg);
    auto method_cells = seed_cells(
        spec0, cfg, task, core::cost_group_op(method),
        core::to_string(method),
        [method](core::GroupFelConfig& c) { core::apply_method(method, c); });
    for (auto& cell : method_cells) cells.push_back(std::move(cell));
  }
  const auto results = run_cells(cells);
  std::vector<core::TrainResult> out;
  out.reserve(methods.size());
  std::vector<core::TrainResult> per_seed(seeds);
  for (std::size_t m = 0; m < methods.size(); ++m) {
    for (std::size_t s = 0; s < seeds; ++s)
      per_seed[s] = results[m * seeds + s].result;
    out.push_back(average_results(per_seed));
  }
  return out;
}

/// Converts a history to an accuracy-vs-cost series.
inline util::Series cost_series(const std::string& name,
                                const core::TrainResult& result) {
  util::Series s;
  s.name = name;
  for (const auto& m : result.history) {
    s.x.push_back(m.cumulative_cost);
    s.y.push_back(m.accuracy);
  }
  return s;
}

/// Best accuracy reached within a cost budget (Fig. 10/11 protocol: every
/// method gets the SAME spend; history entries beyond it are ignored).
inline double accuracy_at_cost(const core::TrainResult& result,
                               double budget) {
  double best = 0.0;
  for (const auto& m : result.history)
    if (m.cumulative_cost <= budget) best = std::max(best, m.accuracy);
  return best;
}

/// Shared budget for the cost-domain comparisons, scaled off the default
/// bench scale (the paper uses 1e6 at full scale). Override with --budget.
inline double bench_budget() {
  if (options().budget >= 0.0) return options().budget;
  return 4e5 * (bench_scale() / 0.33);
}

/// Converts a history to an accuracy-vs-round series.
inline util::Series round_series(const std::string& name,
                                 const core::TrainResult& result) {
  util::Series s;
  s.name = name;
  for (const auto& m : result.history) {
    s.x.push_back(static_cast<double>(m.round));
    s.y.push_back(m.accuracy);
  }
  return s;
}

/// Writes a set of series as one long-format CSV (series,x,y).
inline void write_series_csv(const std::string& filename,
                             const std::string& x_name,
                             const std::string& y_name,
                             const std::vector<util::Series>& series) {
  util::CsvWriter csv(results_dir() + "/" + filename,
                      {"series", x_name, y_name});
  for (const auto& s : series)
    for (std::size_t i = 0; i < s.x.size(); ++i)
      csv.row_strings({s.name, util::format_double(s.x[i]),
                       util::format_double(s.y[i])});
  csv.flush();
  std::cout << "wrote " << results_dir() << "/" << filename << "\n";
}

}  // namespace groupfel::bench
