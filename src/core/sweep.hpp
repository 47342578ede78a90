// core::run_sweep — whole-figure experiment execution on top of
// runtime::SweepScheduler and (optionally) forked worker processes.
//
// A figure reproduction is a list of SweepCells (method x seed x config).
// run_sweep dedups identical federation specs so concurrent cells share one
// immutable DataSet, then runs every cell through one of three modes:
//
//   serial          opts.serial_cells — index-order loop (the A/B reference)
//   in-process      SweepBackend::kInProcess — cells concurrent over `pool`
//   multi-process   SweepBackend::kProcess — cells shipped over pipes to
//                   forked workers (runtime/proc wire protocol)
//
// Each cell constructs its own GroupFelTrainer (private replica cache, RNG
// streams derived from its config seed), so results are bit-identical across
// all three modes and for any pool/worker count.
//
// Setting opts.checkpoint_path turns on the per-cell journal
// (core/sweep_journal.hpp): every completed cell is appended and flushed, and
// opts.resume reloads completed cells so a killed sweep re-executes exactly
// the missing ones — byte-identical to an uninterrupted run.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "runtime/sweep_scheduler.hpp"

namespace groupfel::core {

/// One experiment cell: a federation spec plus a fully resolved trainer
/// configuration. `label` tags the result (e.g. "fedavg/seed1").
struct SweepCell {
  std::string label;
  ExperimentSpec spec;
  GroupFelConfig config;
  cost::Task task = cost::Task::kCifar;
  cost::GroupOp op = cost::GroupOp::kSecAgg;
  double cost_budget = 0.0;
};

struct SweepCellResult {
  std::string label;
  TrainResult result;
  double seconds = 0.0;  ///< wall time of this cell
};

struct SweepRunResult {
  std::vector<SweepCellResult> cells;  ///< same order as the input cells
  double total_seconds = 0.0;          ///< wall time of the whole sweep
  std::size_t distinct_experiments = 0;
  /// Cells filled from the `--resume` journal instead of being re-run.
  std::size_t cells_from_checkpoint = 0;
};

/// How cells execute.
enum class SweepBackend {
  kInProcess,  ///< threads of this process (SweepScheduler over `pool`)
  kProcess,    ///< forked worker processes fed over the wire protocol
};

struct SweepOptions {
  /// Pool for both cell-level concurrency and each trainer's internal
  /// parallel loops (in-process backend); null uses ThreadPool::global().
  runtime::ThreadPool* pool = nullptr;
  /// Run cells in a serial index-order loop instead of concurrently (the
  /// trainers still use `pool` internally). Results are identical; this is
  /// the reference mode RunSweep.BitIdenticalForAnyPoolSize compares
  /// against.
  bool serial_cells = false;

  SweepBackend backend = SweepBackend::kInProcess;
  /// Worker processes for SweepBackend::kProcess; 0 picks
  /// std::thread::hardware_concurrency(). Capped at the number of cells.
  std::size_t workers = 0;
  /// Threads INSIDE each worker process (its private ThreadPool). The
  /// default 0 runs inline — forked children must not spin up threads under
  /// TSan, and must never touch the parent's ThreadPool::global().
  std::size_t worker_threads = 0;

  /// Non-empty enables the per-cell checkpoint journal at this path
  /// (conventionally `sweep_checkpoint.bin`).
  std::string checkpoint_path;
  /// With checkpoint_path: reload completed cells from an existing journal
  /// and run only the missing ones. Without it the journal is overwritten.
  bool resume = false;

  /// > 0 logs "completed/total cells" roughly this often (seconds) while the
  /// sweep runs. Default off so tests stay quiet.
  double progress_every_seconds = 0.0;

  /// Test hook: called with each spawned worker's pid (process backend).
  std::function<void(int)> on_worker_spawn;
};

/// Runs every cell and returns per-cell histories in input order. Throws
/// std::runtime_error when a worker process dies or reports an error, or
/// when a resume journal does not match `cells`; completed cells remain in
/// the journal either way.
[[nodiscard]] SweepRunResult run_sweep(const std::vector<SweepCell>& cells,
                                       const SweepOptions& opts = {});

}  // namespace groupfel::core
