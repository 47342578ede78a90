// Multi-process execution backend for core::run_sweep.
//
// The parent forks N workers (runtime/proc/subprocess.hpp), ships each one a
// SweepCell frame over its stdin pipe, and collects SweepCellResult frames
// as they finish — a work-stealing dispatcher: whichever worker returns
// first gets the next pending cell. Closing a worker's pipe is the shutdown
// signal; workers exit 0 on EOF.
//
// Pipe protocol (frame types over runtime/proc/wire.hpp):
//   kCellFrame    parent -> worker   u64 cell index + encoded SweepCell
//   kResultFrame  worker -> parent   u64 cell index + encoded SweepCellResult
//   kErrorFrame   worker -> parent   u64 cell index + error string
//
// Workers are forked from the host binary (no exec), so the dispatcher works
// from any bench driver or test. Each worker builds its own Experiment cache
// and its own ThreadPool; it must never touch the parent's global pool (the
// pool threads do not exist after fork).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/sweep.hpp"

namespace groupfel::core {

/// Frame tags of the worker pipe protocol (distinct from the journal's tags
/// so a journal fed to a worker — or vice versa — fails loudly).
inline constexpr std::uint8_t kCellFrame = 10;
inline constexpr std::uint8_t kResultFrame = 11;
inline constexpr std::uint8_t kErrorFrame = 12;

/// Body of a forked sweep worker: reads kCellFrame messages from `in_fd`,
/// trains each cell inline on a private 0-thread pool, and writes
/// kResultFrame (or kErrorFrame on a per-cell exception) to `out_fd`.
/// Returns the process exit code: 0 on clean EOF from the parent, nonzero
/// on a damaged stream.
[[nodiscard]] int sweep_worker_loop(int in_fd, int out_fd);

/// Dispatches `pending` (indices into `cells`) across forked workers and
/// invokes `on_result(index, result)` on the parent thread in completion
/// order. Worker count comes from `opts.workers` (0 = hardware concurrency),
/// capped at pending.size(). Throws std::runtime_error when a worker dies
/// (with its pid and exit/signal status) or reports a cell error — results
/// already delivered through `on_result` stay delivered, which is what lets
/// the checkpoint journal keep completed cells across a crash.
void run_sweep_process(
    const std::vector<SweepCell>& cells,
    const std::vector<std::size_t>& pending, const SweepOptions& opts,
    const std::function<void(std::size_t, SweepCellResult&&)>& on_result);

}  // namespace groupfel::core
