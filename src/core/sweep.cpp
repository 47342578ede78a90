#include "core/sweep.hpp"

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "core/sweep_codec.hpp"
#include "core/sweep_journal.hpp"
#include "core/sweep_proc.hpp"
#include "runtime/timer.hpp"
#include "util/logging.hpp"
#include "util/sync.hpp"

namespace groupfel::core {

SweepRunResult run_sweep(const std::vector<SweepCell>& cells,
                         const SweepOptions& opts) {
  runtime::Timer total;
  SweepRunResult out;
  out.cells.resize(cells.size());

  // Distinct federation specs over ALL cells (reported even for cells later
  // filled from the journal — it describes the sweep, not this run).
  std::vector<ExperimentSpec> specs;
  std::vector<std::size_t> spec_of(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::size_t found = specs.size();
    for (std::size_t s = 0; s < specs.size(); ++s)
      if (specs[s] == cells[i].spec) {
        found = s;
        break;
      }
    if (found == specs.size()) specs.push_back(cells[i].spec);
    spec_of[i] = found;
  }
  out.distinct_experiments = specs.size();

  // Checkpoint journal: with --resume, reload completed cells first; either
  // way the journal is rewritten (header + retained records), healing any
  // truncated tail a previous kill left behind.
  std::map<std::size_t, SweepCellResult> retained;
  std::unique_ptr<SweepJournal> journal;
  if (!opts.checkpoint_path.empty()) {
    const std::uint64_t fingerprint = sweep_fingerprint(cells);
    if (opts.resume)
      retained =
          SweepJournal::load(opts.checkpoint_path, fingerprint, cells.size());
    journal = std::make_unique<SweepJournal>(opts.checkpoint_path, fingerprint,
                                             cells.size(), retained);
  }
  out.cells_from_checkpoint = retained.size();
  std::vector<std::size_t> pending;
  pending.reserve(cells.size() - retained.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    auto it = retained.find(i);
    if (it == retained.end())
      pending.push_back(i);
    else
      out.cells[i] = std::move(it->second);
  }

  const std::size_t already_done = retained.size();

  if (opts.backend == SweepBackend::kProcess) {
    // Dispatcher runs on this thread; completions arrive one at a time, so
    // journal appends and progress logging need no locking here.
    runtime::Timer progress_clock;
    double next_log = opts.progress_every_seconds;
    std::size_t completed = 0;
    run_sweep_process(cells, pending, opts,
                      [&](std::size_t i, SweepCellResult&& result) {
                        if (journal) journal->append(i, result);
                        out.cells[i] = std::move(result);
                        ++completed;
                        if (opts.progress_every_seconds > 0 &&
                            progress_clock.seconds() >= next_log) {
                          util::log_info("sweep progress: ",
                                         already_done + completed, "/",
                                         cells.size(), " cells");
                          next_log += opts.progress_every_seconds;
                        }
                      });
    out.total_seconds = total.seconds();
    return out;
  }

  // In-process (or serial) backend. Build each distinct federation once —
  // only the specs a pending cell actually needs; cells referencing the same
  // spec share the experiment (the DataSet inside is immutable and shared
  // via shared_ptr, so concurrent trainers read it without copies).
  runtime::ThreadPool* pool =
      opts.pool != nullptr ? opts.pool : &runtime::ThreadPool::global();
  std::vector<std::unique_ptr<Experiment>> experiments(specs.size());
  for (std::size_t i : pending)
    if (experiments[spec_of[i]] == nullptr)
      experiments[spec_of[i]] =
          std::make_unique<Experiment>(build_experiment(specs[spec_of[i]]));

  runtime::SweepScheduler scheduler(*pool);

  // Progress monitor: cells_completed() is documented safe to poll while
  // run() is in flight, so a plain sidecar thread reports without touching
  // the cell bodies. Joined before run_sweep returns.
  std::atomic<bool> stop{false};
  std::thread monitor;
  if (opts.progress_every_seconds > 0 && !pending.empty()) {
    monitor = std::thread([&] {
      runtime::Timer clock;
      double next_log = opts.progress_every_seconds;
      while (!stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if (clock.seconds() >= next_log) {
          util::log_info("sweep progress: ",
                         already_done + scheduler.cells_completed(), "/",
                         cells.size(), " cells");
          next_log += opts.progress_every_seconds;
        }
      }
    });
  }

  util::Mutex journal_mu;  // appends come from concurrent cell bodies
  try {
    scheduler.run(pending.size(), [&](std::size_t k) {
      const std::size_t i = pending[k];
      const SweepCell& cell = cells[i];
      GroupFelTrainer trainer(experiments[spec_of[i]]->topology, cell.config,
                              build_cost_model(cell.task, cell.op), pool);
      runtime::Timer timer;
      out.cells[i].label = cell.label;
      out.cells[i].result = trainer.train(cell.cost_budget);
      out.cells[i].seconds = timer.seconds();
      if (journal) {
        util::MutexLock lock(journal_mu);
        journal->append(i, out.cells[i]);
      }
    });
  } catch (...) {
    stop.store(true, std::memory_order_relaxed);
    if (monitor.joinable()) monitor.join();
    throw;
  }
  stop.store(true, std::memory_order_relaxed);
  if (monitor.joinable()) monitor.join();

  out.total_seconds = total.seconds();
  return out;
}

}  // namespace groupfel::core
