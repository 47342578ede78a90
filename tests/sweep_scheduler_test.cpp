// SweepScheduler + core::run_sweep tests: deterministic per-cell seeds,
// index-ordered result collection, spec deduplication, and the headline
// contract — a scheduled sweep is bit-identical to the serial loop for any
// pool size (0 = inline, undersized, oversized).
#include "runtime/sweep_scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "core/trainer.hpp"

namespace groupfel {
namespace {

TEST(CellSeed, DeterministicAndDistinct) {
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint64_t s = runtime::cell_seed(7, i);
    EXPECT_EQ(s, runtime::cell_seed(7, i));  // pure function of (root, index)
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 64u);
  EXPECT_NE(runtime::cell_seed(7, 0), runtime::cell_seed(8, 0));
}

TEST(SweepScheduler, RunsEveryCellExactlyOnce) {
  for (const std::size_t threads : {0UL, 2UL, 24UL}) {
    runtime::ThreadPool pool(threads);
    runtime::SweepScheduler sched(&pool);
    std::vector<std::atomic<int>> hits(17);
    sched.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    EXPECT_EQ(sched.cell_seconds().size(), hits.size());
    EXPECT_EQ(sched.cells_completed(), hits.size());
  }
}

TEST(SweepScheduler, MapCollectsByIndex) {
  runtime::ThreadPool pool(4);
  runtime::SweepScheduler sched(&pool);
  const std::vector<std::uint64_t> out = sched.map<std::uint64_t>(
      32, [](std::size_t i) { return runtime::cell_seed(3, i); });
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], runtime::cell_seed(3, i));
}

// ---- run_sweep integration ------------------------------------------------

/// Tiny but non-trivial sweep: three methods (including SCAFFOLD, whose
/// server control-variate fold is the historically order-sensitive spot) on
/// one shared federation plus one cell with a different spec.
std::vector<core::SweepCell> tiny_cells() {
  core::ExperimentSpec spec;
  spec.num_clients = 12;
  spec.num_edges = 2;
  spec.size_mean = 24;
  spec.size_std = 4;
  spec.size_min = 16;
  spec.size_max = 32;
  spec.test_size = 60;
  spec.mlp_hidden = 16;
  spec.seed = 11;

  std::vector<core::SweepCell> cells;
  for (const auto method : {core::Method::kFedAvg, core::Method::kScaffold,
                            core::Method::kGroupFel}) {
    core::SweepCell cell;
    cell.label = core::to_string(method);
    cell.spec = spec;
    cell.config.global_rounds = 2;
    cell.config.group_rounds = 2;
    cell.config.local_epochs = 1;
    cell.config.sampled_groups = 2;
    cell.config.local.batch_size = 8;
    cell.config.grouping_params.min_group_size = 3;
    cell.config.eval_every = 1;
    cell.config.seed = spec.seed ^ 0x5eed;
    core::apply_method(method, cell.config);
    cell.task = spec.task;
    cell.op = core::cost_group_op(method);
    cells.push_back(std::move(cell));
  }
  core::SweepCell other = cells.front();
  other.label = "FedAvg/seed1";
  other.spec.seed = spec.seed + 1000;
  other.config.seed = other.spec.seed ^ 0x5eed;
  cells.push_back(std::move(other));
  return cells;
}

void expect_sweeps_identical(const core::SweepRunResult& a,
                             const core::SweepRunResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].label, b.cells[i].label);
    const core::TrainResult& ra = a.cells[i].result;
    const core::TrainResult& rb = b.cells[i].result;
    ASSERT_EQ(ra.history.size(), rb.history.size()) << a.cells[i].label;
    for (std::size_t j = 0; j < ra.history.size(); ++j) {
      EXPECT_EQ(ra.history[j].accuracy, rb.history[j].accuracy)
          << a.cells[i].label << " round " << j;
      EXPECT_EQ(ra.history[j].train_loss, rb.history[j].train_loss)
          << a.cells[i].label << " round " << j;
      EXPECT_EQ(ra.history[j].test_loss, rb.history[j].test_loss)
          << a.cells[i].label << " round " << j;
      EXPECT_EQ(ra.history[j].cumulative_cost, rb.history[j].cumulative_cost)
          << a.cells[i].label << " round " << j;
    }
    ASSERT_EQ(ra.final_params.size(), rb.final_params.size());
    for (std::size_t j = 0; j < ra.final_params.size(); ++j)
      EXPECT_EQ(ra.final_params[j], rb.final_params[j])
          << a.cells[i].label << " param " << j;
  }
}

TEST(RunSweep, DeduplicatesSharedSpecs) {
  const std::vector<core::SweepCell> cells = tiny_cells();
  runtime::ThreadPool pool(2);
  core::SweepOptions opts;
  opts.pool = &pool;
  const core::SweepRunResult r = core::run_sweep(cells, opts);
  // Three method cells share one spec; the seed-shifted cell adds another.
  EXPECT_EQ(r.distinct_experiments, 2u);
  EXPECT_EQ(r.cells.size(), cells.size());
}

TEST(RunSweep, BitIdenticalForAnyPoolSize) {
  const std::vector<core::SweepCell> cells = tiny_cells();

  // Reference: serial cell loop on an inline pool.
  runtime::ThreadPool inline_pool(0);
  core::SweepOptions ref_opts;
  ref_opts.pool = &inline_pool;
  ref_opts.serial_cells = true;
  const core::SweepRunResult reference = core::run_sweep(cells, ref_opts);

  for (const std::size_t threads : {0UL, 2UL, 24UL}) {
    runtime::ThreadPool pool(threads);
    core::SweepOptions opts;
    opts.pool = &pool;
    const core::SweepRunResult concurrent = core::run_sweep(cells, opts);
    expect_sweeps_identical(reference, concurrent);

    core::SweepOptions serial_opts;
    serial_opts.pool = &pool;
    serial_opts.serial_cells = true;
    const core::SweepRunResult serial = core::run_sweep(cells, serial_opts);
    expect_sweeps_identical(reference, serial);
  }
}

// run_sweep's execution strategy (one build per distinct spec, scheduled
// cells, the zero-alloc minibatch pipeline) must reproduce the plain
// per-cell loop — a fresh build_experiment and GroupFelTrainer per cell on
// the allocating SGD path — bit for bit, for all six fig9 methods.
TEST(RunSweep, MatchesPerCellBuildAndTrain) {
  core::ExperimentSpec spec;
  spec.num_clients = 24;
  spec.num_edges = 2;
  spec.size_mean = 40;
  spec.size_std = 10;
  spec.size_min = 16;
  spec.size_max = 64;
  spec.test_size = 200;
  spec.mlp_hidden = 32;
  spec.seed = 7;

  std::vector<core::SweepCell> cells;
  for (const auto method :
       {core::Method::kFedAvg, core::Method::kFedProx, core::Method::kScaffold,
        core::Method::kGroupFel, core::Method::kOuea, core::Method::kShare}) {
    core::SweepCell cell;
    cell.label = core::to_string(method);
    cell.spec = spec;
    cell.config.global_rounds = 2;
    cell.config.group_rounds = 2;
    cell.config.local_epochs = 1;
    cell.config.sampled_groups = 3;
    cell.config.local.batch_size = 8;
    cell.config.local.lr = 0.1f;
    cell.config.grouping_params.min_group_size = 5;
    cell.config.eval_every = 1;
    cell.config.seed = spec.seed ^ 0x5eed;
    core::apply_method(method, cell.config);
    cell.task = spec.task;
    cell.op = core::cost_group_op(method);
    cells.push_back(std::move(cell));
  }

  runtime::ThreadPool pool(2);
  core::SweepRunResult per_cell;
  for (const core::SweepCell& cell : cells) {
    const core::Experiment exp = core::build_experiment(cell.spec);
    core::GroupFelConfig cfg = cell.config;
    cfg.local.reuse_batch_buffers = false;
    core::GroupFelTrainer trainer(
        exp.topology, cfg, core::build_cost_model(cell.task, cell.op), &pool);
    core::SweepCellResult result;
    result.label = cell.label;
    result.result = trainer.train(cell.cost_budget);
    per_cell.cells.push_back(std::move(result));
  }

  core::SweepOptions opts;
  opts.pool = &pool;
  const core::SweepRunResult swept = core::run_sweep(cells, opts);
  EXPECT_EQ(swept.distinct_experiments, 1u);
  expect_sweeps_identical(per_cell, swept);
}

}  // namespace
}  // namespace groupfel
