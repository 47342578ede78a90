// Satellite of the hot-path overhaul: the full Algorithm 1 loop must be
// bit-identical across pool sizes and across the legacy
// (clone-per-client, serial copy-chain aggregation) and optimized
// (replica-cache, in-place exchange, fixed-shape parallel reduction)
// paths. Any divergence here means the "performance" change silently
// altered simulation semantics.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "runtime/thread_pool.hpp"

namespace groupfel::core {
namespace {

ExperimentSpec tiny_spec(std::uint64_t seed = 21) {
  ExperimentSpec spec;
  spec.num_clients = 24;
  spec.num_edges = 2;
  spec.alpha = 0.2;
  spec.size_mean = 24;
  spec.size_std = 6;
  spec.size_min = 12;
  spec.size_max = 36;
  spec.test_size = 400;
  spec.mlp_hidden = 32;
  spec.seed = seed;
  return spec;
}

GroupFelConfig tiny_cfg() {
  GroupFelConfig cfg;
  cfg.global_rounds = 3;
  cfg.group_rounds = 2;
  cfg.local_epochs = 1;
  cfg.local.lr = 0.1f;
  cfg.local.batch_size = 8;
  cfg.sampled_groups = 3;
  cfg.grouping_params.min_group_size = 4;
  cfg.grouping_params.max_cov = 0.6;
  cfg.eval_every = 1;
  cfg.seed = 77;
  return cfg;
}

cost::CostModel tiny_cost() {
  return build_cost_model(cost::Task::kCifar, cost::GroupOp::kSecAgg);
}

TrainResult run_with_pool(const Experiment& exp, const GroupFelConfig& cfg,
                          std::size_t threads) {
  runtime::ThreadPool pool(threads);
  GroupFelTrainer trainer(exp.topology, cfg, tiny_cost(), &pool);
  return trainer.train();
}

void expect_identical(const TrainResult& a, const TrainResult& b) {
  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  for (std::size_t i = 0; i < a.final_params.size(); ++i)
    ASSERT_EQ(a.final_params[i], b.final_params[i]) << "param " << i;
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.history[i].accuracy, b.history[i].accuracy);
    EXPECT_DOUBLE_EQ(a.history[i].test_loss, b.history[i].test_loss);
    EXPECT_DOUBLE_EQ(a.history[i].train_loss, b.history[i].train_loss);
  }
}

TEST(TrainerDeterminism, BitIdenticalAcrossPoolSizes) {
  const Experiment exp = build_experiment(tiny_spec());
  const GroupFelConfig cfg = tiny_cfg();
  const TrainResult serial = run_with_pool(exp, cfg, 0);
  const TrainResult two = run_with_pool(exp, cfg, 2);
  const TrainResult many = run_with_pool(exp, cfg, 24);
  expect_identical(serial, two);
  expect_identical(serial, many);
}

TEST(TrainerDeterminism, LegacyAndOptimizedPathsAgree) {
  const Experiment exp = build_experiment(tiny_spec());
  const GroupFelConfig optimized = tiny_cfg();
  ASSERT_TRUE(optimized.reuse_model_replicas);
  ASSERT_TRUE(optimized.parallel_aggregation);
  GroupFelConfig legacy = optimized;
  legacy.reuse_model_replicas = false;
  legacy.parallel_aggregation = false;
  // All four flag combinations run the same math: {replica cache, in-place
  // exchange} and {serial copy-chain, tree reduction} must agree bitwise.
  const TrainResult base = run_with_pool(exp, legacy, 2);
  for (const bool reuse : {false, true}) {
    for (const bool par_agg : {false, true}) {
      GroupFelConfig cfg = optimized;
      cfg.reuse_model_replicas = reuse;
      cfg.parallel_aggregation = par_agg;
      expect_identical(base, run_with_pool(exp, cfg, 2));
    }
  }
}

TEST(TrainerDeterminism, DropoutPathsAgreeAndLossesAreFresh) {
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  cfg.client_dropout_rate = 0.3;
  GroupFelConfig legacy = cfg;
  legacy.reuse_model_replicas = false;
  legacy.parallel_aggregation = false;
  // Dropout exercises the survivor renormalization plus the stale-loss
  // zeroing (a member dropped in round k must not resubmit its round k-1
  // loss) on both paths.
  expect_identical(run_with_pool(exp, legacy, 0), run_with_pool(exp, cfg, 2));
}

TEST(TrainerDeterminism, FlameDefensePathsAgree) {
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  cfg.global_rounds = 2;
  cfg.backdoor.defense = true;  // in-place update building + buffer lending
  GroupFelConfig legacy = cfg;
  legacy.reuse_model_replicas = false;
  legacy.parallel_aggregation = false;
  expect_identical(run_with_pool(exp, legacy, 2), run_with_pool(exp, cfg, 2));
}

TEST(TrainerDeterminism, SecAggInPlaceScalingAgrees) {
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  cfg.global_rounds = 1;
  cfg.sampled_groups = 2;
  cfg.use_real_secagg = true;  // scale-in-place vs scaled-copy inputs
  GroupFelConfig legacy = cfg;
  legacy.reuse_model_replicas = false;
  legacy.parallel_aggregation = false;
  expect_identical(run_with_pool(exp, legacy, 0), run_with_pool(exp, cfg, 2));
}

TEST(TrainerDeterminism, SecAggDropoutParallelMaskingBitIdentical) {
  // Groups larger than the largest pool, so the survivors' masking really
  // splits across workers (and nests inside the group-level loop); dropout
  // makes the server remove dropped members' pairwise masks as well.
  ExperimentSpec spec = tiny_spec();
  spec.num_clients = 60;
  spec.num_edges = 1;
  const Experiment exp = build_experiment(spec);
  GroupFelConfig cfg = tiny_cfg();
  cfg.global_rounds = 2;
  cfg.sampled_groups = 2;
  cfg.use_real_secagg = true;
  cfg.client_dropout_rate = 0.3;
  cfg.grouping = grouping::GroupingMethod::kRandom;
  cfg.grouping_params.min_group_size = 26;
  {
    runtime::ThreadPool pool(0);
    const GroupFelTrainer probe(exp.topology, cfg, tiny_cost(), &pool);
    ASSERT_FALSE(probe.groups().empty());
    for (const auto& g : probe.groups()) ASSERT_GT(g.clients.size(), 24u);
  }
  const TrainResult serial = run_with_pool(exp, cfg, 0);
  // Some group round met quorum and aggregated (and, at 30% dropout over
  // 25+ members, had dropped members to unmask).
  bool aggregated = false;
  for (const auto& h : serial.history) aggregated |= h.train_loss > 0.0;
  EXPECT_TRUE(aggregated);
  expect_identical(serial, run_with_pool(exp, cfg, 2));
  expect_identical(serial, run_with_pool(exp, cfg, 24));
}

TEST(TrainerDeterminism, SteadyStateAddsNoModelConstructions) {
  const Experiment exp = build_experiment(tiny_spec());
  const GroupFelConfig cfg = tiny_cfg();
  runtime::ThreadPool pool(0);  // inline: the participating-thread set is fixed
  GroupFelTrainer trainer(exp.topology, cfg, tiny_cost(), &pool);
  const TrainResult first = trainer.train();
  EXPECT_EQ(trainer.replica_clone_count(), 1u);
  EXPECT_EQ(trainer.replica_thread_count(), 1u);
  const TrainResult second = trainer.train();
  EXPECT_EQ(trainer.replica_clone_count(), 1u);
  expect_identical(first, second);
}

}  // namespace
}  // namespace groupfel::core
