// Integration tests of the Algorithm 1 trainer: learning progress, the
// degradation cases from the paper's footnote 2, aggregation modes, cost
// accounting, FedCLAR clustering, regrouping, and the real-secagg path.
#include "core/trainer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/experiment.hpp"

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
  cfg.global_rounds = 10;
  cfg.group_rounds = 2;
  cfg.local_epochs = 2;
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

TEST(Trainer, AccuracyImprovesOverTraining) {
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  apply_method(Method::kGroupFel, cfg);
  GroupFelTrainer trainer(exp.topology, cfg, tiny_cost());
  const TrainResult result = trainer.train();
  ASSERT_GE(result.history.size(), 2u);
  EXPECT_GT(result.final_accuracy, result.history.front().accuracy + 0.1);
  EXPECT_GT(result.final_accuracy, 0.3);
}

TEST(Trainer, DeterministicForSameSeed) {
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  apply_method(Method::kGroupFel, cfg);
  GroupFelTrainer t1(exp.topology, cfg, tiny_cost());
  GroupFelTrainer t2(exp.topology, cfg, tiny_cost());
  const TrainResult a = t1.train();
  const TrainResult b = t2.train();
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i)
    EXPECT_DOUBLE_EQ(a.history[i].accuracy, b.history[i].accuracy);
  EXPECT_EQ(a.final_params, b.final_params);
}

TEST(Trainer, CostGrowsMonotonically) {
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  apply_method(Method::kFedAvg, cfg);
  GroupFelTrainer trainer(exp.topology, cfg, tiny_cost());
  const TrainResult result = trainer.train();
  for (std::size_t i = 1; i < result.history.size(); ++i)
    EXPECT_GT(result.history[i].cumulative_cost,
              result.history[i - 1].cumulative_cost);
  EXPECT_DOUBLE_EQ(result.total_cost, result.history.back().cumulative_cost);
}

TEST(Trainer, CostMatchesHandComputation) {
  // With S groups of known sizes sampled every round, Eq. 5 is exactly
  // sum over rounds/groups of K * sum_i (O_g(|g|) + E*H(n_i)).
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  apply_method(Method::kFedAvg, cfg);
  cfg.global_rounds = 2;
  // Sample ALL groups so the charge is deterministic.
  cfg.sampled_groups = 1000;
  GroupFelTrainer trainer(exp.topology, cfg, tiny_cost());
  const auto& groups = trainer.groups();
  const cost::CostModel model = tiny_cost();
  double expected = 0.0;
  for (const auto& g : groups) {
    std::vector<std::size_t> counts;
    for (auto cid : g.clients)
      counts.push_back(exp.topology.clients.data_count(cid));
    expected += model.group_round_cost(counts, cfg.group_rounds,
                                       cfg.local_epochs);
  }
  expected *= static_cast<double>(cfg.global_rounds);
  const TrainResult result = trainer.train();
  EXPECT_NEAR(result.total_cost, expected, expected * 1e-9);
}

TEST(Trainer, CostBudgetStopsEarly) {
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  apply_method(Method::kFedAvg, cfg);
  cfg.global_rounds = 100;
  GroupFelTrainer probe(exp.topology, cfg, tiny_cost());
  const double one_round_cost = [&] {
    GroupFelConfig c2 = cfg;
    c2.global_rounds = 1;
    GroupFelTrainer t(exp.topology, c2, tiny_cost());
    return t.train().total_cost;
  }();
  const TrainResult result = probe.train(3.5 * one_round_cost);
  EXPECT_LT(result.history.back().round + 1, 100u);
  EXPECT_GE(result.total_cost, 3.5 * one_round_cost);
}

TEST(Trainer, SamplingAllGroupsDegradesToPlainHfl) {
  // Footnote 2: |S_t| = |G| removes sampling randomness entirely.
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  apply_method(Method::kFedAvg, cfg);
  cfg.sampled_groups = 1000;  // clamped to |G|
  GroupFelTrainer trainer(exp.topology, cfg, tiny_cost());
  const TrainResult result = trainer.train();
  EXPECT_GT(result.final_accuracy, 0.3);
}

TEST(Trainer, OneGroupPerEdgeDegradesToClientEdgeCloudHfl) {
  // Footnote 2's second degradation: one group per edge server.
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  apply_method(Method::kFedAvg, cfg);
  cfg.grouping_params.min_group_size = 1000;  // swallow the whole edge
  cfg.sampled_groups = 2;
  GroupFelTrainer trainer(exp.topology, cfg, tiny_cost());
  EXPECT_EQ(trainer.groups().size(), 2u);  // one per edge
  const TrainResult result = trainer.train();
  EXPECT_GT(result.final_accuracy, 0.3);
}

TEST(Trainer, StabilizedModeLearnsUnderEsrCov) {
  // Eq. 35's point: stabilized weights keep aggressive CoV-prioritized
  // sampling trainable.
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  apply_method(Method::kGroupFel, cfg);
  cfg.aggregation = sampling::AggregationMode::kStabilized;
  GroupFelTrainer trainer(exp.topology, cfg, tiny_cost());
  const TrainResult result = trainer.train();
  EXPECT_GT(result.best_accuracy, 0.2);
}

TEST(Trainer, UnbiasedModeRunsAndMayBeUnstable) {
  // §6.2 warns that Eq. 4's 1/(p_g S) factor can destabilize training under
  // ESRCoV (tiny p_g amplifies a group's model). The run must complete with
  // finite metrics; accuracy is NOT asserted to improve.
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  apply_method(Method::kGroupFel, cfg);
  cfg.aggregation = sampling::AggregationMode::kUnbiased;
  GroupFelTrainer trainer(exp.topology, cfg, tiny_cost());
  const TrainResult result = trainer.train();
  for (const auto& m : result.history) {
    EXPECT_GE(m.accuracy, 0.0);
    EXPECT_LE(m.accuracy, 1.0);
  }
  // Divergence (non-finite loss) is the documented failure mode here; the
  // paper's remedy is the stabilized Eq. 35 weights tested above.
  // With mild RCoV sampling the unbiased correction stays stable enough
  // to learn.
  GroupFelConfig mild = cfg;
  mild.sampling = sampling::SamplingMethod::kRCov;
  GroupFelTrainer trainer2(exp.topology, mild, tiny_cost());
  EXPECT_GT(trainer2.train().best_accuracy, 0.2);
}

TEST(Trainer, UniformSamplingBiasedEqualsStabilized) {
  // Under uniform p and equal-probability sampling, the stabilized weights
  // reduce to n_g/n_t, i.e. exactly the biased weights: identical runs.
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  apply_method(Method::kFedAvg, cfg);  // random grouping + uniform sampling
  GroupFelConfig cfg2 = cfg;
  cfg2.aggregation = sampling::AggregationMode::kStabilized;
  GroupFelTrainer t1(exp.topology, cfg, tiny_cost());
  GroupFelTrainer t2(exp.topology, cfg2, tiny_cost());
  const TrainResult a = t1.train();
  const TrainResult b = t2.train();
  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  for (std::size_t i = 0; i < a.final_params.size(); ++i)
    EXPECT_NEAR(a.final_params[i], b.final_params[i], 2e-4f);
}

TEST(Trainer, RealSecAggMatchesPlaintextAggregation) {
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  apply_method(Method::kGroupFel, cfg);
  cfg.global_rounds = 2;
  GroupFelConfig cfg_sa = cfg;
  cfg_sa.use_real_secagg = true;
  GroupFelTrainer plain(exp.topology, cfg, tiny_cost());
  GroupFelTrainer secure(exp.topology, cfg_sa, tiny_cost());
  const TrainResult a = plain.train();
  const TrainResult b = secure.train();
  // Fixed-point quantization introduces ~2^-16 per-coordinate error per
  // aggregation; a couple of rounds stay well within 1e-2.
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.final_params.size(); ++i)
    max_diff = std::max(max_diff,
                        std::abs(static_cast<double>(a.final_params[i]) -
                                 static_cast<double>(b.final_params[i])));
  EXPECT_LT(max_diff, 1e-2);
}

TEST(Trainer, FedClarClusteringChangesTrajectory) {
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  apply_method(Method::kFedClar, cfg);
  cfg.global_rounds = 6;
  cfg.fedclar.cluster_round = 3;
  GroupFelTrainer trainer(exp.topology, cfg, tiny_cost());
  const TrainResult result = trainer.train();
  ASSERT_EQ(result.history.size(), 6u);
  // The run completes and still reports sensible accuracies.
  for (const auto& m : result.history) {
    EXPECT_GE(m.accuracy, 0.0);
    EXPECT_LE(m.accuracy, 1.0);
  }
}

TEST(Trainer, RegroupingRefreshesGroups) {
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  apply_method(Method::kGroupFel, cfg);
  cfg.regroup_interval = 2;
  cfg.global_rounds = 5;
  GroupFelTrainer trainer(exp.topology, cfg, tiny_cost());
  const auto groups_before = trainer.groups();
  const TrainResult result = trainer.train();
  const auto groups_after = trainer.groups();
  // Random first clients make identical regrouping overwhelmingly unlikely.
  bool identical = groups_before.size() == groups_after.size();
  if (identical) {
    for (std::size_t g = 0; g < groups_before.size() && identical; ++g)
      identical = groups_before[g].clients == groups_after[g].clients;
  }
  EXPECT_FALSE(identical);
  EXPECT_GT(result.final_accuracy, 0.25);
}

TEST(Trainer, GroupFelBeatsFedAvgOnSkewedData) {
  // The headline claim at miniature scale: same budget, Group-FEL ends at
  // least as accurate as FedAvg under heavy skew.
  ExperimentSpec spec = tiny_spec(33);
  spec.alpha = 0.1;
  spec.num_clients = 30;
  const Experiment exp = build_experiment(spec);
  GroupFelConfig cfg = tiny_cfg();
  cfg.global_rounds = 10;

  GroupFelConfig ours = cfg;
  apply_method(Method::kGroupFel, ours);
  GroupFelConfig fedavg = cfg;
  apply_method(Method::kFedAvg, fedavg);

  GroupFelTrainer t1(exp.topology, ours, tiny_cost());
  GroupFelTrainer t2(exp.topology, fedavg, tiny_cost());
  const double acc_ours = t1.train().best_accuracy;
  const double acc_fedavg = t2.train().best_accuracy;
  EXPECT_GE(acc_ours, acc_fedavg - 0.03);
}

TEST(Trainer, RejectsInvalidTopology) {
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  FederationTopology empty;
  EXPECT_THROW(GroupFelTrainer(empty, cfg, tiny_cost()),
               std::invalid_argument);
  FederationTopology no_factory = exp.topology;
  no_factory.model_factory = nullptr;
  EXPECT_THROW(GroupFelTrainer(no_factory, cfg, tiny_cost()),
               std::invalid_argument);
}

TEST(Trainer, RejectsInvalidConfig) {
  // Each of these would hang (batch size 0 never advances), divide by zero
  // (eval_every 0) or silently misread the dropout rate (NaN or outside
  // [0, 1]); the constructor names the field instead.
  const Experiment exp = build_experiment(tiny_spec());
  const auto expect_rejected = [&](const GroupFelConfig& cfg,
                                   const std::string& field) {
    try {
      GroupFelTrainer trainer(exp.topology, cfg, tiny_cost());
      ADD_FAILURE() << field << ": accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  GroupFelConfig cfg = tiny_cfg();
  cfg.local.batch_size = 0;
  expect_rejected(cfg, "local.batch_size");
  cfg = tiny_cfg();
  cfg.eval_every = 0;
  expect_rejected(cfg, "eval_every");
  for (const double rate : {std::nan(""), -0.1, 1.5}) {
    cfg = tiny_cfg();
    cfg.client_dropout_rate = rate;
    expect_rejected(cfg, "client_dropout_rate");
  }
  // Windowed grouping has one stream mode; the retired serial chain is
  // rejected by name.
  cfg = tiny_cfg();
  cfg.grouping_params.greedy_window = 16;
  cfg.grouping_params.parallel_windows = false;
  expect_rejected(cfg, "parallel_windows");
  // The ends of the range stay valid.
  for (const double rate : {0.0, 1.0}) {
    cfg = tiny_cfg();
    cfg.client_dropout_rate = rate;
    EXPECT_NO_THROW(GroupFelTrainer(exp.topology, cfg, tiny_cost()));
  }
}

TEST(Trainer, GroupSummaryIsConsistent) {
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  apply_method(Method::kGroupFel, cfg);
  GroupFelTrainer trainer(exp.topology, cfg, tiny_cost());
  const TrainResult result = trainer.train();
  EXPECT_EQ(result.grouping.num_groups, trainer.groups().size());
  EXPECT_GE(result.grouping.max_size, result.grouping.min_size);
  std::size_t total = 0;
  for (const auto& g : trainer.groups()) total += g.clients.size();
  EXPECT_EQ(total, exp.topology.clients.num_clients());
}

TEST(Trainer, SamplingProbabilitiesNormalized) {
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  apply_method(Method::kGroupFel, cfg);
  GroupFelTrainer trainer(exp.topology, cfg, tiny_cost());
  double sum = 0.0;
  for (double p : trainer.sampling_probabilities()) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

}  // namespace
}  // namespace groupfel::core
