#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace groupfel::core {
namespace {

ExperimentSpec tiny_spec() {
  ExperimentSpec spec;
  spec.num_clients = 12;
  spec.num_edges = 3;
  spec.alpha = 0.5;
  spec.size_mean = 20;
  spec.size_std = 5;
  spec.size_min = 10;
  spec.size_max = 30;
  spec.test_size = 100;
  return spec;
}

TEST(Experiment, BuildsConsistentTopology) {
  const Experiment exp = build_experiment(tiny_spec());
  EXPECT_EQ(exp.topology.clients.shards().size(), 12u);
  EXPECT_EQ(exp.topology.edges.size(), 3u);
  EXPECT_EQ(exp.topology.test_set->size(), 100u);
  ASSERT_TRUE(exp.topology.model_factory);
  nn::Model m = exp.topology.model_factory();
  EXPECT_GT(m.param_count(), 0u);
}

TEST(Experiment, DeterministicInSeed) {
  ExperimentSpec spec = tiny_spec();
  const Experiment a = build_experiment(spec);
  const Experiment b = build_experiment(spec);
  for (std::size_t i = 0; i < a.topology.clients.shards().size(); ++i) {
    ASSERT_EQ(a.topology.clients.shards()[i].size(), b.topology.clients.shards()[i].size());
    for (std::size_t j = 0; j < a.topology.clients.shards()[i].size(); ++j)
      EXPECT_EQ(a.topology.clients.shards()[i].indices()[j],
                b.topology.clients.shards()[i].indices()[j]);
  }
}

TEST(Experiment, SeedChangesPartition) {
  ExperimentSpec s1 = tiny_spec(), s2 = tiny_spec();
  s2.seed = s1.seed + 1;
  const Experiment a = build_experiment(s1);
  const Experiment b = build_experiment(s2);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.topology.clients.shards().size() && !any_diff; ++i) {
    if (a.topology.clients.shards()[i].size() != b.topology.clients.shards()[i].size()) {
      any_diff = true;
      break;
    }
    for (std::size_t j = 0; j < a.topology.clients.shards()[i].size(); ++j)
      if (a.topology.clients.shards()[i].indices()[j] !=
          b.topology.clients.shards()[i].indices()[j]) {
        any_diff = true;
        break;
      }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Experiment, ModelKindsProduceWorkingFactories) {
  for (ModelKind kind :
       {ModelKind::kMlp, ModelKind::kResNet3, ModelKind::kCnn5}) {
    ExperimentSpec spec = tiny_spec();
    spec.model = kind;
    const Experiment exp = build_experiment(spec);
    nn::Model m = exp.topology.model_factory();
    runtime::Rng rng(1);
    m.init(rng);
    // Forward a test batch through the model to confirm shape wiring.
    const std::vector<std::size_t> idx{0, 1};
    const auto batch = exp.topology.test_set->gather(idx);
    const nn::Tensor logits = m.forward(batch.features, false);
    EXPECT_EQ(logits.dim(0), 2u);
    EXPECT_EQ(logits.dim(1), exp.data_spec.num_classes);
  }
}

TEST(Experiment, ScTaskUses35Classes) {
  ExperimentSpec spec = tiny_spec();
  spec.task = cost::Task::kSpeechCommands;
  const Experiment exp = build_experiment(spec);
  EXPECT_EQ(exp.data_spec.num_classes, 35u);
}

TEST(Experiment, DefaultSpecsRejectBadScale) {
  for (const double scale : {std::nan(""), -1.0, 0.0,
                             std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)default_cifar_spec(scale), std::invalid_argument)
        << scale;
    EXPECT_THROW((void)default_sc_spec(scale), std::invalid_argument)
        << scale;
  }
  EXPECT_EQ(default_cifar_spec(0.12).num_clients, 36u);
}

TEST(Experiment, FewerClientsThanEdgesIsRejected) {
  // A vanishing scale rounds to one client on three edges; the build must
  // fail loudly instead of handing empty edges to the grouping.
  const ExperimentSpec spec = default_cifar_spec(1e-9);
  ASSERT_EQ(spec.num_clients, 1u);
  EXPECT_THROW((void)build_experiment(spec), std::invalid_argument);
}

TEST(CostModelBuilder, CombinesSecAggAndBackdoor) {
  const auto combined = build_cost_model(cost::Task::kCifar,
                                         cost::GroupOp::kSecAgg);
  const auto secagg =
      cost::default_cost_model(cost::Task::kCifar, cost::GroupOp::kSecAgg);
  const auto backdoor = cost::default_cost_model(
      cost::Task::kCifar, cost::GroupOp::kBackdoorDetection);
  EXPECT_NEAR(combined.group_op_cost(20),
              secagg.group_op_cost(20) + backdoor.group_op_cost(20), 1e-9);
}

TEST(CostModelBuilder, ScaffoldVariantCostsMore) {
  const auto normal =
      build_cost_model(cost::Task::kCifar, cost::GroupOp::kSecAgg);
  const auto scaffold =
      build_cost_model(cost::Task::kCifar, cost::GroupOp::kScaffoldSecAgg);
  EXPECT_GT(scaffold.group_op_cost(20), normal.group_op_cost(20));
}

TEST(DefaultSpecs, ScaleShrinksClients) {
  const auto full = default_cifar_spec(1.0);
  const auto small = default_cifar_spec(0.2);
  EXPECT_EQ(full.num_clients, 300u);
  EXPECT_EQ(small.num_clients, 60u);
  EXPECT_LT(small.size_mean, full.size_mean);
}

TEST(DefaultSpecs, ScUsesExtremeSkew) {
  const auto sc = default_sc_spec(1.0);
  EXPECT_DOUBLE_EQ(sc.alpha, 0.01);
  EXPECT_EQ(sc.task, cost::Task::kSpeechCommands);
}

TEST(MethodPresets, ApplyExpectedCombinations) {
  GroupFelConfig cfg;
  apply_method(Method::kGroupFel, cfg);
  EXPECT_EQ(cfg.grouping, grouping::GroupingMethod::kCov);
  EXPECT_EQ(cfg.sampling, sampling::SamplingMethod::kESRCov);

  apply_method(Method::kFedProx, cfg);
  EXPECT_EQ(cfg.rule, LocalRule::kFedProx);
  EXPECT_EQ(cfg.grouping, grouping::GroupingMethod::kRandom);
  EXPECT_EQ(cfg.sampling, sampling::SamplingMethod::kRandom);

  apply_method(Method::kShare, cfg);
  EXPECT_EQ(cfg.grouping, grouping::GroupingMethod::kKldg);
  EXPECT_EQ(cfg.rule, LocalRule::kSgd);

  apply_method(Method::kFedClar, cfg);
  EXPECT_TRUE(cfg.fedclar.enabled);
  apply_method(Method::kFedAvg, cfg);
  EXPECT_FALSE(cfg.fedclar.enabled);
}

TEST(MethodPresets, CostOps) {
  EXPECT_EQ(cost_group_op(Method::kScaffold), cost::GroupOp::kScaffoldSecAgg);
  EXPECT_EQ(cost_group_op(Method::kFedAvg), cost::GroupOp::kSecAgg);
}

TEST(MethodPresets, Names) {
  EXPECT_EQ(to_string(Method::kGroupFel), "Group-FEL");
  EXPECT_EQ(to_string(Method::kOuea), "OUEA");
}

}  // namespace
}  // namespace groupfel::core
