// Cost-model tests: Eq. 5 accounting, the default RPi-shaped constants'
// ordering properties, and the calibration measurements of this
// repository's own secagg and training implementations.
#include "cost/cost_model.hpp"

#include <gtest/gtest.h>

#include "cost/calibration.hpp"

namespace groupfel::cost {
namespace {

TEST(CostModel, QuadraticAndLinearEvaluate) {
  const QuadraticCost q{2.0, 3.0, 1.0};
  EXPECT_DOUBLE_EQ(q(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q(2.0), 8.0 + 6.0 + 1.0);
  const LinearCost l{0.5, 1.0};
  EXPECT_DOUBLE_EQ(l(10.0), 6.0);
}

TEST(CostModel, GroupRoundCostMatchesEq5ByHand) {
  // O_g(s) = s^2, H(n) = n; group of sizes {10, 20}, K=3, E=2.
  const CostModel model(LinearCost{1.0, 0.0}, QuadraticCost{1.0, 0.0, 0.0});
  const std::vector<std::size_t> counts{10, 20};
  // Per group round: each of 2 clients pays O_g(2)=4 plus E*H = 2*n_i.
  // = (4 + 20) + (4 + 40) = 68; times K=3 -> 204.
  EXPECT_DOUBLE_EQ(model.group_round_cost(counts, 3, 2), 204.0);
}

TEST(CostModel, AccumulatorSumsRounds) {
  const CostModel model(LinearCost{1.0, 0.0}, QuadraticCost{0.0, 0.0, 1.0});
  CostAccumulator acc(model);
  const std::vector<std::size_t> counts{5};
  acc.charge_group(counts, 1, 1);  // 1 * (1 + 5) = 6
  acc.charge_group(counts, 2, 1);  // 2 * 6 = 12
  EXPECT_DOUBLE_EQ(acc.total(), 18.0);
}

TEST(Defaults, Fig8OrderingHolds) {
  // At group size 50: SCAFFOLD-SecAgg > SecAgg > BackdoorDetection.
  const auto secagg = default_cost_model(Task::kCifar, GroupOp::kSecAgg);
  const auto backdoor =
      default_cost_model(Task::kCifar, GroupOp::kBackdoorDetection);
  const auto scaffold =
      default_cost_model(Task::kCifar, GroupOp::kScaffoldSecAgg);
  EXPECT_GT(scaffold.group_op_cost(50), secagg.group_op_cost(50));
  EXPECT_GT(secagg.group_op_cost(50), backdoor.group_op_cost(50));
}

TEST(Defaults, CifarHeavierThanSc) {
  const auto cifar = default_cost_model(Task::kCifar, GroupOp::kSecAgg);
  const auto sc = default_cost_model(Task::kSpeechCommands, GroupOp::kSecAgg);
  EXPECT_GT(cifar.training_cost(50), sc.training_cost(50));
  EXPECT_GT(cifar.group_op_cost(30), sc.group_op_cost(30));
}

TEST(Defaults, GroupOpsDominateTrainingForLargeGroupsSmallData) {
  // Fig. 2's motivation: a client with little data in a big group pays more
  // for group operations than for training.
  const auto model = default_cost_model(Task::kCifar, GroupOp::kSecAgg);
  EXPECT_GT(model.group_op_cost(50), 2.0 * model.training_cost(10));
}

TEST(Defaults, NoneOpIsFree) {
  const auto model = default_cost_model(Task::kCifar, GroupOp::kNone);
  EXPECT_DOUBLE_EQ(model.group_op_cost(100), 0.0);
}

TEST(Defaults, Fig8MagnitudesRoughlyMatchPaper) {
  // Anchors from the paper's RPi measurements.
  const auto train = default_cost_model(Task::kCifar, GroupOp::kSecAgg);
  EXPECT_NEAR(train.training_cost(50), 50.0, 15.0);
  EXPECT_NEAR(train.group_op_cost(50), 45.0, 15.0);
}

TEST(Names, ToString) {
  EXPECT_EQ(to_string(Task::kCifar), "CIFAR");
  EXPECT_EQ(to_string(Task::kSpeechCommands), "SC");
  EXPECT_EQ(to_string(GroupOp::kSecAgg), "SecAgg");
  EXPECT_EQ(to_string(GroupOp::kScaffoldSecAgg), "SCAFFOLD-SecAgg");
}

TEST(Calibration, SecAggMeasurementGrowsSuperlinearly) {
  // Per-client secagg time must grow with group size (the quadratic total).
  const std::vector<std::size_t> sizes{2, 8, 16};
  const auto points = measure_secagg(sizes, 64);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_GT(points[2].seconds, points[0].seconds);
}

TEST(Calibration, TrainingMeasurementGrowsWithData) {
  const std::vector<std::size_t> counts{8, 64};
  const auto points = measure_training(counts, 16, 4);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_GT(points[1].seconds, points[0].seconds);
}

}  // namespace
}  // namespace groupfel::cost
