// Local update-rule tests: FedAvg's plain SGD, FedProx's proximal pull, and
// SCAFFOLD's control-variate bookkeeping.
#include "algorithms/local_trainer.hpp"

#include <gtest/gtest.h>

#include "algorithms/fedprox.hpp"
#include "algorithms/scaffold.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"

namespace groupfel::algorithms {
namespace {

struct Fixture {
  std::shared_ptr<data::DataSet> dataset;
  data::ClientShard shard;
  nn::Model model;
  std::vector<float> start;

  explicit Fixture(std::uint64_t seed = 3, double label_noise = 0.0) {
    runtime::Rng rng(seed);
    data::SyntheticSpec spec;
    spec.num_classes = 4;
    spec.sample_shape = {8};
    spec.label_noise = label_noise;
    dataset =
        std::make_shared<data::DataSet>(data::make_synthetic(spec, 64, rng));
    std::vector<std::size_t> idx(64);
    for (std::size_t i = 0; i < 64; ++i) idx[i] = i;
    shard = data::ClientShard(dataset, idx);
    model = nn::make_mlp(8, 16, 4);
    runtime::Rng irng(seed + 1);
    model.init(irng);
    start = model.flat_parameters();
  }
};

TEST(SgdRule, ReducesLossOverEpochs) {
  Fixture f;
  SgdRule rule;
  LocalTrainConfig cfg;
  cfg.epochs = 1;
  cfg.lr = 0.1f;
  runtime::Rng rng(5);
  const double first = rule.train_client(f.model, f.shard, f.start, 0, cfg, rng);
  double last = first;
  for (int e = 0; e < 5; ++e)
    last = rule.train_client(f.model, f.shard, f.start, 0, cfg, rng);
  EXPECT_LT(last, first);
}

TEST(SgdRule, EmptyShardIsNoop) {
  Fixture f;
  data::ClientShard empty(f.dataset, {});
  SgdRule rule;
  LocalTrainConfig cfg;
  runtime::Rng rng(6);
  const double loss = rule.train_client(f.model, empty, f.start, 0, cfg, rng);
  EXPECT_DOUBLE_EQ(loss, 0.0);
  EXPECT_EQ(f.model.flat_parameters(), f.start);
}

TEST(SgdRule, MovesParameters) {
  Fixture f;
  SgdRule rule;
  LocalTrainConfig cfg;
  runtime::Rng rng(7);
  (void)rule.train_client(f.model, f.shard, f.start, 0, cfg, rng);
  EXPECT_GT(nn::l2_distance(f.model.flat_parameters(), f.start), 0.0);
}

TEST(FedProx, StaysCloserToReferenceThanSgd) {
  // The proximal term mu*(x - x_ref) must reduce drift from the reference
  // for identical data/lr/epochs.
  Fixture f1(11), f2(11);
  LocalTrainConfig cfg;
  cfg.epochs = 4;
  cfg.lr = 0.1f;

  SgdRule sgd;
  runtime::Rng r1(8);
  (void)sgd.train_client(f1.model, f1.shard, f1.start, 0, cfg, r1);
  const double sgd_drift = nn::l2_distance(f1.model.flat_parameters(), f1.start);

  FedProxRule prox(1.0f);
  runtime::Rng r2(8);
  (void)prox.train_client(f2.model, f2.shard, f2.start, 0, cfg, r2);
  const double prox_drift =
      nn::l2_distance(f2.model.flat_parameters(), f2.start);

  EXPECT_LT(prox_drift, sgd_drift);
}

TEST(FedProx, ZeroMuEqualsSgd) {
  Fixture f1(12), f2(12);
  LocalTrainConfig cfg;
  cfg.epochs = 2;
  SgdRule sgd;
  FedProxRule prox(0.0f);
  runtime::Rng r1(9), r2(9);
  (void)sgd.train_client(f1.model, f1.shard, f1.start, 0, cfg, r1);
  (void)prox.train_client(f2.model, f2.shard, f2.start, 0, cfg, r2);
  const auto a = f1.model.flat_parameters();
  const auto b = f2.model.flat_parameters();
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(FedProx, StillLearns) {
  Fixture f(13);
  FedProxRule prox(0.1f);
  LocalTrainConfig cfg;
  cfg.epochs = 1;
  runtime::Rng rng(10);
  const double first =
      prox.train_client(f.model, f.shard, f.start, 0, cfg, rng);
  double last = first;
  for (int e = 0; e < 5; ++e)
    last = prox.train_client(f.model, f.shard, f.start, 0, cfg, rng);
  EXPECT_LT(last, first);
}

TEST(Scaffold, CommunicationFactorIsDouble) {
  ScaffoldRule rule(4);
  EXPECT_DOUBLE_EQ(rule.communication_factor(), 2.0);
  SgdRule sgd;
  EXPECT_DOUBLE_EQ(sgd.communication_factor(), 1.0);
}

TEST(Scaffold, ControlVariateUpdatesAfterRound) {
  Fixture f(14);
  ScaffoldRule rule(2);
  LocalTrainConfig cfg;
  cfg.epochs = 2;
  runtime::Rng rng(11);
  (void)rule.train_client(f.model, f.shard, f.start, 0, cfg, rng);
  // Before the round ends the server control is still zero-initialized.
  rule.on_global_round_end();
  bool any_nonzero = false;
  for (float v : rule.server_control()) any_nonzero |= (v != 0.0f);
  EXPECT_TRUE(any_nonzero);
}

TEST(Scaffold, RejectsUnknownClient) {
  Fixture f(15);
  ScaffoldRule rule(1);
  LocalTrainConfig cfg;
  runtime::Rng rng(12);
  EXPECT_THROW(
      (void)rule.train_client(f.model, f.shard, f.start, 5, cfg, rng),
      std::out_of_range);
}

TEST(Scaffold, FirstStepMatchesSgdWhenControlsZero) {
  // With c = c_i = 0 the SCAFFOLD correction vanishes; identical seeds give
  // identical parameters after one call.
  Fixture f1(16), f2(16);
  LocalTrainConfig cfg;
  cfg.epochs = 1;
  SgdRule sgd;
  ScaffoldRule scaffold(1);
  runtime::Rng r1(13), r2(13);
  (void)sgd.train_client(f1.model, f1.shard, f1.start, 0, cfg, r1);
  (void)scaffold.train_client(f2.model, f2.shard, f2.start, 0, cfg, r2);
  const auto a = f1.model.flat_parameters();
  const auto b = f2.model.flat_parameters();
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(Scaffold, SecondRoundUsesControls) {
  // After on_global_round_end the correction is active: same-seed training
  // now diverges from plain SGD. Needs >= 2 registered clients: with a
  // single client c equals c_i and the correction cancels identically.
  Fixture f1(17), f2(17);
  LocalTrainConfig cfg;
  cfg.epochs = 1;
  SgdRule sgd;
  ScaffoldRule scaffold(2);
  runtime::Rng r1(14), r2(14);
  (void)sgd.train_client(f1.model, f1.shard, f1.start, 0, cfg, r1);
  (void)scaffold.train_client(f2.model, f2.shard, f2.start, 0, cfg, r2);
  scaffold.on_global_round_end();
  // Reset both models to start and train again with fresh identical seeds.
  f1.model.set_flat_parameters(f1.start);
  f2.model.set_flat_parameters(f2.start);
  runtime::Rng r3(15), r4(15);
  (void)sgd.train_client(f1.model, f1.shard, f1.start, 0, cfg, r3);
  (void)scaffold.train_client(f2.model, f2.shard, f2.start, 0, cfg, r4);
  EXPECT_GT(nn::l2_distance(f1.model.flat_parameters(),
                            f2.model.flat_parameters()),
            0.0);
}

TEST(RunLocalSgd, RespectsBatchSize) {
  // With batch_size >= shard size there is exactly one step per epoch; the
  // loss of a 1-epoch call equals the full-batch loss at the start.
  Fixture f(18);
  LocalTrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 1000;
  runtime::Rng rng(16);
  const double loss = run_local_sgd(f.model, f.shard, cfg, rng, nullptr);
  EXPECT_GT(loss, 0.0);
}

TEST(RunLocalSgd, RejectsZeroBatchSize) {
  // A zero batch size would never advance through the shard.
  Fixture f(18);
  LocalTrainConfig cfg;
  cfg.batch_size = 0;
  runtime::Rng rng(16);
  EXPECT_THROW((void)run_local_sgd(f.model, f.shard, cfg, rng, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace groupfel::algorithms
