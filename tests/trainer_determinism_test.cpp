// Satellite of the hot-path overhaul: the full Algorithm 1 loop (replica
// cache, in-place parameter exchange, fixed-shape parallel reduction) must
// be bit-identical across pool sizes, including with FedCLAR clustering,
// dropout, FLAME and real secure aggregation, and a reused replica must
// train like a fresh clone. Any divergence here means a "performance"
// change silently altered simulation semantics.
#include <gtest/gtest.h>

#include "algorithms/fedprox.hpp"
#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "runtime/replica_cache.hpp"
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

void expect_identical_across_pools(const Experiment& exp,
                                   const GroupFelConfig& cfg) {
  const TrainResult serial = run_with_pool(exp, cfg, 0);
  expect_identical(serial, run_with_pool(exp, cfg, 2));
  expect_identical(serial, run_with_pool(exp, cfg, 24));
}

TEST(TrainerDeterminism, BitIdenticalAcrossPoolSizes) {
  const Experiment exp = build_experiment(tiny_spec());
  expect_identical_across_pools(exp, tiny_cfg());
}

// FedCLAR's clustering probe trains every client on its thread's replica
// (it once cloned per client); the clusters and the per-cluster models that
// follow must not depend on which thread probed which client.
TEST(TrainerDeterminism, LegacyAndOptimizedPathsAgree) {
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  apply_method(Method::kFedClar, cfg);
  cfg.global_rounds = 4;
  cfg.fedclar.cluster_round = 2;
  expect_identical_across_pools(exp, cfg);
}

TEST(TrainerDeterminism, DropoutPathsAgreeAndLossesAreFresh) {
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  cfg.client_dropout_rate = 0.3;
  // Dropout exercises the survivor renormalization plus the stale-loss
  // zeroing (a member dropped in round k must not resubmit its round k-1
  // loss) at every pool size.
  expect_identical_across_pools(exp, cfg);
}

TEST(TrainerDeterminism, FlameDefensePathsAgree) {
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  cfg.global_rounds = 2;
  cfg.backdoor.defense = true;  // in-place update building + buffer lending
  expect_identical_across_pools(exp, cfg);
}

TEST(TrainerDeterminism, SecAggInPlaceScalingAgrees) {
  const Experiment exp = build_experiment(tiny_spec());
  GroupFelConfig cfg = tiny_cfg();
  cfg.global_rounds = 1;
  cfg.sampled_groups = 2;
  cfg.use_real_secagg = true;  // members scale their own buffers in place
  expect_identical_across_pools(exp, cfg);
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

// Every client trains on its thread's persistent replica, so a replica that
// already trained one client must train the next exactly as a fresh clone
// of the prototype would: no gradient, activation or workspace state may
// leak from one client into the next.
TEST(TrainerDeterminism, ReusedReplicaTrainsLikeFreshClone) {
  for (const ModelKind kind : {ModelKind::kMlp, ModelKind::kCnn5}) {
    SCOPED_TRACE(static_cast<int>(kind));
    ExperimentSpec spec = tiny_spec();
    spec.model = kind;
    const Experiment exp = build_experiment(spec);
    const data::ClientDataStore& clients = exp.topology.clients;
    nn::Model prototype = exp.topology.model_factory();
    runtime::Rng init(5);
    prototype.init(init);
    const std::vector<float> start = prototype.flat_parameters();

    // Client B holds a different number of samples than A, so B's ragged
    // last batch is shaped differently from anything A left behind.
    const std::size_t a = 0;
    std::size_t b = 1;
    while (clients.data_count(b) == clients.data_count(a)) ++b;

    algorithms::LocalTrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch_size = 5;
    cfg.lr = 0.05f;
    cfg.momentum = 0.9f;
    cfg.weight_decay = 1e-4f;
    algorithms::FedProxRule rule(0.1f);

    runtime::ModelReplicaCache<nn::Model> cache(prototype);
    nn::Model& replica = cache.local();
    runtime::Rng rng_a(11);
    (void)rule.train_client(replica, clients.client(a), start, a, cfg, rng_a);
    replica.set_flat_parameters(start);
    runtime::Rng rng_reused(12);
    const double loss_reused = rule.train_client(replica, clients.client(b),
                                                 start, b, cfg, rng_reused);

    nn::Model fresh = prototype.clone();
    runtime::Rng rng_fresh(12);
    const double loss_fresh =
        rule.train_client(fresh, clients.client(b), start, b, cfg, rng_fresh);

    EXPECT_EQ(loss_reused, loss_fresh);
    const std::vector<float> pr = replica.flat_parameters();
    const std::vector<float> pf = fresh.flat_parameters();
    ASSERT_EQ(pr.size(), pf.size());
    for (std::size_t i = 0; i < pr.size(); ++i)
      ASSERT_EQ(pr[i], pf[i]) << "param " << i;
  }
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
