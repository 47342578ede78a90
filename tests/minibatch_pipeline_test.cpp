// Zero-alloc minibatch pipeline tests: gather_into/batch_into must be
// bit-identical to their allocating counterparts, run_local_sgd must
// consume the RNG stream identically to an allocating reference loop
// (epoch permutations are drawn into a reused buffer), and steady-state
// calls must construct zero tensors.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "algorithms/local_trainer.hpp"
#include "data/dataset.hpp"
#include "data/synthetic.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "nn/tensor.hpp"

namespace groupfel {
namespace {

std::shared_ptr<data::DataSet> make_dataset(std::size_t n,
                                            std::uint64_t seed = 3) {
  runtime::Rng rng(seed);
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.sample_shape = {8};
  return std::make_shared<data::DataSet>(data::make_synthetic(spec, n, rng));
}

void expect_batches_equal(const data::DataSet::Batch& a,
                          const data::DataSet::Batch& b) {
  ASSERT_EQ(a.features.shape(), b.features.shape());
  ASSERT_EQ(a.labels, b.labels);
  const auto va = a.features.data();
  const auto vb = b.features.data();
  for (std::size_t i = 0; i < va.size(); ++i) EXPECT_EQ(va[i], vb[i]);
}

TEST(GatherInto, BitIdenticalToGather) {
  const auto ds = make_dataset(32);
  const std::vector<std::size_t> idx{5, 0, 31, 7, 7, 12};
  const data::DataSet::Batch fresh = ds->gather(idx);
  data::DataSet::Batch reused;
  ds->gather_into(idx, reused);
  expect_batches_equal(fresh, reused);
}

TEST(GatherInto, ReusedAcrossShrinkingAndGrowingBatches) {
  const auto ds = make_dataset(32);
  data::DataSet::Batch reused;
  // Full batch -> ragged tail -> full batch again: the buffer must track
  // the logical batch size while reusing capacity.
  for (const std::size_t n : {8UL, 3UL, 8UL, 1UL, 5UL}) {
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), std::size_t{2});
    ds->gather_into(idx, reused);
    expect_batches_equal(ds->gather(idx), reused);
  }
}

TEST(GatherInto, SteadyStateConstructsNoTensors) {
  const auto ds = make_dataset(32);
  std::vector<std::size_t> idx(8);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  data::DataSet::Batch reused;
  ds->gather_into(idx, reused);  // warm-up: capacity grows once
  const std::uint64_t c0 = nn::tensor_construction_count();
  for (int r = 0; r < 10; ++r) ds->gather_into(idx, reused);
  EXPECT_EQ(nn::tensor_construction_count(), c0);
}

TEST(BatchInto, BitIdenticalToBatch) {
  const auto ds = make_dataset(32);
  const data::ClientShard shard(ds, {9, 4, 22, 17, 30, 1});
  const std::vector<std::size_t> pos{3, 0, 5, 2};
  data::DataSet::Batch reused;
  shard.batch_into(pos, reused);
  expect_batches_equal(shard.batch(pos), reused);
}

// Independent reference for run_local_sgd: an allocating loop built from
// batch(), softmax_cross_entropy() and a plain optimizer step. It draws one
// permutation per epoch from the rng stream and zeroes gradients before
// every backward pass.
double reference_local_sgd(nn::Model& model, const data::ClientShard& shard,
                           const algorithms::LocalTrainConfig& cfg,
                           runtime::Rng& rng) {
  nn::SgdOptimizer opt({.lr = cfg.lr,
                        .momentum = cfg.momentum,
                        .weight_decay = cfg.weight_decay});
  std::vector<std::size_t> order(shard.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  double loss_sum = 0.0;
  std::size_t batches = 0;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < order.size();
         start += cfg.batch_size) {
      const std::size_t end = std::min(order.size(), start + cfg.batch_size);
      const data::DataSet::Batch batch = shard.batch(
          std::span<const std::size_t>(order.data() + start, end - start));
      model.zero_grad();
      const nn::Tensor logits = model.forward(batch.features, /*train=*/true);
      const nn::LossResult lr = nn::softmax_cross_entropy(logits, batch.labels);
      model.backward(lr.grad);
      opt.step(model, nullptr);
      loss_sum += lr.loss;
      ++batches;
    }
  }
  return batches > 0 ? loss_sum / static_cast<double>(batches) : 0.0;
}

// run_local_sgd reuses its permutation, batch and loss buffers and clears
// gradients inside the optimizer step; it must still draw the SAME
// permutations from the SAME rng stream as the allocating reference, so
// training end-states match bit for bit.
TEST(LocalSgd, ReusePathBitIdenticalToLegacy) {
  const auto ds = make_dataset(64);
  std::vector<std::size_t> idx(64);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  const data::ClientShard shard(ds, idx);

  algorithms::LocalTrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 12;  // ragged last batch
  cfg.lr = 0.05f;
  cfg.momentum = 0.5f;

  nn::Model reference_model = nn::make_mlp(8, 16, 4);
  runtime::Rng init(17);
  reference_model.init(init);
  nn::Model reuse_model = reference_model.clone();

  runtime::Rng rng_a(21);
  runtime::Rng rng_b(21);
  const double loss_a = reference_local_sgd(reference_model, shard, cfg, rng_a);
  const double loss_b =
      algorithms::run_local_sgd(reuse_model, shard, cfg, rng_b, nullptr);

  EXPECT_EQ(loss_a, loss_b);
  const std::vector<float> pa = reference_model.flat_parameters();
  const std::vector<float> pb = reuse_model.flat_parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
}

TEST(LocalSgd, SteadyStateConstructsNoTensors) {
  const auto ds = make_dataset(64);
  std::vector<std::size_t> idx(64);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  const data::ClientShard shard(ds, idx);

  algorithms::LocalTrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 8;
  cfg.lr = 0.05f;

  nn::Model model = nn::make_mlp(8, 16, 4);
  runtime::Rng init(23);
  model.init(init);

  runtime::Rng rng(29);
  // Warm-up: thread-local scratch and layer buffers size themselves.
  (void)algorithms::run_local_sgd(model, shard, cfg, rng, nullptr);
  const std::uint64_t c0 = nn::tensor_construction_count();
  (void)algorithms::run_local_sgd(model, shard, cfg, rng, nullptr);
  EXPECT_EQ(nn::tensor_construction_count(), c0);
}

}  // namespace
}  // namespace groupfel
