#include "data/synthetic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/evaluator.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"

namespace groupfel::data {
namespace {

TEST(Dataset, BasicInvariants) {
  runtime::Rng rng(1);
  SyntheticSpec spec;
  spec.num_classes = 7;
  spec.sample_shape = {5};
  const DataSet ds = make_synthetic(spec, 100, rng);
  EXPECT_EQ(ds.size(), 100u);
  EXPECT_EQ(ds.num_classes(), 7u);
  EXPECT_EQ(ds.sample_size(), 5u);
  for (auto l : ds.labels()) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 7);
  }
}

TEST(Dataset, GlobalDistributionBalancedWithoutLabelNoise) {
  runtime::Rng rng(2);
  SyntheticSpec spec;
  spec.num_classes = 10;
  spec.label_noise = 0.0;
  const DataSet ds = make_synthetic(spec, 1000, rng);
  std::vector<int> counts(10, 0);
  for (auto l : ds.labels()) ++counts[static_cast<std::size_t>(l)];
  for (int c : counts) EXPECT_EQ(c, 100);
}

TEST(Dataset, LabelNoiseFlipsSomeLabels) {
  runtime::Rng rng(3);
  SyntheticSpec spec;
  spec.num_classes = 10;
  spec.label_noise = 0.5;
  const DataSet ds = make_synthetic(spec, 2000, rng);
  int flipped = 0;
  for (std::size_t i = 0; i < ds.size(); ++i)
    flipped += (static_cast<std::size_t>(ds.label(i)) != i % 10);
  // 50% rerolled, of which 9/10 land elsewhere -> ~45%.
  EXPECT_NEAR(static_cast<double>(flipped) / 2000.0, 0.45, 0.05);
}

TEST(Dataset, TrainTestShareClassGeometry) {
  // The core regression test for the prototype-seed bug: a model trained on
  // one draw must generalize to another draw from the same spec.
  const SyntheticSpec spec = cifar_like_spec(false);
  runtime::Rng r1(100), r2(200);
  const DataSet train = make_synthetic(spec, 3000, r1);
  const DataSet test = make_synthetic(spec, 1000, r2);

  runtime::Rng rng(7);
  nn::Model m = nn::make_mlp(32, 64, 10);
  m.init(rng);
  nn::SgdOptimizer opt({.lr = 0.05f});
  std::vector<std::size_t> idx(train.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  for (int epoch = 0; epoch < 3; ++epoch) {
    rng.shuffle(idx);
    for (std::size_t s = 0; s < idx.size(); s += 32) {
      const std::size_t e = std::min(idx.size(), s + 32);
      auto batch = train.gather({idx.data() + s, e - s});
      m.zero_grad();
      const auto logits = m.forward(batch.features, true);
      m.backward(nn::softmax_cross_entropy(logits, batch.labels).grad);
      opt.step(m);
    }
  }
  const auto ev = core::evaluate(m, test);
  EXPECT_GT(ev.accuracy, 0.5) << "train/test must share prototypes";
}

TEST(Dataset, DifferentPrototypeSeedsGiveDifferentGeometry) {
  SyntheticSpec a = cifar_like_spec(false);
  SyntheticSpec b = a;
  b.prototype_seed = 999;
  runtime::Rng r1(5), r2(5);
  const DataSet da = make_synthetic(a, 10, r1);
  const DataSet db = make_synthetic(b, 10, r2);
  // Same sampling rng but different prototypes -> different features.
  bool any_diff = false;
  for (std::size_t i = 0; i < da.features().size(); ++i)
    any_diff |= (da.features()[i] != db.features()[i]);
  EXPECT_TRUE(any_diff);
}

TEST(Dataset, SpecPresets) {
  const SyntheticSpec cifar = cifar_like_spec(false);
  EXPECT_EQ(cifar.num_classes, 10u);
  EXPECT_EQ(cifar.sample_shape.size(), 1u);
  const SyntheticSpec cifar_img = cifar_like_spec(true);
  EXPECT_EQ(cifar_img.sample_shape.size(), 3u);
  const SyntheticSpec sc = sc_like_spec(false);
  EXPECT_EQ(sc.num_classes, 35u);
}

TEST(Dataset, GatherCopiesRows) {
  runtime::Rng rng(4);
  SyntheticSpec spec;
  spec.num_classes = 3;
  spec.sample_shape = {2};
  const DataSet ds = make_synthetic(spec, 9, rng);
  const std::vector<std::size_t> pick{8, 0, 4};
  const auto batch = ds.gather(pick);
  EXPECT_EQ(batch.labels.size(), 3u);
  EXPECT_EQ(batch.features.dim(0), 3u);
  EXPECT_EQ(batch.labels[0], ds.label(8));
  EXPECT_EQ(batch.features.at2(0, 0), ds.features().at2(8, 0));
}

TEST(Dataset, GatherRejectsBadIndex) {
  runtime::Rng rng(5);
  SyntheticSpec spec;
  const DataSet ds = make_synthetic(spec, 5, rng);
  const std::vector<std::size_t> bad{5};
  EXPECT_THROW((void)ds.gather(bad), std::out_of_range);
}

TEST(Dataset, LabelPoolsPartitionIndices) {
  runtime::Rng rng(6);
  SyntheticSpec spec;
  spec.num_classes = 4;
  const DataSet ds = make_synthetic(spec, 40, rng);
  const auto pools = ds.label_pools();
  std::size_t total = 0;
  for (std::size_t c = 0; c < pools.size(); ++c) {
    for (auto i : pools[c])
      EXPECT_EQ(static_cast<std::size_t>(ds.label(i)), c);
    total += pools[c].size();
  }
  EXPECT_EQ(total, ds.size());
}

TEST(ClientShard, LabelCountsAndBatch) {
  runtime::Rng rng(7);
  SyntheticSpec spec;
  spec.num_classes = 3;
  spec.sample_shape = {2};
  spec.label_noise = 0.0;
  auto ds = std::make_shared<DataSet>(make_synthetic(spec, 30, rng));
  // Samples 0..5 are labels 0,1,2,0,1,2.
  ClientShard shard(ds, {0, 1, 2, 3, 4, 5});
  const auto counts = shard.label_counts();
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 2u);

  const std::vector<std::size_t> local{0, 5};
  const auto batch = shard.batch(local);
  EXPECT_EQ(batch.labels[0], ds->label(0));
  EXPECT_EQ(batch.labels[1], ds->label(5));
}

TEST(ClientShard, RejectsOutOfRangeIndices) {
  runtime::Rng rng(8);
  SyntheticSpec spec;
  auto ds = std::make_shared<DataSet>(make_synthetic(spec, 5, rng));
  EXPECT_THROW(ClientShard(ds, {7}), std::invalid_argument);
}

// Verbatim copies of the per-element noise loops synthesize_sample and
// make_synthetic ran before Rng::add_normals: the byte-identity reference.
std::int32_t reference_sample(const SyntheticSpec& spec,
                              std::span<const float> prototypes,
                              std::uint64_t seed, std::size_t cls,
                              float* out) {
  const std::size_t dim = nn::shape_size(spec.sample_shape);
  runtime::Rng rng(seed);
  const std::size_t modes = spec.modes_per_class;
  const std::size_t mode = modes > 1 ? rng.next_below(modes) : 0;
  const float* proto = prototypes.data() + (cls * modes + mode) * dim;
  for (std::size_t d = 0; d < dim; ++d)
    out[d] = proto[d] + static_cast<float>(rng.normal() * spec.noise_scale);
  std::int32_t label = static_cast<std::int32_t>(cls);
  if (spec.label_noise > 0.0 && rng.next_double() < spec.label_noise)
    label = static_cast<std::int32_t>(rng.next_below(spec.num_classes));
  return label;
}

DataSet reference_synthetic(const SyntheticSpec& spec, std::size_t n,
                            runtime::Rng& rng) {
  const std::vector<float> prototypes = make_prototypes(spec);
  const std::size_t dim = nn::shape_size(spec.sample_shape);
  const std::size_t modes = spec.modes_per_class;
  std::vector<std::size_t> shape;
  shape.push_back(n);
  shape.insert(shape.end(), spec.sample_shape.begin(), spec.sample_shape.end());
  nn::Tensor features(shape);
  std::vector<std::int32_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cls = i % spec.num_classes;
    const std::size_t mode = modes > 1 ? rng.next_below(modes) : 0;
    const float* proto = prototypes.data() + (cls * modes + mode) * dim;
    float* out = features.raw() + i * dim;
    for (std::size_t d = 0; d < dim; ++d)
      out[d] = proto[d] + static_cast<float>(rng.normal() * spec.noise_scale);
    std::int32_t label = static_cast<std::int32_t>(cls);
    if (spec.label_noise > 0.0 && rng.next_double() < spec.label_noise)
      label = static_cast<std::int32_t>(rng.next_below(spec.num_classes));
    labels[i] = label;
  }
  return DataSet(std::move(features), std::move(labels), spec.num_classes);
}

// Both presets in both shapes, plus an odd width: with {33} every sample
// ends on a cached sin half, which make_synthetic's shared stream hands to
// the next sample.
std::vector<SyntheticSpec> identity_specs() {
  SyntheticSpec odd = cifar_like_spec(false);
  odd.sample_shape = {33};
  return {cifar_like_spec(false), cifar_like_spec(true), sc_like_spec(false),
          sc_like_spec(true), odd};
}

TEST(SyntheticIdentity, SynthesizeSampleMatchesPerElementLoop) {
  for (const SyntheticSpec& spec : identity_specs()) {
    const std::vector<float> prototypes = make_prototypes(spec);
    const std::size_t dim = nn::shape_size(spec.sample_shape);
    const std::size_t samples = dim > 100 ? 400 : 4000;
    std::vector<float> want(dim), got(dim);
    for (std::size_t i = 0; i < samples; ++i) {
      const std::uint64_t seed = sample_stream_seed(0xfeed + dim, i);
      const std::size_t cls = i % spec.num_classes;
      const std::int32_t want_label =
          reference_sample(spec, prototypes, seed, cls, want.data());
      const std::int32_t got_label =
          synthesize_sample(spec, prototypes, seed, cls, got.data());
      ASSERT_EQ(want_label, got_label) << "dim " << dim << " sample " << i;
      ASSERT_EQ(std::memcmp(want.data(), got.data(), dim * sizeof(float)), 0)
          << "dim " << dim << " sample " << i;
    }
  }
}

TEST(SyntheticIdentity, MakeSyntheticMatchesPerElementLoop) {
  for (const SyntheticSpec& spec : identity_specs()) {
    const std::size_t n = nn::shape_size(spec.sample_shape) > 100 ? 150 : 1500;
    runtime::Rng want_rng(4242), got_rng(4242);
    const DataSet want = reference_synthetic(spec, n, want_rng);
    const DataSet got = make_synthetic(spec, n, got_rng);
    ASSERT_EQ(want.features().size(), got.features().size());
    EXPECT_EQ(std::memcmp(want.features().raw(), got.features().raw(),
                          want.features().size() * sizeof(float)),
              0)
        << "shape size " << nn::shape_size(spec.sample_shape);
    EXPECT_TRUE(std::equal(want.labels().begin(), want.labels().end(),
                           got.labels().begin()));
    // The caller's stream continues from the same place.
    EXPECT_EQ(want_rng.normal(), got_rng.normal());
    EXPECT_EQ(want_rng.next_u64(), got_rng.next_u64());
  }
}

TEST(Dataset, RejectsInvalidConstruction) {
  EXPECT_THROW(DataSet(nn::Tensor({2, 3}), {0, 5}, 3), std::invalid_argument);
  EXPECT_THROW(DataSet(nn::Tensor({2, 3}), {0}, 3), std::invalid_argument);
}

}  // namespace
}  // namespace groupfel::data
