#include "nn/model.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "runtime/thread_pool.hpp"
#include "util/check.hpp"

namespace groupfel::nn {
namespace {

Model small_mlp(runtime::Rng& rng) {
  Model m = make_mlp(4, 8, 3);
  m.init(rng);
  return m;
}

TEST(Model, ParamCountMatchesLayers) {
  runtime::Rng rng(1);
  Model m = small_mlp(rng);
  // 4*8+8 + 8*8+8 + 8*3+3 = 40 + 72 + 27 = 139
  EXPECT_EQ(m.param_count(), 139u);
}

TEST(Model, FlatParametersRoundTrip) {
  runtime::Rng rng(2);
  Model m = small_mlp(rng);
  const std::vector<float> flat = m.flat_parameters();
  EXPECT_EQ(flat.size(), m.param_count());

  std::vector<float> modified = flat;
  for (auto& v : modified) v += 1.0f;
  m.set_flat_parameters(modified);
  EXPECT_EQ(m.flat_parameters(), modified);

  m.set_flat_parameters(flat);
  EXPECT_EQ(m.flat_parameters(), flat);
}

TEST(Model, SetFlatRejectsWrongSize) {
  runtime::Rng rng(3);
  Model m = small_mlp(rng);
  std::vector<float> wrong(m.param_count() + 1, 0.0f);
  EXPECT_THROW(m.set_flat_parameters(wrong), std::invalid_argument);
}

TEST(Model, CloneIsDeepCopy) {
  runtime::Rng rng(4);
  Model m = small_mlp(rng);
  Model c = m.clone();
  EXPECT_EQ(c.flat_parameters(), m.flat_parameters());

  std::vector<float> mutated = c.flat_parameters();
  mutated[0] += 5.0f;
  c.set_flat_parameters(mutated);
  EXPECT_NE(c.flat_parameters()[0], m.flat_parameters()[0]);
}

TEST(Model, ZeroGradClearsGradients) {
  runtime::Rng rng(5);
  Model m = small_mlp(rng);
  Tensor x({2, 4}, {1, 2, 3, 4, 5, 6, 7, 8});
  const std::vector<std::int32_t> labels{0, 1};
  const Tensor logits = m.forward(x, true);
  m.backward(softmax_cross_entropy(logits, labels).grad);
  bool any_nonzero = false;
  for (float g : m.flat_gradients()) any_nonzero |= (g != 0.0f);
  EXPECT_TRUE(any_nonzero);
  m.zero_grad();
  for (float g : m.flat_gradients()) EXPECT_EQ(g, 0.0f);
}

TEST(Model, GradientsAccumulateAcrossBackwards) {
  runtime::Rng rng(6);
  Model m = small_mlp(rng);
  Tensor x({1, 4}, {1, -1, 0.5, 2});
  const std::vector<std::int32_t> labels{2};

  m.zero_grad();
  const Tensor l1 = m.forward(x, true);
  m.backward(softmax_cross_entropy(l1, labels).grad);
  const std::vector<float> once = m.flat_gradients();

  const Tensor l2 = m.forward(x, true);
  m.backward(softmax_cross_entropy(l2, labels).grad);
  const std::vector<float> twice = m.flat_gradients();

  for (std::size_t i = 0; i < once.size(); ++i)
    EXPECT_NEAR(twice[i], 2.0f * once[i], 1e-5f);
}

// ---- Layer-0 parameter-only backward ----

struct BackwardCase {
  const char* name;
  Model model;
  std::vector<std::size_t> sample_shape;
};

std::vector<BackwardCase> backward_cases() {
  std::vector<BackwardCase> cases;
  cases.push_back({"mlp", make_mlp(12, 16, 5), {12}});
  cases.push_back({"cnn5", make_cnn5(3, 16, 16, 5), {3, 16, 16}});
  cases.push_back({"resnet3", make_resnet3(3, 8, 5, 4), {3, 8, 8}});
  runtime::Rng rng(31);
  for (auto& c : cases) c.model.init(rng);
  return cases;
}

Tensor random_batch(std::size_t n, const std::vector<std::size_t>& sample,
                    runtime::Rng& rng) {
  std::vector<std::size_t> shape{n};
  shape.insert(shape.end(), sample.begin(), sample.end());
  Tensor x(shape);
  for (auto& v : x.data()) v = static_cast<float>(rng.normal());
  return x;
}

std::vector<std::int32_t> labels_for(std::size_t n) {
  std::vector<std::int32_t> labels(n);
  for (std::size_t i = 0; i < n; ++i)
    labels[i] = static_cast<std::int32_t>(i % 5);
  return labels;
}

/// Reference: clones of every layer chained by hand, each running the full
/// Layer::backward (input gradient included), gradients read in model order.
std::vector<float> manual_chain_gradients(const Model& proto, const Tensor& x,
                                          std::span<const std::int32_t> y) {
  std::vector<std::unique_ptr<Layer>> layers;
  for (std::size_t i = 0; i < proto.layer_count(); ++i)
    layers.push_back(proto.layer(i).clone());
  const Tensor* h = &x;
  for (auto& l : layers) h = &l->forward(*h, /*train=*/true);
  const LossResult loss = softmax_cross_entropy(*h, y);
  const Tensor* g = &loss.grad;
  for (auto it = layers.rbegin(); it != layers.rend(); ++it)
    g = &(*it)->backward(*g);
  std::vector<float> flat;
  for (auto& l : layers)
    l->for_each_param([&](Tensor&, Tensor& grad) {
      flat.insert(flat.end(), grad.data().begin(), grad.data().end());
    });
  return flat;
}

TEST(Model, BackwardMatchesFullLayerChainBitwise) {
  for (auto& c : backward_cases()) {
    SCOPED_TRACE(c.name);
    runtime::Rng rng(32);
    const Tensor x = random_batch(6, c.sample_shape, rng);
    const std::vector<std::int32_t> y = labels_for(6);
    Model m = c.model.clone();
    const Tensor& logits = m.forward(x, /*train=*/true);
    m.backward(softmax_cross_entropy(logits, y).grad);
    EXPECT_EQ(m.flat_gradients(), manual_chain_gradients(c.model, x, y));
  }
}

TEST(Model, EvalForwardBetweenTrainForwardAndBackwardKeepsGradients) {
  for (auto& c : backward_cases()) {
    SCOPED_TRACE(c.name);
    runtime::Rng rng(33);
    const Tensor train_x = random_batch(6, c.sample_shape, rng);
    const Tensor eval_x = random_batch(9, c.sample_shape, rng);
    const std::vector<std::int32_t> y = labels_for(6);

    Model ref = c.model.clone();
    const LossResult ref_loss =
        softmax_cross_entropy(ref.forward(train_x, /*train=*/true), y);
    ref.backward(ref_loss.grad);

    // Evaluation on another batch (and batch size) between a training
    // forward and its backward must not disturb what backward reads.
    Model m = c.model.clone();
    const LossResult loss =
        softmax_cross_entropy(m.forward(train_x, /*train=*/true), y);
    (void)m.forward(eval_x, /*train=*/false);
    m.backward(loss.grad);
    EXPECT_EQ(m.flat_gradients(), ref.flat_gradients());
  }
}

TEST(Model, BackwardParamsWithoutForwardThrows) {
  const Tensor dense_grad({2, 3});
  const Tensor conv_grad({2, 4, 5, 5});
  Linear linear(4, 3);
  EXPECT_THROW(linear.backward(dense_grad), util::CheckFailure);
  EXPECT_THROW(linear.backward_params(dense_grad), util::CheckFailure);
  Conv2d conv(2, 4, 3, 1);
  EXPECT_THROW(conv.backward(conv_grad), util::CheckFailure);
  EXPECT_THROW(conv.backward_params(conv_grad), util::CheckFailure);
  ReLU relu;  // parameter-free: the default backward_params runs backward
  EXPECT_THROW(relu.backward(dense_grad), util::CheckFailure);
  EXPECT_THROW(relu.backward_params(dense_grad), util::CheckFailure);
}

TEST(Sgd, StepReducesLoss) {
  runtime::Rng rng(7);
  Model m = small_mlp(rng);
  Tensor x({4, 4});
  for (auto& v : x.data()) v = static_cast<float>(rng.normal());
  const std::vector<std::int32_t> labels{0, 1, 2, 0};

  SgdOptimizer opt({.lr = 0.1f});
  double prev = 1e18;
  for (int step = 0; step < 30; ++step) {
    m.zero_grad();
    const Tensor logits = m.forward(x, true);
    const LossResult lr = softmax_cross_entropy(logits, labels);
    m.backward(lr.grad);
    opt.step(m);
    if (step > 0) {
      EXPECT_LT(lr.loss, prev + 0.05);  // allow tiny jitter
    }
    prev = lr.loss;
  }
  EXPECT_LT(prev, 0.5);
}

TEST(Sgd, MomentumAcceleratesOnQuadratic) {
  // On a fixed batch, momentum reaches lower loss than plain SGD in the
  // same number of steps (classic behaviour on ill-conditioned problems).
  auto train = [](float momentum) {
    runtime::Rng rng(8);
    Model m = make_mlp(4, 8, 3);
    m.init(rng);
    Tensor x({4, 4});
    runtime::Rng data_rng(9);
    for (auto& v : x.data()) v = static_cast<float>(data_rng.normal());
    const std::vector<std::int32_t> labels{0, 1, 2, 0};
    SgdOptimizer opt({.lr = 0.02f, .momentum = momentum});
    double last = 0;
    for (int step = 0; step < 40; ++step) {
      m.zero_grad();
      const Tensor logits = m.forward(x, true);
      const LossResult lr = softmax_cross_entropy(logits, labels);
      m.backward(lr.grad);
      opt.step(m);
      last = lr.loss;
    }
    return last;
  };
  EXPECT_LT(train(0.9f), train(0.0f));
}

TEST(Sgd, WeightDecayShrinksWeights) {
  runtime::Rng rng(10);
  Model m = small_mlp(rng);
  const double norm_before = [&] {
    double s = 0;
    for (float v : m.flat_parameters())
      s += static_cast<double>(v) * static_cast<double>(v);
    return s;
  }();
  SgdOptimizer opt({.lr = 0.1f, .weight_decay = 0.1f});
  // Zero gradients: only the decay term acts.
  m.zero_grad();
  opt.step(m);
  const double norm_after = [&] {
    double s = 0;
    for (float v : m.flat_parameters())
      s += static_cast<double>(v) * static_cast<double>(v);
    return s;
  }();
  EXPECT_LT(norm_after, norm_before);
}

TEST(Sgd, AdjustHookReceivesOffsets) {
  runtime::Rng rng(11);
  Model m = small_mlp(rng);
  m.zero_grad();
  std::vector<std::size_t> offsets;
  SgdOptimizer opt({.lr = 0.0f});
  opt.step(m, [&](std::size_t off, std::span<const float>,
                  std::span<float>) { offsets.push_back(off); });
  // 6 parameter tensors: offsets must be increasing and start at 0.
  ASSERT_EQ(offsets.size(), 6u);
  EXPECT_EQ(offsets[0], 0u);
  for (std::size_t i = 1; i < offsets.size(); ++i)
    EXPECT_GT(offsets[i], offsets[i - 1]);
  EXPECT_EQ(offsets.back() + 3u /*last bias*/, m.param_count() - 0u);
}

TEST(FlatOps, Axpy) {
  std::vector<float> out{1.0f, 2.0f};
  const std::vector<float> v{10.0f, 20.0f};
  axpy(out, v, 0.5f);
  EXPECT_FLOAT_EQ(out[0], 6.0f);
  EXPECT_FLOAT_EQ(out[1], 12.0f);
  std::vector<float> bad{1.0f};
  EXPECT_THROW(axpy(bad, v, 1.0f), std::invalid_argument);
}

TEST(FlatOps, WeightedAverage) {
  const std::vector<std::vector<float>> vs{{1.0f, 0.0f}, {3.0f, 10.0f}};
  const std::vector<double> w{0.25, 0.75};
  const auto avg = weighted_average(vs, w);
  EXPECT_FLOAT_EQ(avg[0], 2.5f);
  EXPECT_FLOAT_EQ(avg[1], 7.5f);
}

TEST(FlatOps, WeightedAverageRejectsBadInput) {
  const std::vector<std::vector<float>> empty;
  const std::vector<double> w{1.0};
  EXPECT_THROW((void)weighted_average(empty, w), std::invalid_argument);
  const std::vector<std::vector<float>> ragged{{1.0f}, {1.0f, 2.0f}};
  const std::vector<double> w2{0.5, 0.5};
  EXPECT_THROW((void)weighted_average(ragged, w2), std::invalid_argument);
}

TEST(FlatOps, L2Distance) {
  const std::vector<float> a{0.0f, 3.0f};
  const std::vector<float> b{4.0f, 0.0f};
  EXPECT_DOUBLE_EQ(l2_distance(a, b), 5.0);
}

TEST(Model, FlatIntoMatchesAllocatingVariants) {
  runtime::Rng rng(11);
  Model m = small_mlp(rng);
  // Produce non-zero gradients so flat_gradients_into has real content.
  Tensor x({2, 4});
  for (auto& v : x.data()) v = 0.5f;
  Tensor logits = m.forward(x, /*train=*/true);
  Tensor grad(logits.shape());
  for (auto& v : grad.data()) v = 1.0f;
  m.backward(grad);

  std::vector<float> params(m.param_count());
  std::vector<float> grads(m.param_count());
  m.flat_parameters_into(params);
  m.flat_gradients_into(grads);
  EXPECT_EQ(params, m.flat_parameters());
  EXPECT_EQ(grads, m.flat_gradients());

  std::vector<float> wrong(m.param_count() + 1);
  EXPECT_THROW(m.flat_parameters_into(wrong), std::invalid_argument);
  EXPECT_THROW(m.flat_gradients_into(wrong), std::invalid_argument);
}

TEST(Model, ConstForEachParamVisitsSameTensors) {
  runtime::Rng rng(12);
  Model m = small_mlp(rng);
  std::vector<const Tensor*> mutable_view;
  m.for_each_param(
      [&](Tensor& p, Tensor&) { mutable_view.push_back(&p); });
  std::vector<const Tensor*> const_view;
  const Model& cm = m;
  cm.for_each_param(
      [&](const Tensor& p, const Tensor&) { const_view.push_back(&p); });
  EXPECT_EQ(mutable_view, const_view);
}

TEST(FlatOps, WeightedAverageIntoBitIdenticalForAnyPool) {
  // Spans several kReduceBlock blocks so the parallel path actually splits.
  const std::size_t dim = 20000;
  runtime::Rng rng(13);
  std::vector<std::vector<float>> vs(3, std::vector<float>(dim));
  for (auto& v : vs)
    for (auto& x : v) x = static_cast<float>(rng.normal());
  const std::vector<double> w{0.2, 0.5, 0.3};
  const std::vector<float> serial = weighted_average(vs, w);

  const std::vector<std::span<const float>> views(vs.begin(), vs.end());
  std::vector<float> out(dim);
  weighted_average_into(out, views, w, nullptr);
  EXPECT_EQ(out, serial);

  runtime::ThreadPool pool(3);
  std::fill(out.begin(), out.end(), 0.0f);
  weighted_average_into(out, views, w, &pool);
  EXPECT_EQ(out, serial);
}

}  // namespace
}  // namespace groupfel::nn
