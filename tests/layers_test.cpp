// Layer tests: shape handling plus numerical gradient checks of every
// hand-written backward pass (the core correctness property of the NN
// substrate).
#include "nn/layer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "support/gradcheck.hpp"
#include "nn/models.hpp"

namespace groupfel::nn {
namespace {

Tensor random_input(runtime::Rng& rng, std::vector<std::size_t> shape) {
  Tensor t(std::move(shape));
  for (auto& v : t.data()) v = static_cast<float>(rng.normal());
  return t;
}

std::vector<std::int32_t> random_labels(runtime::Rng& rng, std::size_t n,
                                        std::size_t classes) {
  std::vector<std::int32_t> labels(n);
  for (auto& l : labels)
    l = static_cast<std::int32_t>(rng.next_below(classes));
  return labels;
}

TEST(Linear, ForwardShapeAndBias) {
  Linear layer(3, 2);
  // Zero weights + zero bias -> zero output.
  Tensor x({4, 3}, std::vector<float>(12, 1.0f));
  const Tensor y = layer.forward(x, false);
  EXPECT_EQ(y.dim(0), 4u);
  EXPECT_EQ(y.dim(1), 2u);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], 0.0f);
}

TEST(Linear, RejectsWrongInputWidth) {
  Linear layer(3, 2);
  Tensor x({4, 5});
  EXPECT_THROW((void)layer.forward(x, false), std::invalid_argument);
}

TEST(Linear, BackwardRequiresTrainForward) {
  Linear layer(3, 2);
  Tensor g({4, 2});
  EXPECT_THROW((void)layer.backward(g), std::logic_error);
}

TEST(Linear, CloneSharesParamsNotCache) {
  runtime::Rng rng(1);
  Linear layer(3, 2);
  layer.init(rng);
  auto copy = layer.clone();
  // Same forward output.
  Tensor x = random_input(rng, {2, 3});
  const Tensor y1 = layer.forward(x, false);
  const Tensor y2 = copy->forward(x, false);
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_EQ(y1[i], y2[i]);
}

TEST(Linear, ParamCount) {
  Linear layer(3, 2);
  EXPECT_EQ(layer.param_count(), 3u * 2 + 2);
}

TEST(ReLU, ClampsNegatives) {
  ReLU relu;
  Tensor x({1, 4}, {-1.0f, 0.0f, 2.0f, -0.5f});
  const Tensor y = relu.forward(x, false);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  EXPECT_EQ(y[3], 0.0f);
}

TEST(ReLU, GradientMasksNegatives) {
  ReLU relu;
  Tensor x({1, 3}, {-1.0f, 1.0f, 2.0f});
  (void)relu.forward(x, true);
  Tensor g({1, 3}, {5.0f, 5.0f, 5.0f});
  const Tensor gi = relu.backward(g);
  EXPECT_EQ(gi[0], 0.0f);
  EXPECT_EQ(gi[1], 5.0f);
  EXPECT_EQ(gi[2], 5.0f);
}

TEST(ReLU, ByteIdenticalToCopyThenMaskOracle) {
  // Verbatim oracle: forward copies x and clamps with `v > 0 ? v : 0`;
  // backward copies dY and zeroes where `x <= 0`. NaN fails both tests, so
  // it clamps to +0 forward and still passes its gradient backward.
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> xs = {-1.0f, 0.0f, -0.0f, 2.0f, inf, -inf,
                                 std::nanf("1"), -std::nanf("2"), 3.5f,
                                 -2.5f, 1e-40f, -1e-40f, 7.0f};
  runtime::Rng rng(31);
  for (const std::size_t size : {std::size_t{1}, std::size_t{13},
                                 std::size_t{100}, std::size_t{1031}}) {
    SCOPED_TRACE(::testing::Message() << "size=" << size);
    Tensor x({1, size}), g({1, size});
    for (std::size_t i = 0; i < size; ++i) {
      x[i] = rng.next_below(3) == 0 ? xs[rng.next_below(xs.size())]
                                    : static_cast<float>(rng.normal());
      g[i] = rng.next_below(4) == 0 ? xs[rng.next_below(xs.size())]
                                    : static_cast<float>(rng.normal());
    }
    Tensor want_y = x;
    for (auto& v : want_y.data()) v = v > 0.0f ? v : 0.0f;
    Tensor want_gi = g;
    for (std::size_t i = 0; i < size; ++i)
      if (x[i] <= 0.0f) want_gi[i] = 0.0f;

    ReLU relu;
    const Tensor eval = relu.forward(x, false);
    ASSERT_EQ(eval.shape(), x.shape());
    EXPECT_EQ(std::memcmp(eval.raw(), want_y.raw(), size * sizeof(float)), 0);
    const Tensor y = relu.forward(x, true);
    EXPECT_EQ(std::memcmp(y.raw(), want_y.raw(), size * sizeof(float)), 0);
    const Tensor gi = relu.backward(g);
    ASSERT_EQ(gi.shape(), g.shape());
    EXPECT_EQ(std::memcmp(gi.raw(), want_gi.raw(), size * sizeof(float)), 0);
  }
}

TEST(Flatten, RoundTripsShape) {
  Flatten flat;
  Tensor x({2, 3, 4, 5});
  const Tensor y = flat.forward(x, true);
  EXPECT_EQ(y.dim(0), 2u);
  EXPECT_EQ(y.dim(1), 60u);
  Tensor g({2, 60});
  const Tensor gi = flat.backward(g);
  EXPECT_EQ(gi.shape(), x.shape());
}

TEST(Conv2d, OutputShapeWithPadding) {
  Conv2d conv(3, 8, 3, 1);
  Tensor x({2, 3, 8, 8});
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.dim(0), 2u);
  EXPECT_EQ(y.dim(1), 8u);
  EXPECT_EQ(y.dim(2), 8u);  // same-padding with k=3, pad=1
  EXPECT_EQ(y.dim(3), 8u);
}

TEST(Conv2d, OutputShapeNoPadding) {
  Conv2d conv(1, 2, 3, 0);
  Tensor x({1, 1, 5, 5});
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.dim(2), 3u);
  EXPECT_EQ(y.dim(3), 3u);
}

TEST(Conv2d, IdentityKernelCopiesInput) {
  Conv2d conv(1, 1, 1, 0);
  // First visited tensor is the kernel, second the bias.
  int visit = 0;
  conv.for_each_param([&](Tensor& p, Tensor&) {
    p[0] = (visit++ == 0) ? 1.0f : 0.0f;
  });
  runtime::Rng rng(3);
  Tensor x = random_input(rng, {1, 1, 4, 4});
  const Tensor y = conv.forward(x, false);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(MaxPool2d, PicksMaxima) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, {1.0f, 5.0f, 3.0f, 2.0f});
  const Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.size(), 1u);
  EXPECT_EQ(y[0], 5.0f);
}

TEST(MaxPool2d, GradientFlowsToArgmaxOnly) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, {1.0f, 5.0f, 3.0f, 2.0f});
  (void)pool.forward(x, true);
  Tensor g({1, 1, 1, 1}, {7.0f});
  const Tensor gi = pool.backward(g);
  EXPECT_EQ(gi[0], 0.0f);
  EXPECT_EQ(gi[1], 7.0f);
  EXPECT_EQ(gi[2], 0.0f);
  EXPECT_EQ(gi[3], 0.0f);
}

TEST(MaxPool2d, WindowWithoutCandidateRoutesGradientToItsFirstElement) {
  // Sample 1 holds an all-NaN window and an all-−inf window. Nothing beats
  // the −inf start, so both output −inf; their gradient must land on the
  // window's own first element, never on sample 0's pixel (0, 0).
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float ninf = -std::numeric_limits<float>::infinity();
  for (const std::size_t window : {std::size_t{2}, std::size_t{3}}) {
    SCOPED_TRACE(::testing::Message() << "window=" << window);
    const std::size_t side = 2 * window;
    Tensor x({2, 1, side, side});
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] = static_cast<float>(i % 7) - 3.0f;
    const std::size_t plane = side * side;
    for (std::size_t ky = 0; ky < window; ++ky)
      for (std::size_t kx = 0; kx < window; ++kx) {
        x[plane + ky * side + kx] = nan;                  // window (0, 0)
        x[plane + ky * side + window + kx] = ninf;        // window (0, 1)
      }
    MaxPool2d pool(window);
    const Tensor y = pool.forward(x, true);
    EXPECT_EQ(y.at4(1, 0, 0, 0), ninf);
    EXPECT_EQ(y.at4(1, 0, 0, 1), ninf);
    Tensor g({2, 1, 2, 2});
    g.zero();
    g.at4(1, 0, 0, 0) = 5.0f;
    g.at4(1, 0, 0, 1) = 7.0f;
    const Tensor gi = pool.backward(g);
    EXPECT_EQ(gi[0], 0.0f) << "gradient leaked into sample 0";
    EXPECT_EQ(gi.at4(1, 0, 0, 0), 5.0f);
    EXPECT_EQ(gi.at4(1, 0, 0, window), 7.0f);
    float total = 0.0f;
    for (const float v : gi.data()) total += v;
    EXPECT_EQ(total, 12.0f);
  }
}

TEST(GlobalAvgPool, Averages) {
  GlobalAvgPool gap;
  Tensor x({1, 2, 2, 2}, {1, 2, 3, 4, 10, 10, 10, 10});
  const Tensor y = gap.forward(x, false);
  EXPECT_FLOAT_EQ(y.at2(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y.at2(0, 1), 10.0f);
}

// ---- Numerical gradient checks ----

TEST(GradCheck, LinearModel) {
  runtime::Rng rng(10);
  Model m;
  m.add(std::make_unique<Linear>(6, 4));
  m.init(rng);
  const Tensor x = random_input(rng, {5, 6});
  const auto labels = random_labels(rng, 5, 4);
  const GradCheckResult res = check_gradients(m, x, labels);
  EXPECT_TRUE(res.passed) << "max rel err " << res.max_rel_error;
}

TEST(GradCheck, MlpWithReLU) {
  runtime::Rng rng(11);
  Model m = make_mlp(8, 10, 3);
  m.init(rng);
  const Tensor x = random_input(rng, {6, 8});
  const auto labels = random_labels(rng, 6, 3);
  const GradCheckResult res = check_gradients(m, x, labels);
  EXPECT_TRUE(res.passed) << "max rel err " << res.max_rel_error;
}

TEST(GradCheck, ConvStack) {
  runtime::Rng rng(12);
  Model m;
  m.add(std::make_unique<Conv2d>(2, 3, 3, 1))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<MaxPool2d>(2))
      .add(std::make_unique<Flatten>())
      .add(std::make_unique<Linear>(3 * 3 * 3, 4));
  m.init(rng);
  const Tensor x = random_input(rng, {3, 2, 6, 6});
  const auto labels = random_labels(rng, 3, 4);
  const GradCheckResult res = check_gradients(m, x, labels, 3e-3, 6e-2, 128);
  EXPECT_TRUE(res.passed) << "max rel err " << res.max_rel_error;
}

TEST(GradCheck, GlobalAvgPoolPath) {
  runtime::Rng rng(13);
  Model m;
  m.add(std::make_unique<Conv2d>(1, 4, 3, 1))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<GlobalAvgPool>())
      .add(std::make_unique<Linear>(4, 3));
  m.init(rng);
  const Tensor x = random_input(rng, {4, 1, 5, 5});
  const auto labels = random_labels(rng, 4, 3);
  const GradCheckResult res = check_gradients(m, x, labels, 3e-3, 6e-2, 128);
  EXPECT_TRUE(res.passed) << "max rel err " << res.max_rel_error;
}

TEST(GradCheck, ResidualBlockWithProjection) {
  runtime::Rng rng(14);
  Model m;
  m.add(std::make_unique<ResidualBlock>(2, 4))
      .add(std::make_unique<GlobalAvgPool>())
      .add(std::make_unique<Linear>(4, 3));
  m.init(rng);
  const Tensor x = random_input(rng, {2, 2, 5, 5});
  const auto labels = random_labels(rng, 2, 3);
  const GradCheckResult res = check_gradients(m, x, labels, 3e-3, 6e-2, 128);
  EXPECT_TRUE(res.passed) << "max rel err " << res.max_rel_error;
}

TEST(GradCheck, ResidualBlockIdentitySkip) {
  runtime::Rng rng(15);
  Model m;
  m.add(std::make_unique<ResidualBlock>(3, 3))
      .add(std::make_unique<GlobalAvgPool>())
      .add(std::make_unique<Linear>(3, 2));
  m.init(rng);
  const Tensor x = random_input(rng, {2, 3, 4, 4});
  const auto labels = random_labels(rng, 2, 2);
  const GradCheckResult res = check_gradients(m, x, labels, 3e-3, 6e-2, 128);
  EXPECT_TRUE(res.passed) << "max rel err " << res.max_rel_error;
}

// Factory architectures: forward shape sanity + one gradient probe each.

TEST(Factories, ResNet3ForwardShape) {
  runtime::Rng rng(16);
  Model m = make_resnet3(3, 16, 10);
  m.init(rng);
  const Tensor x = random_input(rng, {2, 3, 16, 16});
  const Tensor y = m.forward(x, false);
  EXPECT_EQ(y.dim(0), 2u);
  EXPECT_EQ(y.dim(1), 10u);
}

TEST(Factories, Cnn5ForwardShape) {
  runtime::Rng rng(17);
  Model m = make_cnn5(1, 32, 16, 35);
  m.init(rng);
  const Tensor x = random_input(rng, {2, 1, 32, 16});
  const Tensor y = m.forward(x, false);
  EXPECT_EQ(y.dim(1), 35u);
}

TEST(Factories, MlpForwardShape) {
  runtime::Rng rng(18);
  Model m = make_mlp(32, 64, 10);
  m.init(rng);
  const Tensor x = random_input(rng, {3, 32});
  const Tensor y = m.forward(x, false);
  EXPECT_EQ(y.dim(1), 10u);
}

}  // namespace
}  // namespace groupfel::nn
