#include "cost/calibration.hpp"

#include "backdoor/flame.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "runtime/timer.hpp"
#include "secagg/secure_aggregator.hpp"

namespace groupfel::cost {

std::vector<MeasurementPoint> measure_secagg(
    std::span<const std::size_t> sizes, std::size_t dim) {
  std::vector<MeasurementPoint> points;
  runtime::Rng rng(42);
  for (auto n : sizes) {
    std::vector<std::vector<float>> inputs(n, std::vector<float>(dim, 0.5f));
    // Full protocol per round: key generation and Shamir sharing (rounds
    // 0-1, the Theta(n^2)-per-client part), masking, and server unmasking.
    // Charged evenly across clients.
    const double secs = runtime::time_call([&] {
      secagg::SecureAggregator agg(n, dim, {}, rng);
      (void)agg.run(inputs);
    });
    points.push_back({static_cast<double>(n),
                      secs / static_cast<double>(n)});
  }
  return points;
}

std::vector<MeasurementPoint> measure_backdoor(
    std::span<const std::size_t> sizes, std::size_t dim) {
  std::vector<MeasurementPoint> points;
  runtime::Rng rng(43);
  for (auto n : sizes) {
    std::vector<std::vector<float>> updates(n, std::vector<float>(dim));
    for (auto& u : updates)
      for (auto& v : u) v = static_cast<float>(rng.normal());
    backdoor::FlameConfig cfg;
    const double secs = runtime::time_call(
        [&] { (void)backdoor::flame_filter(updates, cfg, rng); });
    points.push_back({static_cast<double>(n),
                      secs / static_cast<double>(n)});
  }
  return points;
}

std::vector<MeasurementPoint> measure_training(
    std::span<const std::size_t> sample_counts, std::size_t feature_dim,
    std::size_t num_classes) {
  std::vector<MeasurementPoint> points;
  runtime::Rng rng(44);
  nn::Model model = nn::make_mlp(feature_dim, 64, num_classes);
  model.init(rng);
  nn::SgdOptimizer opt({.lr = 0.05f});
  for (auto n : sample_counts) {
    nn::Tensor x({n, feature_dim});
    for (auto& v : x.data()) v = static_cast<float>(rng.normal());
    std::vector<std::int32_t> y(n);
    for (auto& l : y)
      l = static_cast<std::int32_t>(rng.next_below(num_classes));
    const double secs = runtime::time_call([&] {
      model.zero_grad();
      const nn::Tensor logits = model.forward(x, true);
      const nn::LossResult lr = nn::softmax_cross_entropy(logits, y);
      model.backward(lr.grad);
      opt.step(model);
    });
    points.push_back({static_cast<double>(n), secs});
  }
  return points;
}

}  // namespace groupfel::cost
