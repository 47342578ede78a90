#include "support/gradcheck.hpp"

#include <algorithm>
#include <cmath>

namespace groupfel::nn {

namespace {
double loss_at(Model& model, const Tensor& input,
               std::span<const std::int32_t> labels) {
  const Tensor logits = model.forward(input, /*train=*/false);
  return softmax_cross_entropy(logits, labels).loss;
}
}  // namespace

GradCheckResult check_gradients(Model& model, const Tensor& input,
                                std::span<const std::int32_t> labels,
                                double eps, double tol,
                                std::size_t max_params,
                                double max_fail_fraction) {
  // Analytic gradients.
  model.zero_grad();
  const Tensor logits = model.forward(input, /*train=*/true);
  const LossResult lr = softmax_cross_entropy(logits, labels);
  model.backward(lr.grad);
  const std::vector<float> analytic = model.flat_gradients();
  std::vector<float> params = model.flat_parameters();

  const std::size_t total = params.size();
  const std::size_t stride = std::max<std::size_t>(1, total / max_params);

  GradCheckResult res;
  for (std::size_t i = 0; i < total; i += stride) {
    const float original = params[i];
    params[i] = original + static_cast<float>(eps);
    model.set_flat_parameters(params);
    const double lp = loss_at(model, input, labels);
    params[i] = original - static_cast<float>(eps);
    model.set_flat_parameters(params);
    const double lm = loss_at(model, input, labels);
    params[i] = original;

    const double numeric = (lp - lm) / (2.0 * eps);
    const double a = static_cast<double>(analytic[i]);
    const double abs_err = std::abs(numeric - a);
    const double denom = std::max({std::abs(numeric), std::abs(a), 1e-8});
    res.max_abs_error = std::max(res.max_abs_error, abs_err);
    res.max_rel_error = std::max(res.max_rel_error, abs_err / denom);
    ++res.checked;
    // Pass rule per parameter: small relative error, OR tiny absolute error
    // (gradient ~0, where fp32 cancellation dominates the relative measure).
    if (abs_err / denom > tol && abs_err > tol * 1e-2) ++res.failed;
  }
  model.set_flat_parameters(params);
  res.passed = static_cast<double>(res.failed) <=
               max_fail_fraction * static_cast<double>(res.checked);
  return res;
}

}  // namespace groupfel::nn
