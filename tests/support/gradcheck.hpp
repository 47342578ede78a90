// Numerical gradient checking — validates every layer's hand-written
// backward pass against central finite differences. Test support: linked
// into the layer tests only, not part of the library.
#pragma once

#include <cstdint>
#include <span>

#include "nn/model.hpp"

namespace groupfel::nn {

struct GradCheckResult {
  double max_rel_error = 0.0;  ///< worst relative error over checked params
  double max_abs_error = 0.0;
  std::size_t checked = 0;     ///< number of parameters probed
  std::size_t failed = 0;      ///< parameters violating the pass rule
  bool passed = false;
};

/// Compares analytic gradients of `model` (via softmax cross-entropy on
/// `input`/`labels`) against central differences with step `eps`.
/// Probes at most `max_params` parameters (uniform stride) to bound cost.
/// A parameter passes when rel_err <= tol or abs_err <= tol * 1e-2; the
/// overall check passes when at most `max_fail_fraction` of probed
/// parameters violate it. The slack exists because ReLU networks are not
/// differentiable at activation boundaries: a finite-difference step that
/// flips a unit's sign produces a one-sided derivative the analytic
/// gradient legitimately disagrees with.
[[nodiscard]] GradCheckResult check_gradients(
    Model& model, const Tensor& input, std::span<const std::int32_t> labels,
    double eps = 3e-3, double tol = 5e-2, std::size_t max_params = 256,
    double max_fail_fraction = 0.03);

}  // namespace groupfel::nn
