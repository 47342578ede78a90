#include <cmath>
#include <cstdint>

#include "nn/layer.hpp"
#include "util/check.hpp"

namespace groupfel::nn {

// ---------------- Linear ----------------

Linear::Linear(std::size_t in_features, std::size_t out_features)
    : in_(in_features),
      out_(out_features),
      weight_({in_, out_}),
      bias_({1, out_}),
      grad_w_({in_, out_}),
      grad_b_({1, out_}) {}

void Linear::init(runtime::Rng& rng) {
  // He initialization: suited to the ReLU networks this library builds.
  const float scale = std::sqrt(2.0f / static_cast<float>(in_));
  for (auto& w : weight_.data()) w = static_cast<float>(rng.normal()) * scale;
  bias_.zero();
}

const Tensor& Linear::forward(const Tensor& input, bool train) {
  GF_CHECK(input.rank() == 2 && input.dim(1) == in_,
           "Linear::forward: expected [N, ", in_, "], got ",
           input.shape_string());
  const std::size_t n = input.dim(0);
  out_buf_.resize2(n, out_);
  matmul(input, weight_, out_buf_, sp_);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < out_; ++j) out_buf_.at2(i, j) += bias_[j];
  if (train) cached_input_ = input;
  return out_buf_;
}

const Tensor& Linear::backward(const Tensor& grad_out) {
  backward_impl(grad_out, /*input_grad=*/true);
  return grad_in_;
}

void Linear::backward_params(const Tensor& grad_out) {
  backward_impl(grad_out, /*input_grad=*/false);
}

void Linear::backward_impl(const Tensor& grad_out, bool input_grad) {
  const std::size_t n = grad_out.dim(0);
  GF_CHECK(cached_input_.size() != 0,
           "Linear::backward without forward(train=true)");
  GF_CHECK(grad_out.rank() == 2 && grad_out.dim(1) == out_ &&
               n == cached_input_.dim(0),
           "Linear::backward: grad ", grad_out.shape_string(),
           " does not match cached input ", cached_input_.shape_string());
  // dW += X^T * dY ; db += column sums of dY ; dX = dY * W^T
  matmul_at_acc(cached_input_, grad_out, grad_w_, sp_);
  const float* go = grad_out.raw();
  float* gb = grad_b_.raw();
  for (std::size_t i = 0; i < n; ++i) {
    const float* grow = go + i * out_;
    for (std::size_t j = 0; j < out_; ++j) gb[j] += grow[j];
  }
  if (!input_grad) return;
  grad_in_.resize2(n, in_);
  matmul_bt(grad_out, weight_, grad_in_, sp_);
}

void Linear::for_each_param(
    util::FunctionRef<void(Tensor&, Tensor&)> fn) {
  fn(weight_, grad_w_);
  fn(bias_, grad_b_);
}

void Linear::for_each_param(
    util::FunctionRef<void(const Tensor&, const Tensor&)> fn) const {
  fn(weight_, grad_w_);
  fn(bias_, grad_b_);
}

std::size_t Linear::param_count() const { return weight_.size() + bias_.size(); }

std::unique_ptr<Layer> Linear::clone() const {
  auto copy = std::make_unique<Linear>(in_, out_);
  copy->sp_ = sp_;
  copy->weight_ = weight_;
  copy->bias_ = bias_;
  return copy;
}

// ---------------- ReLU ----------------

// One pass each way. Training caches the backward test `x <= 0` as one byte
// per element rather than a copy of x: NaN fails both `x > 0` and `x <= 0`,
// so a NaN input clamps to 0 forward yet passes its gradient backward.
const Tensor& ReLU::forward(const Tensor& input, bool train) {
  out_buf_.resize(input.shape());
  const float* x = input.raw();
  float* y = out_buf_.raw();
  const std::size_t size = input.size();
  if (train) {
    blocked_.resize(size);
    std::uint8_t* blocked = blocked_.data();
    for (std::size_t i = 0; i < size; ++i) {
      const float v = x[i];
      y[i] = v > 0.0f ? v : 0.0f;
      blocked[i] = v <= 0.0f;
    }
  } else {
    for (std::size_t i = 0; i < size; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }
  return out_buf_;
}

const Tensor& ReLU::backward(const Tensor& grad_out) {
  GF_CHECK_EQ(blocked_.size(), grad_out.size(),
              "ReLU::backward shape mismatch");
  grad_in_.resize(grad_out.shape());
  const std::uint8_t* blocked = blocked_.data();
  const float* g = grad_out.raw();
  float* gi = grad_in_.raw();
  const std::size_t size = grad_out.size();
  for (std::size_t i = 0; i < size; ++i) gi[i] = blocked[i] ? 0.0f : g[i];
  return grad_in_;
}

std::unique_ptr<Layer> ReLU::clone() const { return std::make_unique<ReLU>(); }

// ---------------- Flatten ----------------

const Tensor& Flatten::forward(const Tensor& input, bool train) {
  GF_CHECK(input.rank() >= 2, "Flatten: rank < 2, got ",
           input.shape_string());
  if (train) cached_shape_ = input.shape();
  out_buf_ = input;
  out_buf_.resize2(input.dim(0), input.size() / input.dim(0));
  return out_buf_;
}

const Tensor& Flatten::backward(const Tensor& grad_out) {
  GF_CHECK(!cached_shape_.empty(),
           "Flatten::backward without forward(train=true)");
  grad_in_ = grad_out;
  grad_in_.resize(cached_shape_);
  return grad_in_;
}

std::unique_ptr<Layer> Flatten::clone() const {
  return std::make_unique<Flatten>();
}

}  // namespace groupfel::nn
