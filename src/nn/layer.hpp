// Layer interface for the from-scratch NN library.
//
// Each layer owns its parameters and their gradients and implements manual
// reverse-mode differentiation: forward() caches whatever backward() needs.
// A layer instance therefore serves exactly one model replica; federated
// clients clone the model instead of sharing layers.
//
// forward()/backward() return references into layer-owned persistent
// buffers (or, for pass-through layers, the input itself). A returned
// reference stays valid until the same layer's next forward()/backward()
// call; repeated same-shape steps therefore perform zero tensor
// constructions (see nn::tensor_construction_count()).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.hpp"
#include "runtime/rng.hpp"
#include "util/function_ref.hpp"

namespace groupfel::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output into a layer-owned buffer. `train` enables
  /// training-only behaviour (activation caching for backward).
  virtual const Tensor& forward(const Tensor& input, bool train) = 0;

  /// Given dL/d(output), accumulates parameter gradients and returns
  /// dL/d(input) in a layer-owned buffer. Must be called after a
  /// forward(train=true).
  virtual const Tensor& backward(const Tensor& grad_out) = 0;

  /// Parameter-only backward: accumulates exactly the parameter gradients
  /// backward(grad_out) would, bit for bit, but need not compute dL/d(input).
  /// Model::backward calls it on the first layer, whose input gradient
  /// nobody reads. Same precondition as backward() (throws without a prior
  /// forward(train=true)); afterwards the layer's input-gradient buffer is
  /// unspecified. The default runs backward() and discards the result;
  /// layers with an input-gradient GEMM override it to skip that work.
  virtual void backward_params(const Tensor& grad_out) {
    (void)backward(grad_out);
  }

  /// Visits every (parameter, gradient) tensor pair. Parameter-free layers
  /// keep the default no-op.
  virtual void for_each_param(
      util::FunctionRef<void(Tensor&, Tensor&)> fn) {
    (void)fn;
  }

  /// Read-only visit of every (parameter, gradient) tensor pair — lets
  /// const models export flat parameter/gradient views without const_cast.
  virtual void for_each_param(
      util::FunctionRef<void(const Tensor&, const Tensor&)> fn)
      const {
    (void)fn;
  }

  /// Total number of scalar parameters.
  [[nodiscard]] virtual std::size_t param_count() const { return 0; }

  /// Deep copy with identical parameters and fresh (empty) activation cache.
  [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;

  /// Re-randomizes parameters (He initialization where applicable).
  virtual void init(runtime::Rng& rng) { (void)rng; }

  /// Selects the GEMM operand storage width for this layer's forward and
  /// backward passes (fp32 accumulation regardless). Layers without GEMMs
  /// keep the default no-op. clone() preserves the setting.
  virtual void set_compute_precision(StoragePrecision sp) { (void)sp; }

  [[nodiscard]] virtual std::string name() const = 0;
};

// ---- Dense layers (layers.cpp) ----

/// Fully connected y = xW + b; input [N, in], output [N, out].
class Linear final : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features);

  const Tensor& forward(const Tensor& input, bool train) override;
  const Tensor& backward(const Tensor& grad_out) override;
  void backward_params(const Tensor& grad_out) override;
  void for_each_param(
      util::FunctionRef<void(Tensor&, Tensor&)> fn) override;
  void for_each_param(util::FunctionRef<void(const Tensor&, const Tensor&)> fn) const override;
  [[nodiscard]] std::size_t param_count() const override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  void init(runtime::Rng& rng) override;
  void set_compute_precision(StoragePrecision sp) override { sp_ = sp; }
  [[nodiscard]] std::string name() const override { return "Linear"; }

  [[nodiscard]] std::size_t in_features() const noexcept { return in_; }
  [[nodiscard]] std::size_t out_features() const noexcept { return out_; }

 private:
  /// Shared body of backward()/backward_params(): dW and db always, dX into
  /// grad_in_ only when `input_grad`.
  void backward_impl(const Tensor& grad_out, bool input_grad);

  std::size_t in_, out_;
  StoragePrecision sp_ = StoragePrecision::kFp32;
  Tensor weight_;   // [in, out]
  Tensor bias_;     // [1, out]
  Tensor grad_w_, grad_b_;
  Tensor cached_input_;
  Tensor out_buf_, grad_in_;
};

/// Elementwise max(x, 0).
class ReLU final : public Layer {
 public:
  const Tensor& forward(const Tensor& input, bool train) override;
  const Tensor& backward(const Tensor& grad_out) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }

 private:
  std::vector<std::uint8_t> blocked_;  // x <= 0 per element (train forward)
  Tensor out_buf_, grad_in_;
};

/// Collapses [N, C, H, W] (or any rank >= 2) to [N, rest].
class Flatten final : public Layer {
 public:
  const Tensor& forward(const Tensor& input, bool train) override;
  const Tensor& backward(const Tensor& grad_out) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "Flatten"; }

 private:
  std::vector<std::size_t> cached_shape_;
  Tensor out_buf_, grad_in_;
};

// ---- Convolutional layers (conv.cpp) ----

/// 2-D convolution with square kernel, stride 1, symmetric zero padding.
/// Input [N, Cin, H, W] -> output [N, Cout, H', W'].
/// Forward and backward lower to GEMM via im2col/col2im (nn/im2col.hpp).
/// forward(train=true) writes the im2col matrix into a layer-owned buffer
/// that backward() reuses for dW; evaluation forwards and all other scratch
/// use runtime::WorkspaceArena, so steady-state training does not allocate
/// and an eval forward never clobbers the kept matrix. The original loop
/// nests live on as the conv_reference_* oracles below.
class Conv2d final : public Layer {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t padding);

  const Tensor& forward(const Tensor& input, bool train) override;
  const Tensor& backward(const Tensor& grad_out) override;
  void backward_params(const Tensor& grad_out) override;
  void for_each_param(
      util::FunctionRef<void(Tensor&, Tensor&)> fn) override;
  void for_each_param(util::FunctionRef<void(const Tensor&, const Tensor&)> fn) const override;
  [[nodiscard]] std::size_t param_count() const override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  void init(runtime::Rng& rng) override;
  void set_compute_precision(StoragePrecision sp) override { sp_ = sp; }
  [[nodiscard]] std::string name() const override { return "Conv2d"; }

 private:
  /// Shared body of backward()/backward_params(): dW and db always, dX into
  /// grad_in_ (GEMM + col2im) only when `input_grad`.
  void backward_impl(const Tensor& grad_out, bool input_grad);

  std::size_t cin_, cout_, k_, pad_;
  StoragePrecision sp_ = StoragePrecision::kFp32;
  Tensor weight_;  // [Cout, Cin, k, k]
  Tensor bias_;    // [1, Cout]
  Tensor grad_w_, grad_b_;
  // Last training forward: its input shape and its im2col matrix
  // [Cin·k·k, N·Ho·Wo], kept for dW.
  std::vector<std::size_t> cached_shape_;
  std::vector<float> cols_;
  Tensor out_buf_, grad_in_;
};

// ---- Naive convolution oracles (conv.cpp) ----
//
// The original scalar loop nests, retained as the correctness reference for
// the im2col path (tests/conv_reference_test.cpp, bench/micro_kernels).
// Padding bounds are hoisted out of the kernel loops per output pixel so
// the oracle itself is not pathologically slow at test scale.

/// Reference forward: weight [Cout, Cin, k, k], bias [1, Cout].
[[nodiscard]] Tensor conv_reference_forward(const Tensor& x,
                                            const Tensor& weight,
                                            const Tensor& bias,
                                            std::size_t pad);

/// Reference backward: accumulates into grad_w/grad_b (shaped like
/// weight/bias) and returns dL/dx.
[[nodiscard]] Tensor conv_reference_backward(const Tensor& x,
                                             const Tensor& weight,
                                             const Tensor& grad_out,
                                             std::size_t pad, Tensor& grad_w,
                                             Tensor& grad_b);

/// Non-overlapping max pooling with square window. Each window keeps its
/// maximum, the first in row-major order on ties (NaN never wins). A window
/// with nothing above −inf (all NaN or −inf) outputs −inf and routes its
/// gradient to its own first element.
class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(std::size_t window);

  const Tensor& forward(const Tensor& input, bool train) override;
  const Tensor& backward(const Tensor& grad_out) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "MaxPool2d"; }

 private:
  std::size_t window_;
  std::vector<std::size_t> argmax_;
  std::vector<std::size_t> cached_shape_;
  Tensor out_buf_, grad_in_;
};

/// Global average pooling [N, C, H, W] -> [N, C].
class GlobalAvgPool final : public Layer {
 public:
  const Tensor& forward(const Tensor& input, bool train) override;
  const Tensor& backward(const Tensor& grad_out) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "GlobalAvgPool"; }

 private:
  std::vector<std::size_t> cached_shape_;
  Tensor out_buf_, grad_in_;
};

}  // namespace groupfel::nn
