// Sequential model container with the flat-parameter-vector view that the
// federated-learning layers of this library aggregate over: a model's state
// is exactly `flat_parameters()`, so group/global aggregation, secure
// aggregation, FedProx proximal terms, and SCAFFOLD control variates all
// operate on plain std::vector<float>.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"
#include "nn/loss.hpp"
#include "nn/tensor.hpp"

namespace groupfel::runtime {
class ThreadPool;
}

namespace groupfel::nn {

class Model {
 public:
  Model() = default;

  /// Appends a layer; returns *this for chaining.
  Model& add(std::unique_ptr<Layer> layer);

  /// He-initializes every layer from `rng` (deterministic given the seed).
  void init(runtime::Rng& rng);

  /// Forward pass through all layers. Returns a reference into the last
  /// layer's persistent output buffer (or `input` itself for an empty
  /// model); it stays valid until this model's next forward()/backward().
  [[nodiscard]] const Tensor& forward(const Tensor& input, bool train = false);

  /// Backward pass; call after forward(train=true). Accumulates gradients.
  /// The first layer runs Layer::backward_params: the model's input
  /// gradient is never formed.
  void backward(const Tensor& grad_out);

  /// Sets every gradient tensor to zero.
  void zero_grad();

  /// Total scalar parameter count.
  [[nodiscard]] std::size_t param_count() const;

  /// Copies all parameters into one flat vector (layer order, tensor order).
  [[nodiscard]] std::vector<float> flat_parameters() const;

  /// Copies all parameters into a caller-owned buffer of exactly
  /// param_count() floats. The allocation-free form of flat_parameters():
  /// the simulation loop reuses one persistent buffer per client instead of
  /// materializing a fresh vector every group round.
  void flat_parameters_into(std::span<float> out) const;

  /// Overwrites all parameters from a flat vector (must match param_count).
  void set_flat_parameters(std::span<const float> flat);

  /// Copies all accumulated gradients into one flat vector.
  [[nodiscard]] std::vector<float> flat_gradients() const;

  /// Allocation-free form of flat_gradients() (see flat_parameters_into).
  void flat_gradients_into(std::span<float> out) const;

  /// Visits every (param, grad) pair across all layers.
  void for_each_param(util::FunctionRef<void(Tensor&, Tensor&)> fn);

  /// Read-only visit of every (param, grad) pair across all layers.
  void for_each_param(
      util::FunctionRef<void(const Tensor&, const Tensor&)> fn) const;

  /// Deep copy (same parameters, fresh caches, same compute precision).
  [[nodiscard]] Model clone() const;

  /// Sets the GEMM operand storage width on every layer (see
  /// Layer::set_compute_precision). Propagated by clone(), so setting it on
  /// a prototype covers every replica cloned from it.
  void set_compute_precision(StoragePrecision sp);

  [[nodiscard]] std::size_t layer_count() const noexcept {
    return layers_.size();
  }
  [[nodiscard]] const Layer& layer(std::size_t i) const { return *layers_.at(i); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

// ---- Flat-vector arithmetic used throughout the FL stack ----

/// out += scale * v (sizes must match).
void axpy(std::vector<float>& out, std::span<const float> v, float scale);

/// Weighted average of parameter vectors: sum_i w[i] * vs[i].
[[nodiscard]] std::vector<float> weighted_average(
    const std::vector<std::vector<float>>& vs, std::span<const double> weights);

/// out[j] = sum_i weights[i] * vs[i][j], written into a caller-owned buffer
/// (every vs[i] must match out.size()). The reduction is split into
/// fixed-size parameter-index blocks whose shape depends only on the vector
/// length — never on the pool size — and each element accumulates over
/// models in index order in double precision, so the result is bit-identical
/// to the serial loop for any pool (including pool == nullptr, which runs
/// the blocks inline). This is the deterministic parallel aggregation path
/// used by group and cloud aggregation.
void weighted_average_into(std::span<float> out,
                           std::span<const std::span<const float>> vs,
                           std::span<const double> weights,
                           runtime::ThreadPool* pool = nullptr);

/// Euclidean distance between two flat vectors.
[[nodiscard]] double l2_distance(std::span<const float> a,
                                 std::span<const float> b);

}  // namespace groupfel::nn
