// Dense row-major float tensor — the numeric core of the from-scratch NN
// library (no external ML dependency is available or used).
//
// Shapes follow the usual conventions: activations are [N, features] for
// dense layers and [N, C, H, W] for convolutional layers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/precision.hpp"

namespace groupfel::nn {

/// Process-wide count of Tensor constructions that acquire fresh storage:
/// the shape / shape+data constructors and the copy constructor. Default
/// construction, moves, and assignment into an existing tensor (which reuse
/// capacity) are not counted. Deltas around a steady-state region prove the
/// "zero tensor constructions per SGD step" property of the minibatch
/// pipeline (tests/minibatch_pipeline_test.cpp,
/// tests/steady_state_alloc_test.cpp).
[[nodiscard]] std::uint64_t tensor_construction_count() noexcept;

class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<std::size_t> shape);

  /// Tensor wrapping existing data (copied); data.size() must match shape.
  Tensor(std::vector<std::size_t> shape, std::vector<float> data);

  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other) = default;
  Tensor(Tensor&& other) noexcept = default;
  Tensor& operator=(Tensor&& other) noexcept = default;
  ~Tensor() = default;

  [[nodiscard]] const std::vector<std::size_t>& shape() const noexcept {
    return shape_;
  }
  [[nodiscard]] std::size_t rank() const noexcept { return shape_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] std::size_t dim(std::size_t i) const { return shape_.at(i); }

  [[nodiscard]] std::span<float> data() noexcept { return data_; }
  [[nodiscard]] std::span<const float> data() const noexcept { return data_; }
  [[nodiscard]] float* raw() noexcept { return data_.data(); }
  [[nodiscard]] const float* raw() const noexcept { return data_.data(); }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// 2-D indexed access (dense activations / weight matrices).
  float& at2(std::size_t r, std::size_t c) { return data_[r * shape_[1] + c]; }
  [[nodiscard]] float at2(std::size_t r, std::size_t c) const {
    return data_[r * shape_[1] + c];
  }

  /// 4-D indexed access (conv activations [N, C, H, W]).
  float& at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
    return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }
  [[nodiscard]] float at4(std::size_t n, std::size_t c, std::size_t h,
                          std::size_t w) const {
    return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }

  void fill(float v) noexcept;
  void zero() noexcept { fill(0.0f); }

  /// Reinterprets the buffer with a new shape of identical total size.
  void reshape(std::vector<std::size_t> new_shape);

  /// Resizes to `new_shape`, reusing the existing allocation when capacity
  /// suffices (std::vector keeps capacity on shrink/regrow). Element values
  /// are unspecified afterwards — callers overwrite the full buffer. A no-op
  /// when the shape already matches.
  void resize(const std::vector<std::size_t>& new_shape);

  /// Resizes only the leading dimension (e.g. the batch axis of an
  /// [N, ...] activation) without touching the shape vector's allocation.
  /// Requires rank() >= 1.
  void resize_leading(std::size_t n);

  /// Rank-specific resize forms that never materialize a temporary shape
  /// vector — the layer hot paths call these once per step.
  void resize2(std::size_t d0, std::size_t d1);
  void resize4(std::size_t d0, std::size_t d1, std::size_t d2,
               std::size_t d3);

  /// Elementwise helpers (throw on shape mismatch).
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(float scalar) noexcept;

  [[nodiscard]] double sum() const noexcept;
  [[nodiscard]] double l2_norm() const noexcept;

  [[nodiscard]] std::string shape_string() const;

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

/// Product of dimensions.
[[nodiscard]] std::size_t shape_size(std::span<const std::size_t> shape) noexcept;

/// C = A(m×k) · B(k×n) into a [m, n] tensor. Backed by the blocked, packed
/// GEMM in nn/gemm.cpp; splits row panels over runtime::ThreadPool for
/// large shapes (bit-identical results for any pool size). `sp` selects the
/// operand storage width inside the GEMM (fp32 accumulation always).
void matmul(const Tensor& a, const Tensor& b, Tensor& out,
            StoragePrecision sp = StoragePrecision::kFp32);

/// C = A(m×k) · Bᵀ where B is (n×k); used by dense backward.
void matmul_bt(const Tensor& a, const Tensor& b, Tensor& out,
               StoragePrecision sp = StoragePrecision::kFp32);

/// C = Aᵀ(k×m becomes m rows) · B; used for weight gradients.
void matmul_at(const Tensor& a, const Tensor& b, Tensor& out,
               StoragePrecision sp = StoragePrecision::kFp32);

/// C += Aᵀ · B. Accumulating form of matmul_at: dense backward adds the
/// micro-batch weight gradient straight into the gradient tensor instead of
/// staging it in a weight-sized temporary.
void matmul_at_acc(const Tensor& a, const Tensor& b, Tensor& out,
                   StoragePrecision sp = StoragePrecision::kFp32);

// Naive triple-loop oracles for the kernels above. Retained as the
// correctness reference for tests and the baseline for bench/micro_kernels;
// not used on any training path.
void matmul_naive(const Tensor& a, const Tensor& b, Tensor& out);
void matmul_bt_naive(const Tensor& a, const Tensor& b, Tensor& out);
void matmul_at_naive(const Tensor& a, const Tensor& b, Tensor& out);

}  // namespace groupfel::nn
