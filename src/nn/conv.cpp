#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "nn/gemm.hpp"
#include "nn/im2col.hpp"
#include "nn/layer.hpp"
#include "runtime/workspace.hpp"
#include "util/check.hpp"

namespace groupfel::nn {

// ---------------- Conv2d ----------------

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t padding)
    : cin_(in_channels),
      cout_(out_channels),
      k_(kernel),
      pad_(padding),
      weight_({cout_, cin_, k_, k_}),
      bias_({1, cout_}),
      grad_w_({cout_, cin_, k_, k_}),
      grad_b_({1, cout_}) {}

void Conv2d::init(runtime::Rng& rng) {
  const float fan_in = static_cast<float>(cin_ * k_ * k_);
  const float scale = std::sqrt(2.0f / fan_in);
  for (auto& w : weight_.data()) w = static_cast<float>(rng.normal()) * scale;
  bias_.zero();
}

const Tensor& Conv2d::forward(const Tensor& input, bool train) {
  GF_CHECK(input.rank() == 4 && input.dim(1) == cin_,
           "Conv2d::forward: expected [N, ", cin_, ", H, W], got ",
           input.shape_string());
  const std::size_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  GF_CHECK(h + 2 * pad_ >= k_ && w + 2 * pad_ >= k_,
           "Conv2d::forward: kernel ", k_, " larger than padded input ",
           input.shape_string());
  const std::size_t ho = h + 2 * pad_ - k_ + 1;
  const std::size_t wo = w + 2 * pad_ - k_ + 1;
  const std::size_t how = ho * wo, ncols = n * how, kdim = cin_ * k_ * k_;
  out_buf_.resize4(n, cout_, ho, wo);
  Tensor& out = out_buf_;

  // Lower to GEMM: out_mat[Cout, N·Ho·Wo] = W[Cout, Cin·k·k] · im2col(x).
  // A training forward keeps the im2col matrix for backward's dW; an eval
  // forward unfolds into arena scratch so it leaves that matrix intact.
  auto& arena = runtime::WorkspaceArena::local();
  runtime::WorkspaceArena::Buffer eval_cols;
  if (train) {
    cols_.resize(kdim * ncols);
    cached_shape_ = input.shape();
  } else {
    eval_cols = arena.acquire(kdim * ncols);
  }
  float* cols = train ? cols_.data() : eval_cols.data();
  detail::im2col(input.raw(), n, cin_, h, w, k_, pad_, cols);
  auto out_mat = arena.acquire(cout_ * ncols);
  detail::gemm(cout_, ncols, kdim, {weight_.raw(), kdim, 1}, {cols, ncols, 1},
               out_mat.data(), sp_);

  // out_mat is [Cout][n·how] but the tensor is [n][Cout][how]: swap the two
  // outer dims while adding the bias (contiguous `how`-long spans).
  for (std::size_t co = 0; co < cout_; ++co) {
    const float b = bias_[co];
    const float* src = out_mat.data() + co * ncols;
    for (std::size_t ni = 0; ni < n; ++ni) {
      float* dst = out.raw() + (ni * cout_ + co) * how;
      const float* s = src + ni * how;
      for (std::size_t i = 0; i < how; ++i) dst[i] = s[i] + b;
    }
  }
  return out;
}

const Tensor& Conv2d::backward(const Tensor& grad_out) {
  backward_impl(grad_out, /*input_grad=*/true);
  return grad_in_;
}

void Conv2d::backward_params(const Tensor& grad_out) {
  backward_impl(grad_out, /*input_grad=*/false);
}

void Conv2d::backward_impl(const Tensor& grad_out, bool input_grad) {
  GF_CHECK(!cached_shape_.empty(),
           "Conv2d::backward without forward(train=true)");
  const std::size_t n = cached_shape_[0], h = cached_shape_[2],
                    w = cached_shape_[3];
  GF_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == n &&
               grad_out.dim(1) == cout_,
           "Conv2d::backward: grad ", grad_out.shape_string(),
           " does not match input [", n, ", ", cin_, ", ", h, ", ", w, "]");
  const std::size_t ho = grad_out.dim(2), wo = grad_out.dim(3);
  GF_CHECK(ho == h + 2 * pad_ - k_ + 1 && wo == w + 2 * pad_ - k_ + 1,
           "Conv2d::backward: grad spatial dims ", grad_out.shape_string());
  const std::size_t how = ho * wo, ncols = n * how, kdim = cin_ * k_ * k_;
  auto& arena = runtime::WorkspaceArena::local();

  // Gather dY into [Cout, N·Ho·Wo] (inverse of the forward scatter).
  auto dy = arena.acquire(cout_ * ncols);
  for (std::size_t co = 0; co < cout_; ++co)
    for (std::size_t ni = 0; ni < n; ++ni)
      std::memcpy(dy.data() + co * ncols + ni * how,
                  grad_out.raw() + (ni * cout_ + co) * how,
                  how * sizeof(float));

  // db += row sums of dY.
  for (std::size_t co = 0; co < cout_; ++co) {
    const float* row = dy.data() + co * ncols;
    double s = 0.0;
    for (std::size_t i = 0; i < ncols; ++i) s += static_cast<double>(row[i]);
    grad_b_[co] += static_cast<float>(s);
  }

  // dW += dY · colsᵀ over the forward's kept im2col matrix, accumulated
  // straight into grad_w_ (the GEMM kernels add into C).
  detail::gemm_acc(cout_, kdim, ncols, {dy.data(), ncols, 1},
                   {cols_.data(), 1, ncols}, grad_w_.raw(), sp_);
  if (!input_grad) return;

  // dX = col2im(Wᵀ · dY). col2im accumulates, so the reused buffer must be
  // zeroed first.
  auto gcols = arena.acquire(kdim * ncols);
  detail::gemm(kdim, ncols, cout_, {weight_.raw(), 1, kdim},
               {dy.data(), ncols, 1}, gcols.data(), sp_);
  grad_in_.resize4(n, cin_, h, w);
  grad_in_.zero();
  detail::col2im(gcols.data(), n, cin_, h, w, k_, pad_, grad_in_.raw());
}

void Conv2d::for_each_param(
    util::FunctionRef<void(Tensor&, Tensor&)> fn) {
  fn(weight_, grad_w_);
  fn(bias_, grad_b_);
}

void Conv2d::for_each_param(
    util::FunctionRef<void(const Tensor&, const Tensor&)> fn) const {
  fn(weight_, grad_w_);
  fn(bias_, grad_b_);
}

std::size_t Conv2d::param_count() const {
  return weight_.size() + bias_.size();
}

std::unique_ptr<Layer> Conv2d::clone() const {
  auto copy = std::make_unique<Conv2d>(cin_, cout_, k_, pad_);
  copy->sp_ = sp_;
  copy->weight_ = weight_;
  copy->bias_ = bias_;
  return copy;
}

// ---------------- Reference oracles ----------------
//
// The pre-im2col loop nests. Per output pixel the valid [ky0, ky1) ×
// [kx0, kx1) kernel window is computed once, so the padding bounds checks
// that used to sit in the innermost loop are gone but the arithmetic (and
// float accumulation order of the original forward) is unchanged.

namespace {

/// Valid kernel-offset interval for output coordinate o: the input
/// coordinate o + kf − pad must land in [0, in).
inline void kernel_range(std::size_t o, std::size_t in, std::size_t k,
                         std::size_t pad, std::size_t& k0, std::size_t& k1) {
  k0 = pad > o ? pad - o : 0;
  k1 = (in + pad > o) ? std::min(k, in + pad - o) : 0;
  if (k1 < k0) k1 = k0;
}

}  // namespace

Tensor conv_reference_forward(const Tensor& x, const Tensor& weight,
                              const Tensor& bias, std::size_t pad) {
  const std::size_t n = x.dim(0), cin = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t cout = weight.dim(0), k = weight.dim(2);
  const std::size_t ho = h + 2 * pad - k + 1, wo = w + 2 * pad - k + 1;
  Tensor out({n, cout, ho, wo});
  for (std::size_t ni = 0; ni < n; ++ni) {
    for (std::size_t co = 0; co < cout; ++co) {
      const float b = bias[co];
      for (std::size_t oy = 0; oy < ho; ++oy) {
        std::size_t ky0, ky1;
        kernel_range(oy, h, k, pad, ky0, ky1);
        for (std::size_t ox = 0; ox < wo; ++ox) {
          std::size_t kx0, kx1;
          kernel_range(ox, w, k, pad, kx0, kx1);
          float acc = b;
          for (std::size_t ci = 0; ci < cin; ++ci) {
            for (std::size_t ky = ky0; ky < ky1; ++ky) {
              const std::size_t iy = oy + ky - pad;
              const float* xrow = x.raw() + ((ni * cin + ci) * h + iy) * w;
              const float* wrow =
                  weight.raw() + ((co * cin + ci) * k + ky) * k;
              for (std::size_t kx = kx0; kx < kx1; ++kx)
                acc += xrow[ox + kx - pad] * wrow[kx];
            }
          }
          out.at4(ni, co, oy, ox) = acc;
        }
      }
    }
  }
  return out;
}

Tensor conv_reference_backward(const Tensor& x, const Tensor& weight,
                               const Tensor& grad_out, std::size_t pad,
                               Tensor& grad_w, Tensor& grad_b) {
  const std::size_t n = x.dim(0), cin = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t cout = weight.dim(0), k = weight.dim(2);
  const std::size_t ho = grad_out.dim(2), wo = grad_out.dim(3);
  Tensor grad_in({n, cin, h, w});
  for (std::size_t ni = 0; ni < n; ++ni) {
    for (std::size_t co = 0; co < cout; ++co) {
      for (std::size_t oy = 0; oy < ho; ++oy) {
        std::size_t ky0, ky1;
        kernel_range(oy, h, k, pad, ky0, ky1);
        for (std::size_t ox = 0; ox < wo; ++ox) {
          const float g = grad_out.at4(ni, co, oy, ox);
          if (g == 0.0f) continue;
          grad_b[co] += g;
          std::size_t kx0, kx1;
          kernel_range(ox, w, k, pad, kx0, kx1);
          for (std::size_t ci = 0; ci < cin; ++ci) {
            for (std::size_t ky = ky0; ky < ky1; ++ky) {
              const std::size_t iy = oy + ky - pad;
              const float* xrow = x.raw() + ((ni * cin + ci) * h + iy) * w;
              float* grow = grad_in.raw() + ((ni * cin + ci) * h + iy) * w;
              float* gwrow = grad_w.raw() + ((co * cin + ci) * k + ky) * k;
              const float* wrow =
                  weight.raw() + ((co * cin + ci) * k + ky) * k;
              for (std::size_t kx = kx0; kx < kx1; ++kx) {
                const std::size_t ix = ox + kx - pad;
                gwrow[kx] += g * xrow[ix];
                grow[ix] += g * wrow[kx];
              }
            }
          }
        }
      }
    }
  }
  return grad_in;
}

// ---------------- MaxPool2d ----------------

MaxPool2d::MaxPool2d(std::size_t window) : window_(window) {
  GF_CHECK(window_ != 0, "MaxPool2d: window == 0");
}

const Tensor& MaxPool2d::forward(const Tensor& input, bool train) {
  GF_CHECK(input.rank() == 4, "MaxPool2d: expected 4-D input, got ",
           input.shape_string());
  const std::size_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  const std::size_t ho = h / window_, wo = w / window_;
  GF_CHECK(ho != 0 && wo != 0, "MaxPool2d: window ", window_,
           " larger than input ", input.shape_string());
  out_buf_.resize4(n, c, ho, wo);
  Tensor& out = out_buf_;
  if (train) {
    argmax_.assign(out.size(), 0);
    cached_shape_ = input.shape();
  }
  std::size_t oi = 0;
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t ci = 0; ci < c; ++ci)
      for (std::size_t oy = 0; oy < ho; ++oy)
        for (std::size_t ox = 0; ox < wo; ++ox, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t ky = 0; ky < window_; ++ky)
            for (std::size_t kx = 0; kx < window_; ++kx) {
              const std::size_t iy = oy * window_ + ky;
              const std::size_t ix = ox * window_ + kx;
              const std::size_t flat = ((ni * c + ci) * h + iy) * w + ix;
              const float v = input[flat];
              if (v > best) {
                best = v;
                best_idx = flat;
              }
            }
          out[oi] = best;
          if (train) argmax_[oi] = best_idx;
        }
  return out;
}

const Tensor& MaxPool2d::backward(const Tensor& grad_out) {
  GF_CHECK_EQ(argmax_.size(), grad_out.size(),
              "MaxPool2d::backward without forward(train=true)");
  grad_in_.resize(cached_shape_);
  grad_in_.zero();  // scatter-accumulate below needs a zeroed buffer
  for (std::size_t i = 0; i < grad_out.size(); ++i)
    grad_in_[argmax_[i]] += grad_out[i];
  return grad_in_;
}

std::unique_ptr<Layer> MaxPool2d::clone() const {
  return std::make_unique<MaxPool2d>(window_);
}

// ---------------- GlobalAvgPool ----------------

const Tensor& GlobalAvgPool::forward(const Tensor& input, bool train) {
  GF_CHECK(input.rank() == 4, "GlobalAvgPool: expected 4-D input, got ",
           input.shape_string());
  const std::size_t n = input.dim(0), c = input.dim(1),
                    hw = input.dim(2) * input.dim(3);
  out_buf_.resize2(n, c);
  Tensor& out = out_buf_;
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t ci = 0; ci < c; ++ci) {
      double acc = 0.0;
      const float* base = input.raw() + (ni * c + ci) * hw;
      for (std::size_t i = 0; i < hw; ++i) acc += static_cast<double>(base[i]);
      out.at2(ni, ci) = static_cast<float>(acc / static_cast<double>(hw));
    }
  if (train) cached_shape_ = input.shape();
  return out;
}

const Tensor& GlobalAvgPool::backward(const Tensor& grad_out) {
  GF_CHECK(!cached_shape_.empty(),
           "GlobalAvgPool::backward without forward");
  const std::size_t n = cached_shape_[0], c = cached_shape_[1],
                    hw = cached_shape_[2] * cached_shape_[3];
  grad_in_.resize(cached_shape_);
  const float inv = 1.0f / static_cast<float>(hw);
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t ci = 0; ci < c; ++ci) {
      const float g = grad_out.at2(ni, ci) * inv;
      float* base = grad_in_.raw() + (ni * c + ci) * hw;
      for (std::size_t i = 0; i < hw; ++i) base[i] = g;
    }
  return grad_in_;
}

std::unique_ptr<Layer> GlobalAvgPool::clone() const {
  return std::make_unique<GlobalAvgPool>();
}

}  // namespace groupfel::nn
