#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "nn/gemm.hpp"
#include "nn/im2col.hpp"
#include "nn/layer.hpp"
#include "runtime/workspace.hpp"
#include "util/check.hpp"

namespace groupfel::nn {
namespace {

/// Sums each of `rows` contiguous `len`-float rows left to right in double
/// and hands row r's sum to emit(r, sum). Eight rows advance together so
/// their independent add chains overlap instead of one latency-bound chain
/// at a time; each row's own summation order is unchanged.
template <typename Emit>
void row_sums(const float* base, std::size_t rows, std::size_t len,
              Emit&& emit) {
  constexpr std::size_t kChains = 8;
  std::size_t r = 0;
  for (; r + kChains <= rows; r += kChains) {
    const float* p = base + r * len;
    double s[kChains] = {};
    for (std::size_t i = 0; i < len; ++i)
      for (std::size_t j = 0; j < kChains; ++j)
        s[j] += static_cast<double>(p[j * len + i]);
    for (std::size_t j = 0; j < kChains; ++j) emit(r + j, s[j]);
  }
  for (; r < rows; ++r) {
    const float* p = base + r * len;
    double s = 0.0;
    for (std::size_t i = 0; i < len; ++i) s += static_cast<double>(p[i]);
    emit(r, s);
  }
}

typedef float v4f __attribute__((vector_size(4 * sizeof(float))));
typedef float v8f __attribute__((vector_size(8 * sizeof(float))));
typedef int v4i __attribute__((vector_size(4 * sizeof(int))));
typedef int v8i __attribute__((vector_size(8 * sizeof(int))));

template <std::size_t L>
struct PoolLanes;
template <>
struct PoolLanes<4> {
  using F = v4f;
  using I = v4i;
};
template <>
struct PoolLanes<8> {
  using F = v8f;
  using I = v8i;
};

/// L adjacent 2×2 windows whose top-left corners are r0[0], r0[2], …; the
/// bottom row is r1. Candidates in (ky, kx) order with a strict `>`
/// against −inf, exactly as the generic loop, as lane selects over the
/// rows' even/odd lanes. off receives each winner's offset from its window's
/// first element, which is also the no-winner fallback.
template <std::size_t L, std::size_t... J>
inline void pool2x2_lanes(const float* r0, const float* r1, int w, float* out,
                          typename PoolLanes<L>::I& off,
                          std::index_sequence<J...>) {
  using F = typename PoolLanes<L>::F;
  using I = typename PoolLanes<L>::I;
  F lo, hi;
  std::memcpy(&lo, r0, sizeof(F));
  std::memcpy(&hi, r0 + L, sizeof(F));
  const F a = __builtin_shufflevector(lo, hi, static_cast<int>(2 * J)...);
  const F b = __builtin_shufflevector(lo, hi, static_cast<int>(2 * J + 1)...);
  std::memcpy(&lo, r1, sizeof(F));
  std::memcpy(&hi, r1 + L, sizeof(F));
  const F d = __builtin_shufflevector(lo, hi, static_cast<int>(2 * J)...);
  const F e = __builtin_shufflevector(lo, hi, static_cast<int>(2 * J + 1)...);
  F best = F{} - std::numeric_limits<float>::infinity();
  I m = a > best;
  best = m ? a : best;
  off = I{};
  m = b > best;
  off = m ? I{} + 1 : off;
  best = m ? b : best;
  m = d > best;
  off = m ? I{} + w : off;
  best = m ? d : best;
  m = e > best;
  off = m ? I{} + (w + 1) : off;
  best = m ? e : best;
  std::memcpy(out, &best, sizeof(F));
}

/// One output row of 2×2 windows: L-window vector steps, then the last
/// windows one at a time through the same selects.
template <bool kArgmax, std::size_t L>
void pool2x2_row(const float* r0, const float* r1, std::size_t w,
                 std::size_t wo, std::size_t base, float* out,
                 std::size_t* argmax) {
  std::size_t ox = 0;
  for (; ox + L <= wo; ox += L) {
    typename PoolLanes<L>::I off;
    pool2x2_lanes<L>(r0 + 2 * ox, r1 + 2 * ox, static_cast<int>(w), out + ox,
                     off, std::make_index_sequence<L>{});
    if constexpr (kArgmax)
      for (std::size_t j = 0; j < L; ++j)
        argmax[ox + j] =
            base + 2 * (ox + j) + static_cast<std::size_t>(off[j]);
  }
  for (; ox < wo; ++ox) {
    const float a = r0[2 * ox], b = r0[2 * ox + 1];
    const float d = r1[2 * ox], e = r1[2 * ox + 1];
    float best = -std::numeric_limits<float>::infinity();
    std::size_t off = 0;
    best = a > best ? a : best;
    off = b > best ? 1 : off;
    best = b > best ? b : best;
    off = d > best ? w : off;
    best = d > best ? d : best;
    off = e > best ? w + 1 : off;
    best = e > best ? e : best;
    out[ox] = best;
    if constexpr (kArgmax) argmax[ox] = base + 2 * ox + off;
  }
}

/// 2×2 max pooling of `planes` h×w planes into ho×wo (floor pooling: a
/// trailing odd row or column is never read).
template <bool kArgmax>
void pool2x2(const float* in, std::size_t planes, std::size_t h, std::size_t w,
             std::size_t ho, std::size_t wo, float* out, std::size_t* argmax) {
  const auto row = wo >= 8 ? &pool2x2_row<kArgmax, 8> : &pool2x2_row<kArgmax, 4>;
  for (std::size_t p = 0; p < planes; ++p)
    for (std::size_t oy = 0; oy < ho; ++oy) {
      const std::size_t base = (p * h + 2 * oy) * w;
      const std::size_t oi = (p * ho + oy) * wo;
      row(in + base, in + base + w, w, wo, base, out + oi,
          kArgmax ? argmax + oi : nullptr);
    }
}

}  // namespace

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
  row_sums(dy.data(), cout_, ncols, [&](std::size_t co, double s) {
    grad_b_[co] += static_cast<float>(s);
  });

  // dW += dY · colsᵀ over the forward's kept im2col matrix, accumulated
  // straight into grad_w_ (the GEMM kernels add into C).
  detail::gemm_acc(cout_, kdim, ncols, {dy.data(), ncols, 1},
                   {cols_.data(), 1, ncols}, grad_w_.raw(), sp_);
  if (!input_grad) return;

  // dX = col2im(Wᵀ · dY); col2im writes every element of grad_in_.
  auto gcols = arena.acquire(kdim * ncols);
  detail::gemm(kdim, ncols, cout_, {weight_.raw(), 1, kdim},
               {dy.data(), ncols, 1}, gcols.data(), sp_);
  grad_in_.resize4(n, cin_, h, w);
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
    argmax_.resize(out.size());  // every slot is written below
    cached_shape_ = input.shape();
  }
  std::size_t* argmax = train ? argmax_.data() : nullptr;
  if (window_ == 2) {
    if (train)
      pool2x2<true>(input.raw(), n * c, h, w, ho, wo, out.raw(), argmax);
    else
      pool2x2<false>(input.raw(), n * c, h, w, ho, wo, out.raw(), argmax);
    return out;
  }
  // Each window keeps its first strictly greater value in (ky, kx) order. A
  // window with nothing above −inf (all NaN or −inf) yields −inf and routes
  // its gradient to the window's first element.
  std::size_t oi = 0;
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t ci = 0; ci < c; ++ci)
      for (std::size_t oy = 0; oy < ho; ++oy)
        for (std::size_t ox = 0; ox < wo; ++ox, ++oi) {
          const std::size_t first =
              ((ni * c + ci) * h + oy * window_) * w + ox * window_;
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = first;
          for (std::size_t ky = 0; ky < window_; ++ky)
            for (std::size_t kx = 0; kx < window_; ++kx) {
              const std::size_t flat = first + ky * w + kx;
              const float v = input[flat];
              if (v > best) {
                best = v;
                best_idx = flat;
              }
            }
          out[oi] = best;
          if (train) argmax[oi] = best_idx;
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
  // Row r of the [N·C, H·W] view is out[r]'s plane.
  row_sums(input.raw(), n * c, hw, [&](std::size_t r, double acc) {
    out[r] = static_cast<float>(acc / static_cast<double>(hw));
  });
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
