#include "nn/im2col.hpp"

#include <cstring>
#include <utility>
#include <vector>

namespace groupfel::nn::detail {
namespace {

/// Every (ky, kx) tap of one plane: tap (ky, kx) of output row oy is the
/// padded-plane row oy + ky, columns [kx, kx + wo), copied as one span.
/// `dst` is the plane's block in tap (0, 0); tap t's block sits t·ncols on.
/// W != 0 fixes the row length at compile time (the CNN5/ResNet3 plane
/// widths), so each row copy is a couple of vector moves; W == 0 uses the
/// runtime `wo_rt`.
template <std::size_t W>
void copy_taps(const float* padded, std::size_t wp, std::size_t ho,
               std::size_t wo_rt, std::size_t k, std::size_t ncols,
               float* dst) {
  const std::size_t wo = W != 0 ? W : wo_rt;
  for (std::size_t ky = 0; ky < k; ++ky)
    for (std::size_t kx = 0; kx < k; ++kx) {
      const float* src = padded + ky * wp + kx;
      float* d = dst + (ky * k + kx) * ncols;
      for (std::size_t oy = 0; oy < ho; ++oy)
        std::memcpy(d + oy * wo, src + oy * wp, wo * sizeof(float));
    }
}

typedef float v4f __attribute__((vector_size(4 * sizeof(float))));
typedef float v8f __attribute__((vector_size(8 * sizeof(float))));
typedef float v16f __attribute__((vector_size(16 * sizeof(float))));

/// W float lanes: one plane row (GNU vector extension; an attribute on an
/// alias template would be dropped, hence the specializations).
template <std::size_t W>
struct RowVec;
template <>
struct RowVec<4> {
  using type = v4f;
};
template <>
struct RowVec<8> {
  using type = v8f;
};
template <>
struct RowVec<16> {
  using type = v16f;
};
template <std::size_t W>
using Row = typename RowVec<W>::type;

/// acc[ix] += row[ix + S] for ix + S in [0, W), += +0 elsewhere: one tap
/// row shifted in registers, its out-of-row lanes filled from a zero
/// vector. Vectors travel by reference only (no vector-ABI crossings).
template <std::size_t W, int S, std::size_t... I>
inline void add_shifted(Row<W>& acc, const float* row,
                        std::index_sequence<I...>) {
  using F = Row<W>;
  constexpr int kW = static_cast<int>(W);
  F v;
  std::memcpy(&v, row, sizeof(v));
  if constexpr (S == 0) {
    acc += v;
  } else {
    acc += __builtin_shufflevector(
        v, F{},
        (static_cast<int>(I) + S >= 0 && static_cast<int>(I) + S < kW
             ? static_cast<int>(I) + S
             : kW)...);
  }
}

/// Taps kx = 0 … 2P of one kernel row, added in kx order; `row` is tap
/// (ky, 0)'s output row, tap (ky, kx)'s is kx·ncols on.
template <std::size_t W, int P, int... KX>
inline void add_kernel_row(Row<W>& acc, const float* row,
                           std::size_t ncols,
                           std::integer_sequence<int, KX...>) {
  (add_shifted<W, P - KX>(acc, row + static_cast<std::size_t>(KX) * ncols,
                          std::make_index_sequence<W>{}),
   ...);
}

/// Gather col2im for "same" convolution on W-wide planes (w == wo == W,
/// k == 2P + 1): each input row sums its taps in a register, in (ky, kx)
/// order from +0, and is stored once. Taps whose output row is out of range
/// are skipped; taps whose column falls in the padding add +0, which is
/// exact because an accumulator starting at +0 never becomes −0.
template <std::size_t W, int P>
void col2im_same(const float* cols, std::size_t n, std::size_t c,
                 std::size_t h, float* grad_x) {
  constexpr std::size_t k = 2 * P + 1;
  const std::size_t how = h * W, ncols = n * how;
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t ci = 0; ci < c; ++ci) {
      const float* taps = cols + ci * k * k * ncols + ni * how;
      float* plane = grad_x + (ni * c + ci) * how;
      for (std::size_t iy = 0; iy < h; ++iy) {
        Row<W> acc{};
        for (std::size_t ky = 0; ky < k; ++ky) {
          const std::size_t oy = iy + P - ky;  // wraps when iy + P < ky
          if (oy >= h) continue;
          add_kernel_row<W, P>(acc, taps + ky * k * ncols + oy * W, ncols,
                               std::make_integer_sequence<int, k>{});
        }
        std::memcpy(plane + iy * W, &acc, sizeof(acc));
      }
    }
}

template <std::size_t W>
bool col2im_dispatch_pad(const float* cols, std::size_t n, std::size_t c,
                         std::size_t h, std::size_t pad, float* grad_x) {
  switch (pad) {
    case 0:
      col2im_same<W, 0>(cols, n, c, h, grad_x);
      return true;
    case 1:
      col2im_same<W, 1>(cols, n, c, h, grad_x);
      return true;
    case 2:
      col2im_same<W, 2>(cols, n, c, h, grad_x);
      return true;
    default:
      return false;
  }
}

/// Scatter col2im for every other shape: zero each plane, then add the
/// valid span of every (ky, kx) tap row, in (ky, kx) order.
void col2im_generic(const float* cols, std::size_t n, std::size_t c,
                    std::size_t h, std::size_t w, std::size_t k,
                    std::size_t pad, float* grad_x) {
  const std::size_t ho = conv_out_dim(h, k, pad);
  const std::size_t wo = conv_out_dim(w, k, pad);
  const std::size_t how = ho * wo, ncols = n * how;
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t ci = 0; ci < c; ++ci) {
      float* plane = grad_x + (ni * c + ci) * h * w;
      std::memset(plane, 0, h * w * sizeof(float));
      for (std::size_t ky = 0; ky < k; ++ky)
        for (std::size_t kx = 0; kx < k; ++kx) {
          const float* tap = cols + ((ci * k + ky) * k + kx) * ncols + ni * how;
          // Output (oy, ox) lands on input (oy + ky − pad, ox + kx − pad).
          const std::size_t oy0 = pad > ky ? pad - ky : 0;
          const std::size_t ox0 = pad > kx ? pad - kx : 0;
          for (std::size_t oy = oy0; oy < ho && oy + ky < h + pad; ++oy) {
            float* drow = plane + (oy + ky - pad) * w;
            for (std::size_t ox = ox0; ox < wo && ox + kx < w + pad; ++ox)
              drow[ox + kx - pad] += tap[oy * wo + ox];
          }
        }
    }
}

}  // namespace

void im2col(const float* x, std::size_t n, std::size_t c, std::size_t h,
            std::size_t w, std::size_t k, std::size_t pad, float* cols) {
  const std::size_t ho = conv_out_dim(h, k, pad);
  const std::size_t wo = conv_out_dim(w, k, pad);
  const std::size_t hp = h + 2 * pad, wp = w + 2 * pad;
  const std::size_t how = ho * wo, ncols = n * how;
  auto copy = &copy_taps<0>;
  if (wo == 4) copy = &copy_taps<4>;
  if (wo == 8) copy = &copy_taps<8>;
  if (wo == 16) copy = &copy_taps<16>;
  // The zero border is written once per call; each plane overwrites only
  // the interior.
  thread_local std::vector<float> padded;
  if (pad != 0) padded.assign(hp * wp, 0.0f);
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t ci = 0; ci < c; ++ci) {
      const float* plane = x + (ni * c + ci) * h * w;
      if (pad != 0) {
        for (std::size_t y = 0; y < h; ++y)
          std::memcpy(padded.data() + (y + pad) * wp + pad, plane + y * w,
                      w * sizeof(float));
        plane = padded.data();
      }
      copy(plane, wp, ho, wo, k, ncols, cols + ci * k * k * ncols + ni * how);
    }
}

void col2im(const float* cols, std::size_t n, std::size_t c, std::size_t h,
            std::size_t w, std::size_t k, std::size_t pad, float* grad_x) {
  if (conv_out_dim(w, k, pad) == w) {  // "same": k == 2·pad + 1, ho == h
    bool done = false;
    if (w == 4) done = col2im_dispatch_pad<4>(cols, n, c, h, pad, grad_x);
    if (w == 8) done = col2im_dispatch_pad<8>(cols, n, c, h, pad, grad_x);
    if (w == 16) done = col2im_dispatch_pad<16>(cols, n, c, h, pad, grad_x);
    if (done) return;
  }
  col2im_generic(cols, n, c, h, w, k, pad, grad_x);
}

}  // namespace groupfel::nn::detail
