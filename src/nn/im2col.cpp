#include "nn/im2col.hpp"

#include <algorithm>
#include <cstring>

namespace groupfel::nn::detail {
namespace {

/// Valid output-pixel interval [lo, hi) for one kernel offset kf along an
/// axis of input extent `in` (out extent `out`): in-coordinate o + kf − pad
/// must land in [0, in). Both ends are clamped to [0, out], so an empty
/// interval never points past the end of an output row.
inline void valid_range(std::size_t out, std::size_t in, std::size_t kf,
                        std::size_t pad, std::size_t& lo, std::size_t& hi) {
  lo = std::min(out, pad > kf ? pad - kf : 0);
  hi = (in + pad > kf) ? std::min(out, in + pad - kf) : 0;
  if (hi < lo) hi = lo;
}

/// One (ci, ky, kx, n) block of "same"-padded im2col (wo == w, so ho == h,
/// and the block is shaped like the h×w input plane): output pixel (oy, ox)
/// reads input (oy + ky − pad, ox + kx − pad), a constant offset in the
/// flattened plane. The valid rows are therefore one contiguous copy; the
/// pixels of those rows outside [ox0, ox1) picked up neighbouring-row values
/// and are cleared afterwards.
void im2col_same_block(const float* plane, std::size_t h, std::size_t w,
                       std::size_t ky, std::size_t kx, std::size_t pad,
                       std::size_t oy0, std::size_t oy1, std::size_t ox0,
                       std::size_t ox1, float* dst) {
  const std::size_t hw = h * w;
  if (oy0 == oy1 || ox0 == ox1) {
    std::memset(dst, 0, hw * sizeof(float));
    return;
  }
  std::memset(dst, 0, oy0 * w * sizeof(float));
  const std::size_t first = oy0 * w + ox0;
  const std::size_t last = (oy1 - 1) * w + ox1;
  std::memcpy(dst + first, plane + (oy0 + ky - pad) * w + (ox0 + kx - pad),
              (last - first) * sizeof(float));
  for (std::size_t oy = oy0; oy < oy1; ++oy) {
    float* drow = dst + oy * w;
    for (std::size_t ox = 0; ox < ox0; ++ox) drow[ox] = 0.0f;
    for (std::size_t ox = ox1; ox < w; ++ox) drow[ox] = 0.0f;
  }
  std::memset(dst + oy1 * w, 0, (hw - oy1 * w) * sizeof(float));
}

}  // namespace

void im2col(const float* x, std::size_t n, std::size_t c, std::size_t h,
            std::size_t w, std::size_t k, std::size_t pad, float* cols) {
  const std::size_t ho = conv_out_dim(h, k, pad);
  const std::size_t wo = conv_out_dim(w, k, pad);
  const std::size_t ncols = n * ho * wo;
  for (std::size_t ci = 0; ci < c; ++ci) {
    for (std::size_t ky = 0; ky < k; ++ky) {
      std::size_t oy0, oy1;
      valid_range(ho, h, ky, pad, oy0, oy1);
      for (std::size_t kx = 0; kx < k; ++kx) {
        std::size_t ox0, ox1;
        valid_range(wo, w, kx, pad, ox0, ox1);
        float* dst = cols + ((ci * k + ky) * k + kx) * ncols;
        for (std::size_t ni = 0; ni < n; ++ni) {
          const float* plane = x + (ni * c + ci) * h * w;
          if (wo == w) {
            im2col_same_block(plane, h, w, ky, kx, pad, oy0, oy1, ox0, ox1,
                              dst + ni * ho * wo);
            continue;
          }
          for (std::size_t oy = 0; oy < ho; ++oy) {
            float* drow = dst + (ni * ho + oy) * wo;
            if (oy < oy0 || oy >= oy1 || ox0 == ox1) {
              std::memset(drow, 0, wo * sizeof(float));
              continue;
            }
            const std::size_t iy = oy + ky - pad;
            const float* srow = plane + iy * w + (ox0 + kx - pad);
            std::memset(drow, 0, ox0 * sizeof(float));
            std::memcpy(drow + ox0, srow, (ox1 - ox0) * sizeof(float));
            std::memset(drow + ox1, 0, (wo - ox1) * sizeof(float));
          }
        }
      }
    }
  }
}

void col2im(const float* cols, std::size_t n, std::size_t c, std::size_t h,
            std::size_t w, std::size_t k, std::size_t pad, float* grad_x) {
  const std::size_t ho = conv_out_dim(h, k, pad);
  const std::size_t wo = conv_out_dim(w, k, pad);
  const std::size_t ncols = n * ho * wo;
  for (std::size_t ci = 0; ci < c; ++ci) {
    for (std::size_t ky = 0; ky < k; ++ky) {
      std::size_t oy0, oy1;
      valid_range(ho, h, ky, pad, oy0, oy1);
      for (std::size_t kx = 0; kx < k; ++kx) {
        std::size_t ox0, ox1;
        valid_range(wo, w, kx, pad, ox0, ox1);
        const float* src = cols + ((ci * k + ky) * k + kx) * ncols;
        for (std::size_t ni = 0; ni < n; ++ni) {
          float* plane = grad_x + (ni * c + ci) * h * w;
          for (std::size_t oy = oy0; oy < oy1; ++oy) {
            const std::size_t iy = oy + ky - pad;
            const float* srow = src + (ni * ho + oy) * wo + ox0;
            float* drow = plane + iy * w + (ox0 + kx - pad);
            const std::size_t len = ox1 - ox0;
            for (std::size_t i = 0; i < len; ++i) drow[i] += srow[i];
          }
        }
      }
    }
  }
}

}  // namespace groupfel::nn::detail
