// conv_reference_forward / conv_reference_backward: the pre-im2col loop
// nests, kept as the oracle for tests/conv_reference_test.cpp and the naive
// baseline of bench/micro_kernels. Per output pixel the valid [ky0, ky1) ×
// [kx0, kx1) kernel window is computed once, so the padding bounds checks
// that used to sit in the innermost loop are gone but the arithmetic (and
// float accumulation order of the original forward) is unchanged.
//
// They live apart from nn/conv.cpp so they build at the project-default
// flags: the conv TU's -O3 -march=native set would re-time the baseline the
// kernel ledger (BENCH_kernels.json) measures the im2col path against.
#include <algorithm>

#include "nn/layer.hpp"

namespace groupfel::nn {
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

}  // namespace groupfel::nn
