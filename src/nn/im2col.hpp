// im2col / col2im — lowering between [N, C, H, W] activations and the
// [C·k·k, N·Ho·Wo] matrix that turns stride-1 zero-padded convolution into
// one GEMM (forward: W·cols; weight grad: dY·colsᵀ; input grad:
// col2im(Wᵀ·dY)). Column index is ((n·Ho + oy)·Wo + ox); row index is
// ((c·k + ky)·k + kx), matching the [Cout, Cin, k, k] weight layout
// flattened to [Cout, Cin·k·k].
//
// Both directions hoist the padding bounds out of the pixel loops: per
// (ky, kx) the valid output-pixel range is computed once and the interior
// is a contiguous span copy (im2col) or span accumulate (col2im). For
// "same" padding (Wo == W) the valid rows of one (c, ky, kx, n) plane sit
// at a constant offset from the input plane, so im2col copies them in one
// span and then clears the out-of-row columns.
#pragma once

#include <cstddef>

namespace groupfel::nn::detail {

/// Output spatial side for stride-1 convolution: in + 2·pad − k + 1.
inline std::size_t conv_out_dim(std::size_t in, std::size_t k,
                                std::size_t pad) {
  return in + 2 * pad - k + 1;
}

/// Unfolds x[n, c, h, w] into cols[c·k·k, n·ho·wo]; cols is fully written
/// (padding positions become zeros).
void im2col(const float* x, std::size_t n, std::size_t c, std::size_t h,
            std::size_t w, std::size_t k, std::size_t pad, float* cols);

/// Folds cols[c·k·k, n·ho·wo] back, accumulating overlapping contributions
/// into grad_x[n, c, h, w]. grad_x must be zeroed by the caller.
void col2im(const float* cols, std::size_t n, std::size_t c, std::size_t h,
            std::size_t w, std::size_t k, std::size_t pad, float* grad_x);

}  // namespace groupfel::nn::detail
