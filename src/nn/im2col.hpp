// im2col / col2im — lowering between [N, C, H, W] activations and the
// [C·k·k, N·Ho·Wo] matrix that turns stride-1 zero-padded convolution into
// one GEMM (forward: W·cols; weight grad: dY·colsᵀ; input grad:
// col2im(Wᵀ·dY)). Column index is ((n·Ho + oy)·Wo + ox); row index is
// ((c·k + ky)·k + kx), matching the [Cout, Cin, k, k] weight layout
// flattened to [Cout, Cin·k·k].
//
// Both directions work one (n, c) input plane at a time. im2col copies the
// plane into a zero-bordered padded plane, so every (ky, kx) tap is a set
// of whole output rows of it, copied with no bounds logic (compile-time row
// lengths for Wo ∈ {4, 8, 16}). col2im gathers: for "same" convolution on
// 4-, 8- or 16-wide planes each input row sums its taps, shifted in
// registers, in (ky, kx) order and is stored once; other shapes zero the
// plane and accumulate the valid spans in the same order.
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

/// Folds cols[c·k·k, n·ho·wo] back into grad_x[n, c, h, w], which it
/// overwrites: each element is +0 plus its overlapping contributions, added
/// in (ky, kx) order.
void col2im(const float* cols, std::size_t n, std::size_t c, std::size_t h,
            std::size_t w, std::size_t k, std::size_t pad, float* grad_x);

}  // namespace groupfel::nn::detail
