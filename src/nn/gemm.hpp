// Blocked, packed single-precision GEMM — the compute core behind
// matmul/matmul_bt/matmul_at and the im2col convolution path.
//
// Scheme (GotoBLAS/BLIS): C is computed in Nc-wide column blocks; for each
// Kc-deep slice, B is packed into Kc×NR column slivers (streamed from L1)
// and A into MR-row slivers of an Mc×Kc panel (resident in L2). The
// MR×NR micro-kernel uses GNU vector extensions with constant trip counts,
// so it runs at the widest SIMD the build allows (this translation unit is
// compiled -O3 and, when supported, -march=native — never -ffast-math; see
// src/CMakeLists.txt).
//
// Transposed operands are handled by the pack routines via strided views,
// so A·B, A·Bᵀ, and Aᵀ·B share one kernel. Small shapes take a
// register-tiled skinny kernel over a row-contiguous B; any other B layout
// is first copied dense (a transposed B through an in-register transpose).
// Every C element is one sequential-k multiply-add chain (one per Kc block
// on the blocked path), whatever the layout: A·Bᵀ is bit-identical to A
// times Bᵀ stored row-major. Row panels of C are split over runtime::ThreadPool for large
// shapes; each panel's accumulation order is fixed, so results are
// bit-identical for any pool size.
//
// Mixed precision: gemm/gemm_acc take a StoragePrecision selector. For bf16
// both operands are rounded once (RNE, via util/half.hpp) into dense copies,
// then the fp32 kernels run on the copies. A bf16 product is bit-identical
// to the fp32 product of bf16-rounded operands on every shape and every
// host, and stays bit-identical across pool sizes.
#pragma once

#include <cstddef>

#include "nn/precision.hpp"

namespace groupfel::nn::detail {

/// Strided read-only matrix view: element (r, c) = p[r * rs + c * cs].
struct MatView {
  const float* p;
  std::size_t rs;  ///< row stride
  std::size_t cs;  ///< column stride
};

/// C (row-major m×n, leading dimension n) = A(m×k) · B(k×n), overwriting C.
/// A and B are strided views, so callers express transposes as views of the
/// untransposed storage. `sp` selects the operand storage width (fp32
/// default; accumulation is always fp32).
void gemm(std::size_t m, std::size_t n, std::size_t k, MatView a, MatView b,
          float* c, StoragePrecision sp = StoragePrecision::kFp32);

/// C += A·B — identical dispatch to gemm() minus the zero-fill. Lets weight
/// gradients accumulate across micro-batches directly into the gradient
/// tensor, with no staging buffer and no extra elementwise add pass.
void gemm_acc(std::size_t m, std::size_t n, std::size_t k, MatView a,
              MatView b, float* c,
              StoragePrecision sp = StoragePrecision::kFp32);

}  // namespace groupfel::nn::detail
