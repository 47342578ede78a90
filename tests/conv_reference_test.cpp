// Cross-checks Conv2d's forward pass against an independently written naive
// reference over a parameterized sweep of shapes. The reference is written
// in a deliberately different style (explicit padding buffer) so a shared
// indexing bug cannot hide.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "nn/im2col.hpp"
#include "nn/layer.hpp"

namespace groupfel::nn {
namespace {

/// Naive reference: materialize the zero-padded input, then correlate.
Tensor reference_conv(const Tensor& x, const Tensor& w, const Tensor& b,
                      std::size_t k, std::size_t pad) {
  const std::size_t n = x.dim(0), cin = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const std::size_t cout = w.dim(0);
  const std::size_t hp = h + 2 * pad, wp = wd + 2 * pad;

  Tensor padded({n, cin, hp, wp});
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t ci = 0; ci < cin; ++ci)
      for (std::size_t y = 0; y < h; ++y)
        for (std::size_t xx = 0; xx < wd; ++xx)
          padded.at4(ni, ci, y + pad, xx + pad) = x.at4(ni, ci, y, xx);

  const std::size_t ho = hp - k + 1, wo = wp - k + 1;
  Tensor out({n, cout, ho, wo});
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t co = 0; co < cout; ++co)
      for (std::size_t oy = 0; oy < ho; ++oy)
        for (std::size_t ox = 0; ox < wo; ++ox) {
          double acc = static_cast<double>(b[co]);
          for (std::size_t ci = 0; ci < cin; ++ci)
            for (std::size_t ky = 0; ky < k; ++ky)
              for (std::size_t kx = 0; kx < k; ++kx)
                acc += static_cast<double>(
                           padded.at4(ni, ci, oy + ky, ox + kx)) *
                       static_cast<double>(w.at4(co, ci, ky, kx));
          out.at4(ni, co, oy, ox) = static_cast<float>(acc);
        }
  return out;
}

struct ConvCase {
  std::size_t cin, cout, k, pad, h, w, batch;
};

class ConvReferenceTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvReferenceTest, ForwardMatchesNaiveReference) {
  const ConvCase c = GetParam();
  runtime::Rng rng(c.cin * 131 + c.cout * 17 + c.k);
  Conv2d conv(c.cin, c.cout, c.k, c.pad);
  conv.init(rng);

  // Extract the layer's parameters to feed the reference.
  Tensor weight, bias;
  int visit = 0;
  conv.for_each_param([&](Tensor& p, Tensor&) {
    if (visit++ == 0)
      weight = p;
    else
      bias = p;
  });

  Tensor x({c.batch, c.cin, c.h, c.w});
  for (auto& v : x.data()) v = static_cast<float>(rng.normal());

  const Tensor got = conv.forward(x, false);
  const Tensor want = reference_conv(x, weight, bias, c.k, c.pad);
  ASSERT_EQ(got.shape(), want.shape());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got[i], want[i], 1e-4f) << "at flat index " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvReferenceTest,
    ::testing::Values(ConvCase{1, 1, 1, 0, 4, 4, 1},    // pointwise
                      ConvCase{1, 2, 3, 0, 5, 5, 2},    // valid conv
                      ConvCase{3, 4, 3, 1, 6, 6, 2},    // same padding
                      ConvCase{2, 3, 5, 2, 8, 8, 1},    // big kernel
                      ConvCase{4, 2, 3, 1, 5, 7, 3},    // non-square input
                      ConvCase{1, 8, 3, 1, 16, 16, 1},  // many filters
                      ConvCase{8, 1, 1, 0, 3, 3, 2}));  // channel mix only

TEST_P(ConvReferenceTest, ForwardMatchesExportedOracle) {
  // conv_reference_forward is the baseline bench/micro_kernels measures
  // against; it must agree with the im2col layer path too.
  const ConvCase c = GetParam();
  runtime::Rng rng(c.cin * 977 + c.cout * 31 + c.k);
  Conv2d conv(c.cin, c.cout, c.k, c.pad);
  conv.init(rng);
  Tensor weight, bias;
  int visit = 0;
  conv.for_each_param([&](Tensor& p, Tensor&) {
    if (visit++ == 0)
      weight = p;
    else
      bias = p;
  });
  Tensor x({c.batch, c.cin, c.h, c.w});
  for (auto& v : x.data()) v = static_cast<float>(rng.normal());

  const Tensor got = conv.forward(x, false);
  const Tensor want = conv_reference_forward(x, weight, bias, c.pad);
  ASSERT_EQ(got.shape(), want.shape());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got[i], want[i], 1e-4f * std::max(1.0f, std::fabs(want[i])))
        << "at flat index " << i;
}

TEST_P(ConvReferenceTest, BackwardMatchesReferenceOracle) {
  // The im2col/col2im backward (input grad + accumulated weight/bias grads)
  // against the retained naive loop nests.
  const ConvCase c = GetParam();
  runtime::Rng rng(c.cin * 499 + c.cout * 61 + c.k + c.pad);
  Conv2d conv(c.cin, c.cout, c.k, c.pad);
  conv.init(rng);
  Tensor weight, bias;
  int visit = 0;
  conv.for_each_param([&](Tensor& p, Tensor&) {
    if (visit++ == 0)
      weight = p;
    else
      bias = p;
  });

  Tensor x({c.batch, c.cin, c.h, c.w});
  for (auto& v : x.data()) v = static_cast<float>(rng.normal());
  const std::size_t ho = c.h + 2 * c.pad - c.k + 1;
  const std::size_t wo = c.w + 2 * c.pad - c.k + 1;
  Tensor g({c.batch, c.cout, ho, wo});
  for (auto& v : g.data()) v = static_cast<float>(rng.normal());

  (void)conv.forward(x, true);
  const Tensor grad_in = conv.backward(g);
  Tensor grad_w, grad_b;
  visit = 0;
  conv.for_each_param([&](Tensor&, Tensor& grad) {
    if (visit++ == 0)
      grad_w = grad;
    else
      grad_b = grad;
  });

  Tensor want_gw({c.cout, c.cin, c.k, c.k});
  Tensor want_gb({std::size_t{1}, c.cout});
  const Tensor want_gin =
      conv_reference_backward(x, weight, g, c.pad, want_gw, want_gb);

  ASSERT_EQ(grad_in.shape(), want_gin.shape());
  const auto tol = [](float want) {
    return 1e-4f * std::max(1.0f, std::fabs(want));
  };
  for (std::size_t i = 0; i < grad_in.size(); ++i)
    EXPECT_NEAR(grad_in[i], want_gin[i], tol(want_gin[i])) << "grad_in " << i;
  for (std::size_t i = 0; i < grad_w.size(); ++i)
    EXPECT_NEAR(grad_w[i], want_gw[i], tol(want_gw[i])) << "grad_w " << i;
  for (std::size_t i = 0; i < grad_b.size(); ++i)
    EXPECT_NEAR(grad_b[i], want_gb[i], tol(want_gb[i])) << "grad_b " << i;
}

TEST(ConvReference, GradientAccumulationMatchesTwoPasses) {
  // Backward accumulates: two backward passes double the gradients.
  runtime::Rng rng(5);
  Conv2d conv(2, 3, 3, 1);
  conv.init(rng);
  Tensor x({1, 2, 5, 5});
  for (auto& v : x.data()) v = static_cast<float>(rng.normal());
  Tensor g({1, 3, 5, 5});
  for (auto& v : g.data()) v = static_cast<float>(rng.normal());

  (void)conv.forward(x, true);
  (void)conv.backward(g);
  std::vector<float> once;
  conv.for_each_param([&](Tensor&, Tensor& grad) {
    once.insert(once.end(), grad.data().begin(), grad.data().end());
  });
  (void)conv.forward(x, true);
  (void)conv.backward(g);
  std::vector<float> twice;
  conv.for_each_param([&](Tensor&, Tensor& grad) {
    twice.insert(twice.end(), grad.data().begin(), grad.data().end());
  });
  for (std::size_t i = 0; i < once.size(); ++i)
    EXPECT_NEAR(twice[i], 2.0f * once[i], 1e-4f);
}

// ---- im2col byte-level oracle ----
//
// A verbatim copy of the per-row im2col loop as it stood before the
// "same"-padding plane copy and the valid-range clamp. Its unclamped range
// can start past a row's end (k = 5, pad = 2, w = 1 gives ox0 = 2 > wo = 1),
// and the row's leading memset then writes ox0 − wo floats into the next
// row. That row is always written later, so the oracle's output is still
// the intended matrix.

inline void oracle_valid_range(std::size_t out, std::size_t in, std::size_t kf,
                               std::size_t pad, std::size_t& lo,
                               std::size_t& hi) {
  lo = pad > kf ? pad - kf : 0;
  hi = (in + pad > kf) ? std::min(out, in + pad - kf) : 0;
  if (hi < lo) hi = lo;
}

void oracle_im2col(const float* x, std::size_t n, std::size_t c,
                   std::size_t h, std::size_t w, std::size_t k,
                   std::size_t pad, float* cols) {
  const std::size_t ho = detail::conv_out_dim(h, k, pad);
  const std::size_t wo = detail::conv_out_dim(w, k, pad);
  const std::size_t ncols = n * ho * wo;
  for (std::size_t ci = 0; ci < c; ++ci) {
    for (std::size_t ky = 0; ky < k; ++ky) {
      std::size_t oy0, oy1;
      oracle_valid_range(ho, h, ky, pad, oy0, oy1);
      for (std::size_t kx = 0; kx < k; ++kx) {
        std::size_t ox0, ox1;
        oracle_valid_range(wo, w, kx, pad, ox0, ox1);
        float* dst = cols + ((ci * k + ky) * k + kx) * ncols;
        for (std::size_t ni = 0; ni < n; ++ni) {
          const float* plane = x + (ni * c + ci) * h * w;
          for (std::size_t oy = 0; oy < ho; ++oy) {
            float* drow = dst + (ni * ho + oy) * wo;
            if (oy < oy0 || oy >= oy1) {
              std::memset(drow, 0, wo * sizeof(float));
              continue;
            }
            const std::size_t iy = oy + ky - pad;
            const float* srow = plane + iy * w + (ox0 + kx - pad);
            if (ox0 > 0) std::memset(drow, 0, ox0 * sizeof(float));
            std::memcpy(drow + ox0, srow, (ox1 - ox0) * sizeof(float));
            if (ox1 < wo)
              std::memset(drow + ox1, 0, (wo - ox1) * sizeof(float));
          }
        }
      }
    }
  }
}

TEST(Im2col, ByteIdenticalToRowLoopOracle) {
  constexpr std::size_t n = 2, c = 2;
  const std::size_t sides[] = {1, 2, 3, 4, 7, 8, 16};
  runtime::Rng rng(77);
  for (const std::size_t k : {1, 3, 5}) {
    for (std::size_t pad = 0; pad <= k; ++pad) {
      for (const std::size_t h : sides) {
        for (const std::size_t w : sides) {
          if (h + 2 * pad < k || w + 2 * pad < k) continue;
          SCOPED_TRACE(::testing::Message() << "k=" << k << " pad=" << pad
                                            << " h=" << h << " w=" << w);
          std::vector<float> x(n * c * h * w);
          for (auto& v : x) v = static_cast<float>(rng.normal());
          const std::size_t size = c * k * k * n *
                                   detail::conv_out_dim(h, k, pad) *
                                   detail::conv_out_dim(w, k, pad);
          // 0xFF bytes (a NaN pattern) mark unwritten slots; the slack
          // after `size` must stay untouched.
          const std::size_t slack = k + 1;
          std::vector<float> want(size + slack), got(size + slack);
          std::memset(want.data(), 0xFF, want.size() * sizeof(float));
          std::memset(got.data(), 0xFF, got.size() * sizeof(float));
          oracle_im2col(x.data(), n, c, h, w, k, pad, want.data());
          detail::im2col(x.data(), n, c, h, w, k, pad, got.data());
          ASSERT_EQ(std::memcmp(got.data(), want.data(), size * sizeof(float)),
                    0);
          const std::vector<unsigned char> slack_bytes(
              slack * sizeof(float), 0xFF);
          ASSERT_EQ(std::memcmp(got.data() + size, slack_bytes.data(),
                                slack_bytes.size()),
                    0)
              << "write past the matrix end";
        }
      }
    }
  }
}

}  // namespace
}  // namespace groupfel::nn
