// Cross-checks Conv2d's forward pass against an independently written naive
// reference over a parameterized sweep of shapes. The reference is written
// in a deliberately different style (explicit padding buffer) so a shared
// indexing bug cannot hide.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
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

// ---- Special values for the byte-level oracles ----

/// The platform's default NaN (what inf − inf produces). An add that meets
/// two NaNs may return either one, so inputs to the summing oracles carry
/// only this NaN: every NaN the sums can produce then has the same bits.
float default_nan() {
  volatile float inf = std::numeric_limits<float>::infinity();
  return inf - inf;
}

/// Normal draws; with `specials`, about a quarter of the slots become NaN,
/// ±inf, −0, +0 or a repeated value (ties).
void fill_values(std::vector<float>& v, runtime::Rng& rng, bool specials,
                 float nan) {
  const float inf = std::numeric_limits<float>::infinity();
  const float special[] = {nan, inf, -inf, -0.0f, 0.0f, 1.5f, 1.5f, -1.5f};
  for (auto& x : v) {
    const auto r = specials ? rng.next_below(32) : 32;
    x = r < 8 ? special[r] : static_cast<float>(rng.normal());
  }
}

void fill_values(Tensor& t, runtime::Rng& rng, bool specials, float nan) {
  std::vector<float> v(t.size());
  fill_values(v, rng, specials, nan);
  std::copy(v.begin(), v.end(), t.data().begin());
}

/// Puts +2^35 and −2^35 at two random positions of a summed row (element i
/// of the row is *at(i)). Everything added between them lands on a partial
/// sum near 2^35 and rounds at 2^-17, which the float result still shows:
/// the sum's bits then depend on its order. (A row of unit-scale floats
/// sums exactly in double, whatever the order.)
template <typename At>
void plant_cancelling_pair(std::size_t len, runtime::Rng& rng, At&& at) {
  if (len < 2) return;
  const std::size_t i = rng.next_below(len);
  std::size_t j = rng.next_below(len - 1);
  if (j >= i) ++j;
  *at(i) = 0x1p35f;
  *at(j) = -0x1p35f;
}

bool same_bytes(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

TEST(Im2col, ByteIdenticalToRowLoopOracle) {
  const std::size_t sides[] = {1, 2, 3, 4, 7, 8, 16};
  runtime::Rng rng(77);
  for (const auto& [n, c] : {std::pair<std::size_t, std::size_t>{2, 2}, {1, 1}})
    for (const std::size_t k : {1, 3, 5})
      for (std::size_t pad = 0; pad <= k; ++pad)
        for (const std::size_t h : sides)
          for (const std::size_t w : sides) {
            if (h + 2 * pad < k || w + 2 * pad < k) continue;
            SCOPED_TRACE(::testing::Message()
                         << "n=" << n << " c=" << c << " k=" << k
                         << " pad=" << pad << " h=" << h << " w=" << w);
            std::vector<float> x(n * c * h * w);
            // im2col only copies, so any NaN payload must survive it.
            fill_values(x, rng, /*specials=*/n == 1, std::nanf("7"));
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
            ASSERT_TRUE(same_bytes(got.data(), want.data(), size));
            const std::vector<unsigned char> slack_bytes(
                slack * sizeof(float), 0xFF);
            ASSERT_EQ(std::memcmp(got.data() + size, slack_bytes.data(),
                                  slack_bytes.size()),
                      0)
                << "write past the matrix end";
          }
}

// ---- col2im byte-level oracle ----
//
// A verbatim copy of the span-accumulate col2im the gather form replaced
// (its valid-range helper clamped to the row, which leaves the iteration
// unchanged here: an empty range stays empty). It accumulates, so it runs
// on a zeroed buffer; col2im itself writes every element.

void oracle_col2im(const float* cols, std::size_t n, std::size_t c,
                   std::size_t h, std::size_t w, std::size_t k,
                   std::size_t pad, float* grad_x) {
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

TEST(Col2im, ByteIdenticalToAccumulateOracle) {
  // Output widths cover the gather fast path (4, 8, 16 with k = 2·pad + 1)
  // and the generic scatter around it.
  const std::size_t outs[] = {1, 3, 4, 5, 7, 8, 13, 16};
  const float nan = default_nan();
  runtime::Rng rng(78);
  for (const auto& [n, c] : {std::pair<std::size_t, std::size_t>{2, 3}, {1, 1}})
    for (const std::size_t k : {1, 3, 5})
      for (const std::size_t pad : {0, 1, 2})
        for (const std::size_t ho : {1, 3, 8})
          for (const std::size_t wo : outs)
            for (const bool specials : {false, true}) {
              if (ho + k < 2 * pad + 2 || wo + k < 2 * pad + 2) continue;
              const std::size_t h = ho + k - 1 - 2 * pad;
              const std::size_t w = wo + k - 1 - 2 * pad;
              SCOPED_TRACE(::testing::Message()
                           << "n=" << n << " c=" << c << " k=" << k
                           << " pad=" << pad << " h=" << h << " w=" << w
                           << " specials=" << specials);
              std::vector<float> cols(c * k * k * n * ho * wo);
              fill_values(cols, rng, specials, nan);
              const std::size_t size = n * c * h * w;
              std::vector<float> want(size, 0.0f), got(size + 1);
              // 0xFF bytes (a NaN pattern) mark unwritten slots.
              std::memset(got.data(), 0xFF, got.size() * sizeof(float));
              oracle_col2im(cols.data(), n, c, h, w, k, pad, want.data());
              detail::col2im(cols.data(), n, c, h, w, k, pad, got.data());
              ASSERT_TRUE(same_bytes(got.data(), want.data(), size));
              const std::uint32_t guard = 0xFFFFFFFFu;
              ASSERT_EQ(std::memcmp(got.data() + size, &guard, sizeof(guard)),
                        0)
                  << "write past the plane end";
            }
}

// ---- MaxPool2d byte-level oracle ----
//
// A verbatim copy of the scalar window loop, with one change: a window with
// no value above −inf sends its gradient to its own first element (the loop
// used to start best_idx at flat index 0 — sample 0's first pixel).

void oracle_maxpool(const float* x, std::size_t n, std::size_t c,
                    std::size_t h, std::size_t w, std::size_t window,
                    float* out, std::size_t* argmax) {
  const std::size_t ho = h / window, wo = w / window;
  std::size_t oi = 0;
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t ci = 0; ci < c; ++ci)
      for (std::size_t oy = 0; oy < ho; ++oy)
        for (std::size_t ox = 0; ox < wo; ++ox, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx =
              ((ni * c + ci) * h + oy * window) * w + ox * window;
          for (std::size_t ky = 0; ky < window; ++ky)
            for (std::size_t kx = 0; kx < window; ++kx) {
              const std::size_t iy = oy * window + ky;
              const std::size_t ix = ox * window + kx;
              const std::size_t flat = ((ni * c + ci) * h + iy) * w + ix;
              const float v = x[flat];
              if (v > best) {
                best = v;
                best_idx = flat;
              }
            }
          out[oi] = best;
          argmax[oi] = best_idx;
        }
}

TEST(MaxPool2dOracle, ValueAndArgmaxByteIdentical) {
  // Widths put 2×2 output rows through the 8-lane and 4-lane steps and the
  // scalar tail; odd sides leave a trailing row or column unread.
  runtime::Rng rng(79);
  for (const std::size_t window : {2, 3})
    for (const auto& [n, c] :
         {std::pair<std::size_t, std::size_t>{2, 3}, {1, 1}})
      for (const std::size_t h : {2, 3, 4, 7, 8, 16})
        for (const std::size_t w : {2, 3, 6, 8, 9, 16, 17, 34, 35})
          for (const bool specials : {false, true}) {
            if (h < window || w < window) continue;
            SCOPED_TRACE(::testing::Message()
                         << "window=" << window << " n=" << n << " c=" << c
                         << " h=" << h << " w=" << w
                         << " specials=" << specials);
            Tensor x({n, c, h, w});
            // Any NaN payload works here: pooling only compares and copies.
            fill_values(x, rng, specials, -std::nanf("3"));
            const std::size_t outs = n * c * (h / window) * (w / window);
            std::vector<float> want(outs);
            std::vector<std::size_t> want_idx(outs);
            oracle_maxpool(x.raw(), n, c, h, w, window, want.data(),
                           want_idx.data());

            MaxPool2d pool(window);
            const Tensor eval = pool.forward(x, false);
            ASSERT_EQ(eval.size(), outs);
            ASSERT_TRUE(same_bytes(eval.raw(), want.data(), outs));
            const Tensor train = pool.forward(x, true);
            ASSERT_TRUE(same_bytes(train.raw(), want.data(), outs));

            // Distinct nonzero gradients make grad_in spell out the argmax.
            Tensor g({n, c, h / window, w / window});
            for (std::size_t i = 0; i < outs; ++i)
              g[i] = static_cast<float>(i + 1);
            std::vector<float> want_gin(x.size(), 0.0f);
            for (std::size_t i = 0; i < outs; ++i)
              want_gin[want_idx[i]] += g[i];
            const Tensor gin = pool.backward(g);
            ASSERT_TRUE(same_bytes(gin.raw(), want_gin.data(), x.size()));
          }
}

// ---- Double-sum oracles: Conv2d's bias gradient and GlobalAvgPool ----

TEST(Conv2dBiasGrad, ByteIdenticalToSerialRowSums) {
  // Verbatim: gather dY into [cout, n·ho·wo] rows, then one left-to-right
  // double sum per row, added to the zeroed grad_b. cout covers whole
  // 8-row blocks, remainders and a remainder alone.
  const float nan = default_nan();
  runtime::Rng rng(80);
  for (const std::size_t cout : {1, 3, 8, 11, 16, 19})
    for (const std::size_t n : {1, 3})
      for (const bool specials : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "cout=" << cout << " n=" << n
                                          << " specials=" << specials);
        constexpr std::size_t cin = 2, hw = 5;
        Conv2d conv(cin, cout, 3, 1);
        conv.init(rng);
        Tensor x({n, cin, hw, hw});
        fill_values(x, rng, false, nan);
        Tensor g({n, cout, hw, hw});
        fill_values(g, rng, specials, nan);
        const std::size_t how = hw * hw, ncols = n * how;
        for (std::size_t co = 0; co < cout; ++co)
          plant_cancelling_pair(ncols, rng, [&](std::size_t i) {
            return &g[(i / how * cout + co) * how + i % how];
          });
        (void)conv.forward(x, true);
        conv.backward_params(g);
        Tensor grad_b;
        int visit = 0;
        conv.for_each_param([&](Tensor&, Tensor& grad) {
          if (visit++ == 1) grad_b = grad;
        });

        std::vector<float> dy(cout * ncols);
        for (std::size_t co = 0; co < cout; ++co)
          for (std::size_t ni = 0; ni < n; ++ni)
            std::memcpy(dy.data() + co * ncols + ni * how,
                        g.raw() + (ni * cout + co) * how, how * sizeof(float));
        std::vector<float> want(cout, 0.0f);
        for (std::size_t co = 0; co < cout; ++co) {
          const float* row = dy.data() + co * ncols;
          double s = 0.0;
          for (std::size_t i = 0; i < ncols; ++i)
            s += static_cast<double>(row[i]);
          want[co] += static_cast<float>(s);
        }
        ASSERT_TRUE(same_bytes(grad_b.raw(), want.data(), cout));
      }
}

TEST(GlobalAvgPoolOracle, ByteIdenticalToSerialPlaneSums) {
  const float nan = default_nan();
  runtime::Rng rng(81);
  for (const std::size_t n : {1, 3})
    for (const std::size_t c : {1, 5, 8, 13, 17})
      for (const auto& [h, w] : {std::pair<std::size_t, std::size_t>{1, 1},
                                {2, 3}, {4, 4}})
        for (const bool specials : {false, true}) {
          SCOPED_TRACE(::testing::Message() << "n=" << n << " c=" << c
                                            << " h=" << h << " w=" << w
                                            << " specials=" << specials);
          Tensor x({n, c, h, w});
          fill_values(x, rng, specials, nan);
          const std::size_t hw = h * w;
          for (std::size_t r = 0; r < n * c; ++r)
            plant_cancelling_pair(hw, rng,
                                  [&](std::size_t i) { return &x[r * hw + i]; });
          // Verbatim: one left-to-right double sum per (n, c) plane.
          std::vector<float> want(n * c);
          for (std::size_t ni = 0; ni < n; ++ni)
            for (std::size_t ci = 0; ci < c; ++ci) {
              double acc = 0.0;
              const float* base = x.raw() + (ni * c + ci) * hw;
              for (std::size_t i = 0; i < hw; ++i)
                acc += static_cast<double>(base[i]);
              want[ni * c + ci] =
                  static_cast<float>(acc / static_cast<double>(hw));
            }
          GlobalAvgPool gap;
          const Tensor got = gap.forward(x, false);
          ASSERT_TRUE(same_bytes(got.raw(), want.data(), n * c));
        }
}

}  // namespace
}  // namespace groupfel::nn
