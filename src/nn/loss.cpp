#include "nn/loss.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace groupfel::nn {

Tensor softmax(const Tensor& logits) {
  const std::size_t n = logits.dim(0), c = logits.dim(1);
  Tensor probs({n, c});
  for (std::size_t i = 0; i < n; ++i) {
    float mx = logits.at2(i, 0);
    for (std::size_t j = 1; j < c; ++j) mx = std::max(mx, logits.at2(i, j));
    double denom = 0.0;
    for (std::size_t j = 0; j < c; ++j) {
      const double e = std::exp(static_cast<double>(logits.at2(i, j) - mx));
      probs.at2(i, j) = static_cast<float>(e);
      denom += e;
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::size_t j = 0; j < c; ++j) probs.at2(i, j) *= inv;
  }
  return probs;
}

LossResult softmax_cross_entropy(const Tensor& logits,
                                 std::span<const std::int32_t> labels) {
  LossResult res;
  softmax_cross_entropy_into(logits, labels, res);
  return res;
}

void softmax_cross_entropy_into(const Tensor& logits,
                                std::span<const std::int32_t> labels,
                                LossResult& res) {
  if (logits.rank() != 2)
    throw std::invalid_argument("softmax_cross_entropy: logits must be 2-D");
  const std::size_t n = logits.dim(0), c = logits.dim(1);
  if (labels.size() != n)
    throw std::invalid_argument("softmax_cross_entropy: label count mismatch");

  res.loss = 0.0;
  res.correct = 0;
  res.grad.resize2(n, c);  // every element is overwritten below
  const float inv_n = 1.0f / static_cast<float>(n);
  double total = 0.0;
  // One row's exponentials, computed once and reused for the gradient.
  thread_local std::vector<double> exps;
  exps.resize(c);

  for (std::size_t i = 0; i < n; ++i) {
    const auto label = static_cast<std::size_t>(labels[i]);
    if (label >= c)
      throw std::invalid_argument("softmax_cross_entropy: label out of range");
    float mx = logits.at2(i, 0);
    std::size_t argmax = 0;
    for (std::size_t j = 1; j < c; ++j)
      if (logits.at2(i, j) > mx) {
        mx = logits.at2(i, j);
        argmax = j;
      }
    if (argmax == label) ++res.correct;

    double denom = 0.0;
    for (std::size_t j = 0; j < c; ++j) {
      exps[j] = std::exp(static_cast<double>(logits.at2(i, j) - mx));
      denom += exps[j];
    }
    const double log_denom = std::log(denom);
    total += log_denom - static_cast<double>(logits.at2(i, label) - mx);

    for (std::size_t j = 0; j < c; ++j) {
      const double p = exps[j] / denom;
      res.grad.at2(i, j) =
          (static_cast<float>(p) - (j == label ? 1.0f : 0.0f)) * inv_n;
    }
  }
  res.loss = total / static_cast<double>(n);
}

}  // namespace groupfel::nn
