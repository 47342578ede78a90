#include "nn/model.hpp"

#include <algorithm>
#include <cmath>

#include "runtime/thread_pool.hpp"
#include "util/check.hpp"

namespace groupfel::nn {

Model& Model::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

void Model::init(runtime::Rng& rng) {
  for (auto& l : layers_) l->init(rng);
}

const Tensor& Model::forward(const Tensor& input, bool train) {
  const Tensor* x = &input;
  for (auto& l : layers_) x = &l->forward(*x, train);
  return *x;
}

void Model::backward(const Tensor& grad_out) {
  if (layers_.empty()) return;
  // Nobody reads dL/d(input) of the first layer, so it only accumulates its
  // parameter gradients.
  const Tensor* g = &grad_out;
  for (std::size_t i = layers_.size() - 1; i > 0; --i)
    g = &layers_[i]->backward(*g);
  layers_[0]->backward_params(*g);
}

void Model::zero_grad() {
  for (auto& l : layers_)
    l->for_each_param([](Tensor&, Tensor& grad) { grad.zero(); });
}

std::size_t Model::param_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l->param_count();
  return n;
}

std::vector<float> Model::flat_parameters() const {
  std::vector<float> flat(param_count());
  flat_parameters_into(flat);
  return flat;
}

void Model::flat_parameters_into(std::span<float> out) const {
  GF_CHECK_EQ(out.size(), param_count(), "flat_parameters_into");
  std::size_t off = 0;
  for_each_param([&](const Tensor& p, const Tensor&) {
    std::copy_n(p.data().begin(), p.size(),
                out.begin() + static_cast<std::ptrdiff_t>(off));
    off += p.size();
  });
}

void Model::set_flat_parameters(std::span<const float> flat) {
  GF_CHECK_EQ(flat.size(), param_count(), "set_flat_parameters");
  std::size_t off = 0;
  for (auto& l : layers_)
    l->for_each_param([&](Tensor& p, Tensor&) {
      std::copy_n(flat.begin() + static_cast<std::ptrdiff_t>(off), p.size(),
                  p.data().begin());
      off += p.size();
    });
}

std::vector<float> Model::flat_gradients() const {
  std::vector<float> flat(param_count());
  flat_gradients_into(flat);
  return flat;
}

void Model::flat_gradients_into(std::span<float> out) const {
  GF_CHECK_EQ(out.size(), param_count(), "flat_gradients_into");
  std::size_t off = 0;
  for_each_param([&](const Tensor&, const Tensor& g) {
    std::copy_n(g.data().begin(), g.size(),
                out.begin() + static_cast<std::ptrdiff_t>(off));
    off += g.size();
  });
}

void Model::for_each_param(util::FunctionRef<void(Tensor&, Tensor&)> fn) {
  for (auto& l : layers_) l->for_each_param(fn);
}

void Model::for_each_param(
    util::FunctionRef<void(const Tensor&, const Tensor&)> fn) const {
  for (const auto& l : layers_) {
    const Layer& layer = *l;
    layer.for_each_param(fn);
  }
}

Model Model::clone() const {
  Model copy;
  for (const auto& l : layers_) copy.layers_.push_back(l->clone());
  return copy;
}

void Model::set_compute_precision(StoragePrecision sp) {
  for (auto& l : layers_) l->set_compute_precision(sp);
}

void axpy(std::vector<float>& out, std::span<const float> v, float scale) {
  GF_CHECK_EQ(out.size(), v.size(), "axpy");
  for (std::size_t i = 0; i < out.size(); ++i) out[i] += scale * v[i];
}

std::vector<float> weighted_average(const std::vector<std::vector<float>>& vs,
                                    std::span<const double> weights) {
  GF_CHECK(!vs.empty(), "weighted_average: empty input");
  std::vector<std::span<const float>> views(vs.begin(), vs.end());
  std::vector<float> out(vs[0].size());
  weighted_average_into(out, views, weights);
  return out;
}

namespace {
/// Reduction block size in elements. Fixed by the parameter count alone so
/// the work decomposition — and therefore the result — never depends on how
/// many threads execute it.
constexpr std::size_t kReduceBlock = 8192;
}  // namespace

void weighted_average_into(std::span<float> out,
                           std::span<const std::span<const float>> vs,
                           std::span<const double> weights,
                           runtime::ThreadPool* pool) {
  GF_CHECK(!vs.empty(), "weighted_average_into: empty input");
  GF_CHECK_EQ(vs.size(), weights.size(),
              "weighted_average_into: one weight per model");
  const std::size_t dim = out.size();
  for (std::size_t i = 0; i < vs.size(); ++i)
    GF_CHECK_EQ(vs[i].size(), dim, "weighted_average_into: ragged input ", i);

  // Each element sums over models in index order in double precision — the
  // same per-element order as the original serial loop — so blocking (and
  // running blocks on any number of threads) cannot change a single bit.
  const auto reduce_block = [&](std::size_t bi) {
    const std::size_t j0 = bi * kReduceBlock;
    const std::size_t j1 = std::min(dim, j0 + kReduceBlock);
    for (std::size_t j = j0; j < j1; ++j) {
      double s = 0.0;
      for (std::size_t i = 0; i < vs.size(); ++i)
        s += weights[i] * static_cast<double>(vs[i][j]);
      out[j] = static_cast<float>(s);
    }
  };
  const std::size_t blocks = (dim + kReduceBlock - 1) / kReduceBlock;
  if (pool != nullptr && pool->size() > 1 && blocks > 1) {
    pool->parallel_for(blocks, reduce_block);
  } else {
    for (std::size_t bi = 0; bi < blocks; ++bi) reduce_block(bi);
  }
}

double l2_distance(std::span<const float> a, std::span<const float> b) {
  GF_CHECK_EQ(a.size(), b.size(), "l2_distance");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    s += d * d;
  }
  return std::sqrt(s);
}

}  // namespace groupfel::nn
