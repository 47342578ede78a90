#include "data/synthetic.hpp"

#include <stdexcept>

namespace groupfel::data {

SyntheticSpec cifar_like_spec(bool image) {
  SyntheticSpec spec;
  spec.num_classes = 10;
  spec.sample_shape = image ? std::vector<std::size_t>{3, 16, 16}
                            : std::vector<std::size_t>{32};
  spec.prototype_scale = 1.0;
  // Three prototype modes per class with strong overlap: class-incomplete
  // local training is destructive (the non-IID mechanism of real CIFAR),
  // and the accuracy ceiling lands near the paper's ~0.6-0.7 range.
  spec.modes_per_class = 3;
  spec.noise_scale = 1.4;
  spec.label_noise = 0.08;
  return spec;
}

SyntheticSpec sc_like_spec(bool image) {
  SyntheticSpec spec;
  spec.num_classes = 35;
  spec.sample_shape = image ? std::vector<std::size_t>{1, 32, 16}
                            : std::vector<std::size_t>{40};
  spec.prototype_scale = 1.0;
  spec.modes_per_class = 2;
  spec.noise_scale = 1.8;   // 35-way with strong overlap: low-accuracy regime
  spec.label_noise = 0.15;  // paper's SC curves top out near 0.4
  return spec;
}

std::vector<float> make_prototypes(const SyntheticSpec& spec) {
  if (spec.num_classes == 0)
    throw std::invalid_argument("make_prototypes: zero classes");
  if (spec.modes_per_class == 0)
    throw std::invalid_argument("make_prototypes: zero modes per class");
  const std::size_t dim = nn::shape_size(spec.sample_shape);
  if (dim == 0) throw std::invalid_argument("make_prototypes: empty shape");
  // Class prototypes come from the spec's own seed so every dataset drawn
  // from the same spec (train, test, extra pools) shares one class geometry.
  runtime::Rng proto_rng(spec.prototype_seed);
  std::vector<float> prototypes(spec.num_classes * spec.modes_per_class * dim);
  for (auto& v : prototypes)
    v = static_cast<float>(proto_rng.normal() * spec.prototype_scale);
  return prototypes;
}

std::uint64_t sample_stream_seed(std::uint64_t client_seed,
                                 std::uint64_t local_index) noexcept {
  std::uint64_t sm = client_seed ^ (local_index * 0x9e3779b97f4a7c15ull);
  return runtime::splitmix64(sm);
}

std::int32_t synthesize_sample(const SyntheticSpec& spec,
                               std::span<const float> prototypes,
                               std::uint64_t seed, std::size_t cls,
                               float* out) {
  const std::size_t dim = nn::shape_size(spec.sample_shape);
  runtime::Rng rng(seed);
  // Same draw order as make_synthetic: mode, features, label reroll.
  const std::size_t modes = spec.modes_per_class;
  const std::size_t mode = modes > 1 ? rng.next_below(modes) : 0;
  const float* proto = prototypes.data() + (cls * modes + mode) * dim;
  rng.add_normals({proto, dim}, spec.noise_scale, {out, dim});
  std::int32_t label = static_cast<std::int32_t>(cls);
  if (spec.label_noise > 0.0 && rng.next_double() < spec.label_noise)
    label = static_cast<std::int32_t>(rng.next_below(spec.num_classes));
  return label;
}

DataSet make_synthetic(const SyntheticSpec& spec, std::size_t n,
                       runtime::Rng& rng) {
  const std::vector<float> prototypes = make_prototypes(spec);
  const std::size_t dim = nn::shape_size(spec.sample_shape);
  const std::size_t modes = spec.modes_per_class;

  std::vector<std::size_t> shape;
  shape.push_back(n);
  shape.insert(shape.end(), spec.sample_shape.begin(), spec.sample_shape.end());
  nn::Tensor features(shape);
  std::vector<std::int32_t> labels(n);

  for (std::size_t i = 0; i < n; ++i) {
    // Round-robin over classes keeps the global distribution balanced.
    const std::size_t cls = i % spec.num_classes;
    const std::size_t mode = modes > 1 ? rng.next_below(modes) : 0;
    const float* proto = prototypes.data() + (cls * modes + mode) * dim;
    rng.add_normals({proto, dim}, spec.noise_scale,
                    {features.raw() + i * dim, dim});
    std::int32_t label = static_cast<std::int32_t>(cls);
    if (spec.label_noise > 0.0 && rng.next_double() < spec.label_noise)
      label = static_cast<std::int32_t>(rng.next_below(spec.num_classes));
    labels[i] = label;
  }
  return DataSet(std::move(features), std::move(labels), spec.num_classes);
}

}  // namespace groupfel::data
