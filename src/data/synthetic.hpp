// Synthetic dataset generators (DESIGN.md substitution for CIFAR-10 and
// SpeechCommands, which are not available offline).
//
// Each class is a Gaussian prototype in feature space; samples are prototype
// plus isotropic noise, with optional label noise to cap achievable accuracy
// at a paper-like level (~0.6 on the CIFAR task). The phenomena under study
// (non-IID skew across clients, grouping and sampling effects) live entirely
// in the label *partition*, which is identical to the paper's Dirichlet
// protocol — see data/partition.hpp.
#pragma once

#include <cstdint>
#include <span>

#include "data/dataset.hpp"
#include "runtime/rng.hpp"

namespace groupfel::data {

struct SyntheticSpec {
  std::size_t num_classes = 10;
  /// Per-sample feature shape (e.g. {3, 16, 16} for images, {40} for
  /// embedded/MFCC-style features).
  std::vector<std::size_t> sample_shape{32};
  double prototype_scale = 1.0;  ///< spread of class centers
  double noise_scale = 1.0;      ///< within-class spread
  double label_noise = 0.0;      ///< probability a label is re-rolled
  /// Prototype modes per class. With > 1 each class is a Gaussian MIXTURE:
  /// a classifier must see samples from every mode to place the boundary,
  /// so skewed local shards are genuinely destructive (as with real
  /// image/audio classes) rather than merely less informative.
  std::size_t modes_per_class = 1;
  /// Seed for the class prototypes. Part of the spec (not the per-dataset
  /// RNG) so train and test sets generated from the same spec share the
  /// same class geometry.
  std::uint64_t prototype_seed = 0xC1A55E5ull;
};

/// Draws `n` samples with uniform class frequencies (the paper assumes the
/// global distribution is balanced, §5.1).
[[nodiscard]] DataSet make_synthetic(const SyntheticSpec& spec, std::size_t n,
                                     runtime::Rng& rng);

/// Class-prototype table for a spec: [num_classes * modes_per_class * dim]
/// floats drawn from spec.prototype_seed. Every dataset or lazily
/// materialized sample generated from the same spec shares this geometry.
[[nodiscard]] std::vector<float> make_prototypes(const SyntheticSpec& spec);

/// Seed of the independent Rng stream for one sample, keyed by the owning
/// client's seed and the sample's local index. Counter-based (no shared
/// stream), so any sample can be regenerated in isolation, in any order, on
/// any thread, bit-identically. Inline so lazy synthesis can seed eight
/// samples in vector lanes.
[[nodiscard]] inline std::uint64_t sample_stream_seed(
    std::uint64_t client_seed, std::uint64_t local_index) noexcept {
  std::uint64_t sm = client_seed ^ (local_index * 0x9e3779b97f4a7c15ull);
  return runtime::splitmix64(sm);
}

/// Synthesizes ONE sample of intended class `cls` from its own stream:
/// mode draw, prototype + isotropic noise into `out` (dim floats), then the
/// label-noise reroll. Returns the observed label. Deterministic in
/// (spec, prototypes, seed, cls) — repeated calls are bit-identical, which
/// is the contract the lazy client-state path is built on.
std::int32_t synthesize_sample(const SyntheticSpec& spec,
                               std::span<const float> prototypes,
                               std::uint64_t seed, std::size_t cls,
                               float* out);

/// CIFAR-10-like: 10 classes. `image` selects {3, 16, 16} images for the
/// conv models; otherwise 32-dim embedded features for the MLP surrogate.
[[nodiscard]] SyntheticSpec cifar_like_spec(bool image = false);

/// SpeechCommands-like: 35 classes, 40-dim MFCC-style features (or
/// {1, 32, 16} spectrogram patches when `image`).
[[nodiscard]] SyntheticSpec sc_like_spec(bool image = false);

}  // namespace groupfel::data
