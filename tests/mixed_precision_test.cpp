// Mixed-precision plumbing: bf16-storage GEMM tolerances, precision
// propagation through Model/clone, the PrecisionConfig -> trainer wiring,
// pool-size bit-identity of every precision cell of the figures row
// `ablation_precision` at pools {0, 2, 24}, and the fp16 wire's byte
// halving.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "compression/compressor.hpp"
#include "core/config.hpp"
#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "nn/models.hpp"
#include "nn/precision.hpp"
#include "nn/tensor.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "util/half.hpp"

namespace groupfel {
namespace {

using nn::StoragePrecision;

void fill_random(nn::Tensor& t, runtime::Rng& rng) {
  for (auto& v : t.data()) v = static_cast<float>(rng.normal());
}

double max_rel_error(const nn::Tensor& got, const nn::Tensor& want) {
  double worst = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double g = static_cast<double>(got[i]);
    const double w = static_cast<double>(want[i]);
    worst = std::max(worst, std::abs(g - w) / std::max(1.0, std::abs(w)));
  }
  return worst;
}

// Per-precision tolerance policy (docs/DEVELOPMENT.md "Mixed precision"):
// storage rounding perturbs each operand element by at most half an ulp of
// bf16; the fp32-accumulated result then differs from the fp32 kernel by an
// absolute error of order sqrt(k) * ulp, which against the max(1, |ref|)
// denominator bounds relative error at ~1.5e-1 (8-bit significand) through
// k = 256.
TEST(MixedPrecisionGemm, HalfStorageStaysWithinTolerance) {
  for (const std::size_t n : {16u, 64u, 192u}) {
    runtime::Rng rng(n);
    nn::Tensor a({n, n}), b({n, n}), ref({n, n}), out({n, n});
    fill_random(a, rng);
    fill_random(b, rng);
    nn::matmul(a, b, ref);
    nn::matmul(a, b, out, StoragePrecision::kBf16);
    EXPECT_LT(max_rel_error(out, ref), 1.5e-1) << "bf16 n=" << n;
  }
}

TEST(MixedPrecisionGemm, Fp32PathIsBitIdenticalToDefault) {
  const std::size_t n = 96;
  runtime::Rng rng(7);
  nn::Tensor a({n, n}), b({n, n}), d({n, n}), e({n, n});
  fill_random(a, rng);
  fill_random(b, rng);
  nn::matmul(a, b, d);
  nn::matmul(a, b, e, StoragePrecision::kFp32);
  for (std::size_t i = 0; i < d.size(); ++i) EXPECT_EQ(d[i], e[i]);
}

TEST(MixedPrecisionGemm, HalfStorageIsDeterministic) {
  // Same inputs, repeated calls: the packed-storage kernels must be a pure
  // function of (shape, values, precision) — no run-to-run variation.
  const std::size_t n = 128;
  runtime::Rng rng(9);
  nn::Tensor a({n, n}), b({n, n}), first({n, n}), again({n, n});
  fill_random(a, rng);
  fill_random(b, rng);
  nn::matmul(a, b, first, StoragePrecision::kBf16);
  nn::matmul(a, b, again, StoragePrecision::kBf16);
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(first[i], again[i]);
}

TEST(MixedPrecisionModel, ClonePreservesComputePrecision) {
  nn::Model model = nn::make_mlp(32, 64, 10);
  runtime::Rng rng(11);
  model.init(rng);

  nn::Tensor x({16, 32});
  fill_random(x, rng);
  const nn::Tensor fp32_out = model.forward(x);

  model.set_compute_precision(StoragePrecision::kBf16);
  const nn::Tensor bf16_out = model.forward(x);
  // Storage rounding must actually engage (different result)...
  bool differs = false;
  for (std::size_t i = 0; i < fp32_out.size(); ++i)
    differs |= (fp32_out[i] != bf16_out[i]);
  EXPECT_TRUE(differs) << "bf16 compute did not change the forward pass";
  // ...within tolerance of the fp32 result.
  EXPECT_LT(max_rel_error(bf16_out, fp32_out), 6e-2);

  // Clones inherit the precision: a clone's forward is bit-identical to the
  // original's (this is what makes replica caches precision-transparent).
  nn::Model copy = model.clone();
  const nn::Tensor copy_out = copy.forward(x);
  for (std::size_t i = 0; i < bf16_out.size(); ++i)
    EXPECT_EQ(copy_out[i], bf16_out[i]);
}

TEST(PrecisionConfig, DefaultsAreExactLegacyBehavior) {
  const core::PrecisionConfig def{};
  EXPECT_EQ(def.compute, StoragePrecision::kFp32);
  EXPECT_EQ(def.wire, compression::Codec::kFloat32);
  EXPECT_EQ(core::wire_bytes_per_param(compression::Codec::kFloat32), 4.0);
  EXPECT_EQ(core::wire_bytes_per_param(compression::Codec::kFp16), 2.0);
  EXPECT_EQ(core::wire_bytes_per_param(compression::Codec::kInt8), 1.0);
  EXPECT_EQ(core::wire_bytes_per_param(compression::Codec::kInt8Sr), 1.0);
  EXPECT_EQ(core::secagg_frac_bits(compression::Codec::kFloat32), 16u);
  EXPECT_EQ(core::secagg_frac_bits(compression::Codec::kFp16), 10u);
  EXPECT_EQ(core::secagg_frac_bits(compression::Codec::kInt8), 7u);
  EXPECT_EQ(core::secagg_frac_bits(compression::Codec::kInt8Sr), 7u);
}

core::Experiment tiny_experiment(std::size_t mlp_hidden = 16) {
  core::ExperimentSpec spec = core::default_cifar_spec(0.2);
  spec.num_clients = 16;
  spec.num_edges = 2;
  spec.test_size = 100;
  spec.mlp_hidden = mlp_hidden;
  return core::build_experiment(spec);
}

core::GroupFelConfig tiny_config() {
  core::GroupFelConfig cfg;
  core::apply_method(core::Method::kGroupFel, cfg);
  cfg.global_rounds = 2;
  cfg.group_rounds = 2;
  cfg.local_epochs = 1;
  cfg.sampled_groups = 2;
  cfg.local.batch_size = 8;
  cfg.eval_every = 2;
  return cfg;
}

core::TrainResult train_with(const core::Experiment& exp,
                             const core::GroupFelConfig& cfg,
                             std::size_t threads) {
  runtime::ThreadPool pool(threads);
  core::GroupFelTrainer trainer(
      exp.topology, cfg,
      core::build_cost_model(cost::Task::kCifar, cost::GroupOp::kSecAgg),
      &pool);
  return trainer.train();
}

TEST(MixedPrecisionTrainer, CombinedConfigBitIdenticalAcrossPools) {
  // A precision config is a pure function of the logical schedule — the SR
  // streams are counter-based and the kernels dispatch on shape only — so
  // final parameters must not depend on the pool size, for every compute x
  // wire cell that figures' ablation_precision row trains.
  using compression::Codec;
  const std::vector<core::PrecisionConfig> cells{
      {StoragePrecision::kFp32, Codec::kFloat32},
      {StoragePrecision::kBf16, Codec::kFloat32},
      {StoragePrecision::kFp32, Codec::kFp16},
      {StoragePrecision::kFp32, Codec::kInt8Sr},
      {StoragePrecision::kFp32, Codec::kInt8},
      {StoragePrecision::kBf16, Codec::kFp16},
      {StoragePrecision::kBf16, Codec::kInt8Sr},
  };
  const core::Experiment exp = tiny_experiment();
  for (const core::PrecisionConfig& precision : cells) {
    SCOPED_TRACE(std::string(nn::to_string(precision.compute)) + "/" +
                 compression::to_string(precision.wire));
    core::GroupFelConfig cfg = tiny_config();
    cfg.precision = precision;
    const core::TrainResult reference = train_with(exp, cfg, 0);
    for (const std::size_t threads : {2u, 24u}) {
      const core::TrainResult threaded = train_with(exp, cfg, threads);
      ASSERT_EQ(reference.final_params.size(), threaded.final_params.size());
      for (std::size_t i = 0; i < reference.final_params.size(); ++i)
        ASSERT_EQ(reference.final_params[i], threaded.final_params[i])
            << "pool " << threads << ", param " << i;
    }
  }
}

TEST(MixedPrecisionTrainer, WireCodecActuallyPerturbsAndCharges) {
  // Hidden width 64 (~7k params) keeps the fixed 256 B per-message header
  // from pushing the fp16 byte ratio above 0.51.
  const core::Experiment exp = tiny_experiment(64);
  const core::GroupFelConfig base = tiny_config();

  core::GroupFelConfig fp16 = base;
  fp16.precision.wire = compression::Codec::kFp16;

  const core::TrainResult ref = train_with(exp, base, 0);
  const core::TrainResult half = train_with(exp, fp16, 0);

  // The deltas pass through binary16, so the trajectory must diverge...
  bool differs = false;
  for (std::size_t i = 0; i < ref.final_params.size(); ++i)
    differs |= (ref.final_params[i] != half.final_params[i]);
  EXPECT_TRUE(differs) << "fp16 wire codec was a no-op";

  // ...and the cost model must charge exactly half the per-param bytes:
  // comm volume is (params * bpp + 256 B header) * exchanges, so the exact
  // ratio is (2p + 256) / (4p + 256) — just above 1/2 by the header.
  ASSERT_FALSE(ref.history.empty());
  ASSERT_FALSE(half.history.empty());
  const double p =
      static_cast<double>(exp.topology.model_factory().param_count());
  const double expected = (2.0 * p + 256.0) / (4.0 * p + 256.0);
  const double ratio = half.history.back().cumulative_comm_bytes /
                       ref.history.back().cumulative_comm_bytes;
  EXPECT_NEAR(ratio, expected, 1e-12);
  EXPECT_LE(ratio, 0.51);
}

TEST(MixedPrecisionTrainer, SecAggPathHonorsNarrowedFractionBits) {
  // use_real_secagg with an int8 wire codec: the fixed-point encoder drops
  // to 7 fraction bits. The run must complete and stay deterministic.
  const core::Experiment exp = tiny_experiment();
  core::GroupFelConfig cfg = tiny_config();
  cfg.use_real_secagg = true;
  cfg.precision.wire = compression::Codec::kInt8;

  const core::TrainResult a = train_with(exp, cfg, 0);
  const core::TrainResult b = train_with(exp, cfg, 2);
  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  for (std::size_t i = 0; i < a.final_params.size(); ++i)
    EXPECT_EQ(a.final_params[i], b.final_params[i]);
}

}  // namespace
}  // namespace groupfel
