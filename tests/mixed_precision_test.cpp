// Mixed-precision plumbing: bf16-storage GEMM semantics (exactly the fp32
// GEMM over bf16-rounded operands) and tolerances, precision
// propagation through Model/clone, the PrecisionConfig -> trainer wiring,
// pool-size bit-identity of every precision cell of the figures row
// `ablation_precision` at pools {0, 2, 24}, and the fp16 wire's byte
// halving.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
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
// k = 256. The 256³ reference point and the MLP eval shape 256×32×64,
// with inputs seeded from their shape, are held to 2.5e-1 for margin.
TEST(MixedPrecisionGemm, HalfStorageStaysWithinTolerance) {
  struct Case {
    std::size_t m, k, n;
    std::uint64_t seed;
    double bound;
  };
  std::vector<Case> cases;
  for (const std::size_t n : {16u, 64u, 192u})
    cases.push_back({n, n, n, n, 1.5e-1});
  for (const auto [m, k, n] : {std::array<std::size_t, 3>{256, 256, 256},
                               std::array<std::size_t, 3>{256, 32, 64}})
    cases.push_back({m, k, n, m * 1315423911u + k * 2654435761u + n, 2.5e-1});
  for (const Case& c : cases) {
    runtime::Rng rng(c.seed);
    nn::Tensor a({c.m, c.k}), b({c.k, c.n}), ref({c.m, c.n}), out({c.m, c.n});
    fill_random(a, rng);
    fill_random(b, rng);
    nn::matmul(a, b, ref);
    nn::matmul(a, b, out, StoragePrecision::kBf16);
    EXPECT_LT(max_rel_error(out, ref), c.bound)
        << "bf16 m=" << c.m << " k=" << c.k << " n=" << c.n;
  }
}

nn::Tensor rounded_bf16(const nn::Tensor& t) {
  nn::Tensor r = t;
  for (auto& v : r.data()) v = util::half::round_bf16(v);
  return r;
}

bool same_bits(const nn::Tensor& x, const nn::Tensor& y) {
  return x.shape() == y.shape() &&
         std::memcmp(x.raw(), y.raw(), x.size() * sizeof(float)) == 0;
}

// bf16 compute is one rounding step in front of the fp32 GEMM: a bf16
// product equals, bit for bit, the fp32 product of bf16-rounded operand
// copies. Checked for every transpose variant and the accumulating form, on
// skinny, small-flop, ragged and blocked shapes (256³ and 300×520×200 split
// their row panels over the pool; 20×40×2100 spans two NC column blocks),
// with the cases run concurrently over the global pool and inline on a
// 0-thread pool.
TEST(MixedPrecisionGemm, Bf16EqualsFp32OnRoundedOperands) {
  struct Shape {
    std::size_t m, k, n;
  };
  const std::vector<Shape> shapes{
      {16, 64, 32},    {8, 27, 8192},     {256, 32, 64},
      {37, 53, 29},    {100, 300, 130},   {20, 40, 2100},
      {256, 256, 256}, {300, 520, 200},   {4096, 288, 64},
      {16384, 27, 32},
  };
  const char* const variants[] = {"matmul", "matmul_bt", "matmul_at",
                                  "matmul_at_acc"};
  constexpr std::size_t kVariants = std::size(variants);
  runtime::ThreadPool inline_pool(0);
  for (runtime::ThreadPool* pool :
       {&runtime::ThreadPool::global(), &inline_pool}) {
    const std::size_t cases = shapes.size() * kVariants;
    std::vector<char> equal(cases, 0);
    pool->parallel_for(cases, [&](std::size_t i) {
      const auto [m, k, n] = shapes[i / kVariants];
      const std::size_t variant = i % kVariants;
      runtime::Rng rng(1000 + i);
      // Stored operand shapes: A·B, A·Bᵀ (B is n×k), Aᵀ·B (A is k×m).
      nn::Tensor a(variant >= 2 ? std::vector<std::size_t>{k, m}
                                : std::vector<std::size_t>{m, k});
      nn::Tensor b(variant == 1 ? std::vector<std::size_t>{n, k}
                                : std::vector<std::size_t>{k, n});
      nn::Tensor got({m, n});
      fill_random(a, rng);
      fill_random(b, rng);
      if (variant == 3) fill_random(got, rng);  // accumulate onto random C
      nn::Tensor want = got;
      const nn::Tensor ra = rounded_bf16(a), rb = rounded_bf16(b);
      switch (variant) {
        case 0:
          nn::matmul(a, b, got, StoragePrecision::kBf16);
          nn::matmul(ra, rb, want);
          break;
        case 1:
          nn::matmul_bt(a, b, got, StoragePrecision::kBf16);
          nn::matmul_bt(ra, rb, want);
          break;
        case 2:
          nn::matmul_at(a, b, got, StoragePrecision::kBf16);
          nn::matmul_at(ra, rb, want);
          break;
        default:
          nn::matmul_at_acc(a, b, got, StoragePrecision::kBf16);
          nn::matmul_at_acc(ra, rb, want);
          break;
      }
      equal[i] = same_bits(got, want);
    });
    for (std::size_t i = 0; i < cases; ++i) {
      const Shape& s = shapes[i / kVariants];
      EXPECT_TRUE(equal[i]) << variants[i % kVariants] << " m=" << s.m
                            << " k=" << s.k << " n=" << s.n << " on a "
                            << pool->size() << "-thread pool";
    }
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
