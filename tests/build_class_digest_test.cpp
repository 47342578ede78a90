// Numeric contract per build class: two fixed smoke cells train to final
// parameters whose FNV-1a digest must equal the constant committed for the
// test's build class. fp32 results are bit-identical within a class, across
// pool sizes, sweep backends and kill/resume; they differ between the "FMA"
// class (native kernels on an FMA host) and the "no FMA" class
// (-DGROUPFEL_NATIVE_KERNELS=OFF), because the GEMM rounds a*b + c once
// where it can fuse it and twice where it cannot. src/CMakeLists.txt names
// the class through GROUPFEL_BUILD_CLASS_FMA.
//
// A change that moves a digest moves a result: it must say so and re-record
// the constants for both classes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>

#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "nn/serialize.hpp"

namespace groupfel::core {
namespace {

struct ClassDigests {
  const char* fma;
  const char* no_fma;
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

ExperimentSpec smoke_spec(ClientStateMode state) {
  ExperimentSpec spec;
  spec.num_clients = 400;
  spec.num_edges = 2;
  spec.alpha = 0.3;
  spec.size_mean = 40;
  spec.size_std = 10;
  spec.size_min = 16;
  spec.size_max = 64;
  spec.test_size = 200;
  spec.mlp_hidden = 16;
  spec.seed = 5;
  spec.client_state = state;
  return spec;
}

GroupFelConfig smoke_config(Method method) {
  GroupFelConfig cfg;
  apply_method(method, cfg);
  cfg.global_rounds = 2;
  cfg.group_rounds = 1;
  cfg.local_epochs = 1;
  cfg.sampled_groups = 3;
  cfg.local.batch_size = 8;
  cfg.local.lr = 0.1f;
  cfg.grouping_params.min_group_size = 8;
  cfg.grouping_params.greedy_window = 48;  // 200 clients per edge: 5 windows
  cfg.seed = 11;
  return cfg;
}

void expect_class_digest(const ExperimentSpec& spec, const GroupFelConfig& cfg,
                         const ClassDigests& expected) {
#if defined(__x86_64__)
#ifndef GROUPFEL_BUILD_CLASS_FMA
  FAIL() << "GROUPFEL_BUILD_CLASS_FMA is not defined: src/CMakeLists.txt "
            "could not tell this build's class";
#else
  const Experiment exp = build_experiment(spec);
  GroupFelTrainer trainer(exp.topology, cfg,
                          build_cost_model(spec.task, cost::GroupOp::kSecAgg));
  const TrainResult result = trainer.train();
  const std::uint64_t digest =
      nn::fnv1a(std::as_bytes(std::span(result.final_params)));
  EXPECT_EQ(hex(digest),
            GROUPFEL_BUILD_CLASS_FMA ? expected.fma : expected.no_fma)
      << "build class " << (GROUPFEL_BUILD_CLASS_FMA ? "FMA" : "no FMA");
#endif
#else
  (void)spec;
  (void)cfg;
  (void)expected;
  GTEST_SKIP() << "digests are recorded for x86-64 build classes only";
#endif
}

TEST(BuildClassDigest, LazyGroupFelWindowedCovg) {
  // Algorithm 1 with windowed CoVG grouping and ESRCoV sampling over lazily
  // synthesized clients: the fleet_1m path at smoke size.
  expect_class_digest(smoke_spec(ClientStateMode::kLazy),
                      smoke_config(Method::kGroupFel),
                      {"332ee8580bd37fd5", "45ad9ab9a71e3255"});
}

TEST(BuildClassDigest, ShareWindowedKldg) {
  // SHARE: windowed KLDG grouping, uniform sampling, resident shards.
  expect_class_digest(smoke_spec(ClientStateMode::kPoolResident),
                      smoke_config(Method::kShare),
                      {"66adf97d85482e96", "851f3cd574b743d0"});
}

}  // namespace
}  // namespace groupfel::core
