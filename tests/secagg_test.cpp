// Secure-aggregation protocol tests: exactness of the masked sum, dropout
// recovery through Shamir shares, and the key-agreement substrate.
#include "secagg/secure_aggregator.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace groupfel::secagg {
namespace {

std::vector<std::vector<float>> random_inputs(std::size_t n, std::size_t dim,
                                              runtime::Rng& rng) {
  std::vector<std::vector<float>> inputs(n, std::vector<float>(dim));
  for (auto& v : inputs)
    for (auto& x : v) x = static_cast<float>(rng.normal());
  return inputs;
}

std::vector<double> plain_sum(const std::vector<std::vector<float>>& inputs,
                              const std::set<std::size_t>& dropped = {}) {
  std::vector<double> sum(inputs[0].size(), 0.0);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (dropped.count(i)) continue;
    for (std::size_t k = 0; k < sum.size(); ++k)
      sum[k] += static_cast<double>(inputs[i][k]);
  }
  return sum;
}

TEST(KeyAgreement, SharedSecretIsSymmetric) {
  runtime::Rng rng(1);
  const DhKeyPair a = dh_generate(rng);
  const DhKeyPair b = dh_generate(rng);
  EXPECT_EQ(dh_shared(a.private_key, b.public_key).value(),
            dh_shared(b.private_key, a.public_key).value());
}

TEST(KeyAgreement, DifferentPairsDifferentSecrets) {
  runtime::Rng rng(2);
  const DhKeyPair a = dh_generate(rng);
  const DhKeyPair b = dh_generate(rng);
  const DhKeyPair c = dh_generate(rng);
  EXPECT_NE(dh_shared(a.private_key, b.public_key).value(),
            dh_shared(a.private_key, c.public_key).value());
}

TEST(KeyAgreement, GeneratorHasLargeOrder) {
  // g = 3 must not sit in a tiny subgroup: g^k != 1 for small k.
  Fe acc(kDhGenerator);
  for (int k = 1; k <= 1000; ++k) {
    EXPECT_NE(acc.value(), 1u) << "generator order <= " << k;
    acc *= Fe(kDhGenerator);
  }
}

class SecAggSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SecAggSizeTest, SumMatchesPlaintext) {
  const std::size_t n = GetParam();
  runtime::Rng rng(3);
  SecureAggregator agg(n, 32, {}, rng);
  const auto inputs = random_inputs(n, 32, rng);
  const auto got = agg.run(inputs);
  const auto want = plain_sum(inputs);
  for (std::size_t k = 0; k < want.size(); ++k)
    EXPECT_NEAR(static_cast<double>(got[k]), want[k], 1e-3);
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, SecAggSizeTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 10u, 25u));

TEST(SecAgg, MaskedInputHidesPlaintext) {
  runtime::Rng rng(4);
  SecureAggregator agg(5, 16, {}, rng);
  const auto inputs = random_inputs(5, 16, rng);
  const auto masked = agg.client_masked_input(0, inputs[0]);
  // Decoding a masked vector directly must NOT yield the plaintext.
  FixedPointCodec codec;
  int close = 0;
  for (std::size_t k = 0; k < 16; ++k)
    close += (std::abs(codec.decode(masked[k]) -
                       static_cast<double>(inputs[0][k])) < 1e-3);
  EXPECT_LE(close, 1);
}

TEST(SecAgg, DropoutRecovery) {
  runtime::Rng rng(5);
  SecureAggregator agg(8, 24, {}, rng);
  const auto inputs = random_inputs(8, 24, rng);
  const std::set<std::size_t> dropped{1, 6};
  const auto got = agg.run(inputs, dropped);
  const auto want = plain_sum(inputs, dropped);
  for (std::size_t k = 0; k < want.size(); ++k)
    EXPECT_NEAR(static_cast<double>(got[k]), want[k], 1e-3);
}

TEST(SecAgg, DropoutOfHighestIndexClient) {
  runtime::Rng rng(6);
  SecureAggregator agg(6, 8, {}, rng);
  const auto inputs = random_inputs(6, 8, rng);
  const std::set<std::size_t> dropped{5};
  const auto got = agg.run(inputs, dropped);
  const auto want = plain_sum(inputs, dropped);
  for (std::size_t k = 0; k < 8; ++k)
    EXPECT_NEAR(static_cast<double>(got[k]), want[k], 1e-3);
}

TEST(SecAgg, TooManyDropoutsThrow) {
  runtime::Rng rng(7);
  SecureAggregator agg(6, 8, {}, rng);
  EXPECT_EQ(agg.threshold(), 4u);  // ceil(2n/3) for n = 6
  const auto inputs = random_inputs(6, 8, rng);
  const std::set<std::size_t> dropped{0, 1, 2};  // 3 survivors < threshold
  EXPECT_THROW((void)agg.run(inputs, dropped), QuorumNotMet);
  try {
    (void)agg.run(inputs, dropped);
  } catch (const QuorumNotMet& e) {
    EXPECT_EQ(e.survivors(), 3u);
    EXPECT_EQ(e.threshold(), 4u);
  }
}

TEST(SecAgg, CustomThresholdAllowsMoreDropouts) {
  runtime::Rng rng(8);
  SecAggConfig cfg;
  cfg.threshold = 3;
  SecureAggregator agg(6, 8, cfg, rng);
  const auto inputs = random_inputs(6, 8, rng);
  const std::set<std::size_t> dropped{0, 1, 2};
  const auto got = agg.run(inputs, dropped);
  const auto want = plain_sum(inputs, dropped);
  for (std::size_t k = 0; k < 8; ++k)
    EXPECT_NEAR(static_cast<double>(got[k]), want[k], 1e-3);
}

TEST(SecAgg, ThresholdLargerThanGroupRejected) {
  runtime::Rng rng(9);
  SecAggConfig cfg;
  cfg.threshold = 7;
  EXPECT_THROW(SecureAggregator(6, 8, cfg, rng), std::invalid_argument);
}

TEST(SecAgg, RoundTagChangesMasks) {
  runtime::Rng r1(10), r2(10);
  SecAggConfig c1, c2;
  c1.round_tag = 1;
  c2.round_tag = 2;
  SecureAggregator a1(4, 8, c1, r1);
  SecureAggregator a2(4, 8, c2, r2);
  const std::vector<float> x(8, 1.0f);
  const auto m1 = a1.client_masked_input(0, x);
  const auto m2 = a2.client_masked_input(0, x);
  int same = 0;
  for (std::size_t k = 0; k < 8; ++k) same += (m1[k] == m2[k]);
  EXPECT_LE(same, 1);
}

TEST(SecAgg, WeightedAverageThroughScaling) {
  // The trainer's usage: clients pre-scale by weight; the protocol sum is
  // the weighted average.
  runtime::Rng rng(11);
  const std::size_t n = 4, dim = 6;
  SecureAggregator agg(n, dim, {}, rng);
  auto inputs = random_inputs(n, dim, rng);
  const std::vector<double> w{0.1, 0.2, 0.3, 0.4};
  std::vector<std::vector<float>> scaled = inputs;
  for (std::size_t i = 0; i < n; ++i)
    for (auto& v : scaled[i]) v *= static_cast<float>(w[i]);
  const auto got = agg.run(scaled);
  for (std::size_t k = 0; k < dim; ++k) {
    double want = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      want += w[i] * static_cast<double>(inputs[i][k]);
    EXPECT_NEAR(static_cast<double>(got[k]), want, 1e-3);
  }
}

TEST(SecAgg, RejectsMalformedCalls) {
  runtime::Rng rng(12);
  SecureAggregator agg(3, 4, {}, rng);
  const std::vector<float> wrong_dim(5, 0.0f);
  EXPECT_THROW((void)agg.client_masked_input(0, wrong_dim),
               std::invalid_argument);
  EXPECT_THROW((void)agg.client_masked_input(3, std::vector<float>(4, 0.f)),
               std::out_of_range);
  std::vector<std::optional<std::vector<Fe>>> wrong_slots(2);
  EXPECT_THROW((void)agg.aggregate(wrong_slots), std::invalid_argument);
}

TEST(SecAgg, LargeValuesSurviveFixedPoint) {
  runtime::Rng rng(13);
  SecureAggregator agg(3, 4, {}, rng);
  std::vector<std::vector<float>> inputs(3, std::vector<float>(4));
  for (auto& v : inputs)
    for (auto& x : v) x = 1000.0f;
  const auto got = agg.run(inputs);
  for (float v : got) EXPECT_NEAR(v, 3000.0f, 0.01f);
}

}  // namespace
}  // namespace groupfel::secagg
