#include "data/partition.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "data/client_descriptor.hpp"
#include "data/label_matrix.hpp"
#include "data/synthetic.hpp"
#include "grouping/cov.hpp"

namespace groupfel::data {
namespace {

std::shared_ptr<DataSet> make_pool(std::size_t n, std::size_t classes = 10,
                                   std::uint64_t seed = 1) {
  runtime::Rng rng(seed);
  SyntheticSpec spec;
  spec.num_classes = classes;
  spec.sample_shape = {4};
  spec.label_noise = 0.0;
  return std::make_shared<DataSet>(make_synthetic(spec, n, rng));
}

PartitionSpec small_spec(std::size_t clients, double alpha) {
  PartitionSpec spec;
  spec.num_clients = clients;
  spec.alpha = alpha;
  spec.size_mean = 30;
  spec.size_std = 10;
  spec.size_min = 10;
  spec.size_max = 50;
  return spec;
}

TEST(Partition, ShardsAreDisjointAndSized) {
  auto pool = make_pool(4000);
  runtime::Rng rng(2);
  const auto shards = dirichlet_partition(pool, small_spec(40, 0.5), rng);
  ASSERT_EQ(shards.size(), 40u);
  std::set<std::size_t> seen;
  for (const auto& shard : shards) {
    EXPECT_GE(shard.size(), 10u);
    EXPECT_LE(shard.size(), 50u);
    for (auto i : shard.indices()) {
      EXPECT_TRUE(seen.insert(i).second) << "index assigned twice";
    }
  }
}

TEST(Partition, ThrowsWhenPoolTooSmall) {
  auto pool = make_pool(100);
  runtime::Rng rng(3);
  EXPECT_THROW((void)dirichlet_partition(pool, small_spec(40, 0.5), rng),
               std::invalid_argument);
}

TEST(Partition, RejectsBadSpecs) {
  auto pool = make_pool(100);
  runtime::Rng rng(4);
  PartitionSpec spec = small_spec(1, 0.5);
  spec.size_min = 0;
  EXPECT_THROW((void)dirichlet_partition(pool, spec, rng),
               std::invalid_argument);
  spec = small_spec(0, 0.5);
  EXPECT_THROW((void)dirichlet_partition(pool, spec, rng),
               std::invalid_argument);
  EXPECT_THROW((void)dirichlet_partition(nullptr, small_spec(2, 0.5), rng),
               std::invalid_argument);
}

TEST(Partition, RejectsInvalidAlphaAndSizeMoments) {
  // Before validation, alpha = inf or NaN gave NaN Dirichlet proportions
  // and every sample landed in the last class; alpha <= 0 reached
  // Rng::gamma's assert, which release builds compile out.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::nan("");
  struct Bad {
    std::string field;
    double value;
  };
  const std::vector<Bad> bad = {
      {"alpha", 0.0},     {"alpha", -1.0},    {"alpha", inf},
      {"alpha", nan},     {"size_mean", nan}, {"size_mean", inf},
      {"size_std", -1.0}, {"size_std", nan},  {"size_std", inf}};
  auto pool = make_pool(4000);
  for (const Bad& b : bad) {
    PartitionSpec spec = small_spec(20, 0.5);
    if (b.field == "alpha") spec.alpha = b.value;
    if (b.field == "size_mean") spec.size_mean = b.value;
    if (b.field == "size_std") spec.size_std = b.value;
    runtime::Rng rng(6);
    const auto expect_rejected = [&](auto&& partition) {
      try {
        partition();
        ADD_FAILURE() << b.field << " = " << b.value << " was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(b.field), std::string::npos)
            << e.what();
      }
    };
    expect_rejected([&] { (void)dirichlet_partition(pool, spec, rng); });
    expect_rejected([&] { (void)descriptor_partition(spec, 10, rng); });
  }
  // The boundary values stay valid: a point-mass size and a tiny alpha.
  PartitionSpec spec = small_spec(20, 1e-3);
  spec.size_std = 0.0;
  runtime::Rng rng(7);
  EXPECT_EQ(descriptor_partition(spec, 10, rng).total_samples(), 20u * 30u);
}

class PartitionSkewTest : public ::testing::TestWithParam<double> {};

TEST_P(PartitionSkewTest, ClientCovDecreasesWithAlpha) {
  // Property: per-client label CoV should be much higher at alpha=0.05 than
  // at alpha=10 (approaching uniform).
  const double alpha = GetParam();
  auto pool = make_pool(8000, 10, 7);
  runtime::Rng rng(5);
  const auto shards = dirichlet_partition(pool, small_spec(60, alpha), rng);
  const auto matrix = LabelMatrix::from_shards(shards);
  double mean_cov = 0.0;
  for (std::size_t i = 0; i < matrix.num_clients(); ++i)
    mean_cov += grouping::cov(matrix.row(i));
  mean_cov /= static_cast<double>(matrix.num_clients());
  if (alpha <= 0.05) {
    EXPECT_GT(mean_cov, 1.8);
  }
  if (alpha >= 10.0) {
    EXPECT_LT(mean_cov, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, PartitionSkewTest,
                         ::testing::Values(0.05, 0.5, 10.0));

TEST(Partition, DeterministicGivenSeed) {
  auto pool = make_pool(3000);
  runtime::Rng r1(42), r2(42);
  const auto a = dirichlet_partition(pool, small_spec(20, 0.3), r1);
  const auto b = dirichlet_partition(pool, small_spec(20, 0.3), r2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    for (std::size_t j = 0; j < a[i].size(); ++j)
      EXPECT_EQ(a[i].indices()[j], b[i].indices()[j]);
  }
}

TEST(AssignToEdges, EvenSplit) {
  const auto edges = assign_to_edges(300, 3);
  ASSERT_EQ(edges.size(), 3u);
  for (const auto& e : edges) EXPECT_EQ(e.size(), 100u);
  // All clients covered exactly once.
  std::set<std::size_t> seen;
  for (const auto& e : edges)
    for (auto c : e) EXPECT_TRUE(seen.insert(c).second);
  EXPECT_EQ(seen.size(), 300u);
}

TEST(AssignToEdges, RemainderSpread) {
  const auto edges = assign_to_edges(10, 3);
  EXPECT_EQ(edges[0].size(), 4u);
  EXPECT_EQ(edges[1].size(), 3u);
  EXPECT_EQ(edges[2].size(), 3u);
}

TEST(AssignToEdges, RejectsZeroEdges) {
  EXPECT_THROW((void)assign_to_edges(10, 0), std::invalid_argument);
  // Fewer clients than edges would leave an edge with no client.
  EXPECT_THROW((void)assign_to_edges(1, 3), std::invalid_argument);
  EXPECT_THROW((void)assign_to_edges(0, 1), std::invalid_argument);
  EXPECT_EQ(assign_to_edges(3, 3).size(), 3u);
}

}  // namespace
}  // namespace groupfel::data
