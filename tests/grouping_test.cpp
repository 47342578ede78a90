// Grouping-algorithm tests: partition validity for every method, the
// MinGS/MaxCoV constraint semantics of Algorithm 2, and the comparative
// quality properties behind Figs. 4-6.
#include "grouping/grouping.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "util/stats.hpp"

namespace groupfel::grouping {
namespace {

data::LabelMatrix skewed_matrix(std::size_t clients, double alpha,
                                std::uint64_t seed = 11) {
  runtime::Rng rng(seed);
  data::SyntheticSpec spec;
  spec.num_classes = 10;
  spec.sample_shape = {2};
  spec.label_noise = 0.0;
  auto pool = std::make_shared<data::DataSet>(
      data::make_synthetic(spec, clients * 60, rng));
  data::PartitionSpec part;
  part.num_clients = clients;
  part.alpha = alpha;
  part.size_mean = 30;
  part.size_std = 10;
  part.size_min = 10;
  part.size_max = 50;
  auto shards = data::dirichlet_partition(pool, part, rng);
  return data::LabelMatrix::from_shards(shards);
}

struct Case {
  GroupingMethod method;
  double alpha;
};

class AllMethodsTest
    : public ::testing::TestWithParam<std::tuple<GroupingMethod, double>> {};

TEST_P(AllMethodsTest, ProducesValidPartition) {
  const auto [method, alpha] = GetParam();
  const auto matrix = skewed_matrix(50, alpha);
  GroupingParams params;
  params.min_group_size = 5;
  params.max_cov = 0.5;
  runtime::Rng rng(3);
  const Grouping groups = form_groups(method, matrix, params, rng);
  EXPECT_NO_THROW(validate_partition(groups, matrix.num_clients()));
  EXPECT_GE(groups.size(), 1u);
}

TEST_P(AllMethodsTest, MostGroupsMeetMinGS) {
  // Only the tail group (pool exhaustion) may be smaller than MinGS.
  const auto [method, alpha] = GetParam();
  const auto matrix = skewed_matrix(60, alpha);
  GroupingParams params;
  params.min_group_size = 6;
  params.max_cov = 1e9;  // size is the only requirement
  runtime::Rng rng(4);
  const Grouping groups = form_groups(method, matrix, params, rng);
  std::size_t undersized = 0;
  for (const auto& g : groups) undersized += (g.size() < 6);
  EXPECT_LE(undersized, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndSkew, AllMethodsTest,
    ::testing::Combine(::testing::Values(GroupingMethod::kRandom,
                                         GroupingMethod::kCdg,
                                         GroupingMethod::kKldg,
                                         GroupingMethod::kCov),
                       ::testing::Values(0.1, 1.0)));

TEST(CovGrouping, BeatsRandomOnCov) {
  const auto matrix = skewed_matrix(80, 0.1);
  GroupingParams params;
  params.min_group_size = 5;
  params.max_cov = 0.5;
  runtime::Rng r1(5), r2(5);
  const auto cov_summary =
      summarize(matrix, cov_grouping(matrix, params, r1));
  const auto rnd_summary =
      summarize(matrix, random_grouping(matrix, params, r2));
  EXPECT_LT(cov_summary.avg_cov, rnd_summary.avg_cov * 0.8);
}

TEST(CovGrouping, LargerMaxCovGivesSmallerGroups) {
  // Table 1's first trend: relaxing MaxCoV lets groups finalize earlier.
  const auto matrix = skewed_matrix(80, 0.1);
  GroupingParams tight, loose;
  tight.min_group_size = loose.min_group_size = 5;
  tight.max_cov = 0.1;
  loose.max_cov = 1.0;
  runtime::Rng r1(6), r2(6);
  const auto tight_summary =
      summarize(matrix, cov_grouping(matrix, tight, r1));
  const auto loose_summary =
      summarize(matrix, cov_grouping(matrix, loose, r2));
  EXPECT_GE(tight_summary.avg_size, loose_summary.avg_size);
  EXPECT_LE(tight_summary.avg_cov, loose_summary.avg_cov + 1e-9);
}

TEST(CovGrouping, WindowZeroMatchesClassic) {
  // greedy_window = 0 must follow the classic whole-pool code path exactly
  // (same RNG draws, same groups) — the byte-identity contract that keeps
  // every pre-windowing result reproducible.
  const auto matrix = skewed_matrix(60, 0.1);
  GroupingParams classic, windowed;
  classic.min_group_size = windowed.min_group_size = 5;
  classic.max_cov = windowed.max_cov = 0.5;
  windowed.greedy_window = 0;
  runtime::Rng r1(12), r2(12);
  EXPECT_EQ(cov_grouping(matrix, classic, r1),
            cov_grouping(matrix, windowed, r2));
}

TEST(CovGrouping, WindowedGreedyValidPartition) {
  // Window smaller than the pool: every window runs Algorithm 2 locally and
  // the union must still be a valid partition meeting MinGS (tail aside).
  const auto matrix = skewed_matrix(60, 0.1);
  GroupingParams params;
  params.min_group_size = 5;
  params.max_cov = 0.5;
  params.greedy_window = 16;
  runtime::Rng rng(13);
  const Grouping groups = cov_grouping(matrix, params, rng);
  EXPECT_NO_THROW(validate_partition(groups, matrix.num_clients()));
  std::size_t undersized = 0;
  for (const auto& g : groups) undersized += (g.size() < 5);
  // At most one undersized tail per 16-client window.
  EXPECT_LE(undersized, (matrix.num_clients() + 15) / 16);
}

TEST(KldgGrouping, WindowedGreedyValidPartition) {
  const auto matrix = skewed_matrix(60, 0.1);
  GroupingParams params;
  params.min_group_size = 5;
  params.greedy_window = 16;
  runtime::Rng rng(14);
  const Grouping groups = kldg_grouping(matrix, params, rng);
  EXPECT_NO_THROW(validate_partition(groups, matrix.num_clients()));
}

// A window of w < MinGS clients can only close groups of at most w members,
// so every group would break the Eq. 31 anonymity constraint; the windowed
// greedy rejects it and names both fields.
TEST(WindowedGreedy, RejectsWindowBelowMinGroupSize) {
  const auto matrix = skewed_matrix(600, 0.1);
  GroupingParams params;
  params.min_group_size = 20;
  params.greedy_window = 16;
  for (const GroupingMethod method : {GroupingMethod::kCov,
                                      GroupingMethod::kKldg}) {
    runtime::Rng rng(21);
    try {
      (void)form_groups(method, matrix, params, rng);
      ADD_FAILURE() << to_string(method) << ": window 16 < MinGS 20 accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("greedy_window"), std::string::npos) << what;
      EXPECT_NE(what.find("min_group_size"), std::string::npos) << what;
    }
  }
  // A window of exactly MinGS clients stays valid.
  params.greedy_window = 20;
  runtime::Rng rng(21);
  EXPECT_NO_THROW(
      validate_partition(form_groups(GroupingMethod::kCov, matrix, params, rng),
                         matrix.num_clients()));
}

// Eq. 31 as the windowed greedy implements it: groups never cross a
// window, windows emit their groups in order, and within a window only the
// group closed by pool exhaustion (the window's last) may hold fewer than
// MinGS clients. So a grouping can carry up to one undersized tail per
// window, not one per edge as with window 0.
TEST(WindowedGreedy, OnlyLastGroupOfEachWindowMayBeBelowMinGS) {
  const auto matrix = skewed_matrix(600, 0.1);
  GroupingParams params;
  params.min_group_size = 20;
  params.greedy_window = 64;  // nine full windows and one of 24 clients
  const std::size_t n = matrix.num_clients();
  for (const GroupingMethod method : {GroupingMethod::kCov,
                                      GroupingMethod::kKldg}) {
    runtime::Rng rng(31);
    runtime::Rng replay = rng;
    const Grouping groups = form_groups(method, matrix, params, rng);
    // windowed_greedy's one shuffle gives each client its window.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    replay.shuffle(order);
    std::vector<std::size_t> window_of(n);
    for (std::size_t pos = 0; pos < n; ++pos)
      window_of[order[pos]] = pos / params.greedy_window;

    std::size_t window = 0, filled = 0, undersized = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      ASSERT_FALSE(groups[g].empty());
      for (const std::size_t client : groups[g])
        ASSERT_EQ(window_of[client], window)
            << to_string(method) << " group " << g << " leaves its window";
      filled += groups[g].size();
      const std::size_t window_size =
          std::min(params.greedy_window, n - window * params.greedy_window);
      ASSERT_LE(filled, window_size);
      const bool last_of_window = filled == window_size;
      if (groups[g].size() < params.min_group_size) {
        ++undersized;
        EXPECT_TRUE(last_of_window)
            << to_string(method) << " group " << g << " of window " << window
            << " has " << groups[g].size() << " < MinGS clients";
      }
      if (last_of_window) {
        ++window;
        filled = 0;
      }
    }
    EXPECT_EQ(window, (n + params.greedy_window - 1) / params.greedy_window);
    // More than the one tail the whole-pool greedy can leave.
    EXPECT_GT(undersized, 1u) << to_string(method);
  }
}

TEST(CovGrouping, WindowLargerThanPoolMatchesClassic) {
  const auto matrix = skewed_matrix(40, 0.5);
  GroupingParams classic, windowed;
  classic.min_group_size = windowed.min_group_size = 5;
  windowed.greedy_window = 4096;  // n <= window: direct classic path
  runtime::Rng r1(15), r2(15);
  EXPECT_EQ(cov_grouping(matrix, classic, r1),
            cov_grouping(matrix, windowed, r2));
}

TEST(CovGrouping, SingleClient) {
  const data::LabelMatrix matrix({{3, 1}}, 2);
  GroupingParams params;
  params.min_group_size = 5;
  runtime::Rng rng(7);
  const Grouping groups = cov_grouping(matrix, params, rng);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].size(), 1u);
}

TEST(RandomGrouping, ChunksOfMinGS) {
  const auto matrix = skewed_matrix(50, 1.0);
  GroupingParams params;
  params.min_group_size = 5;
  runtime::Rng rng(8);
  const Grouping groups = random_grouping(matrix, params, rng);
  EXPECT_EQ(groups.size(), 10u);
  for (const auto& g : groups) EXPECT_EQ(g.size(), 5u);
}

TEST(RandomGrouping, TailMergedIntoLastGroup) {
  const auto matrix = skewed_matrix(23, 1.0);
  GroupingParams params;
  params.min_group_size = 5;
  runtime::Rng rng(9);
  const Grouping groups = random_grouping(matrix, params, rng);
  // 23 = 5+5+5+8: the 3-client tail merges into the final group.
  ASSERT_EQ(groups.size(), 4u);
  EXPECT_EQ(groups.back().size(), 8u);
}

TEST(CdgGrouping, MixesClusters) {
  // CDG's deal should spread similar clients apart, beating RG's CoV on
  // average for skewed data.
  const auto matrix = skewed_matrix(80, 0.1, 21);
  GroupingParams params;
  params.min_group_size = 5;
  runtime::Rng r1(10), r2(10);
  const auto cdg_summary = summarize(matrix, cdg_grouping(matrix, params, r1));
  const auto rnd_summary =
      summarize(matrix, random_grouping(matrix, params, r2));
  EXPECT_LT(cdg_summary.avg_cov, rnd_summary.avg_cov);
}

TEST(KldgGrouping, ReducesKldVsRandom) {
  const auto matrix = skewed_matrix(60, 0.1, 31);
  GroupingParams params;
  params.min_group_size = 5;
  params.kld_threshold = 0.05;
  runtime::Rng r1(11), r2(11);
  const Grouping kldg = kldg_grouping(matrix, params, r1);
  const Grouping rnd = random_grouping(matrix, params, r2);

  const auto global = matrix.global_counts();
  std::vector<double> global_dist(global.begin(), global.end());
  auto mean_kld = [&](const Grouping& groups) {
    double total = 0.0;
    for (const auto& g : groups) {
      const auto counts = group_label_counts(matrix, g);
      std::vector<double> dist(counts.begin(), counts.end());
      total += util::kl_divergence(dist, global_dist);
    }
    return total / static_cast<double>(groups.size());
  };
  EXPECT_LT(mean_kld(kldg), mean_kld(rnd));
}

TEST(Registry, RoundTripsNames) {
  for (const auto m : {GroupingMethod::kRandom, GroupingMethod::kCdg,
                       GroupingMethod::kKldg, GroupingMethod::kCov}) {
    EXPECT_EQ(grouping_method_from_string(to_string(m)), m);
  }
  EXPECT_THROW((void)grouping_method_from_string("nope"),
               std::invalid_argument);
}

TEST(Registry, ValidatePartitionCatchesErrors) {
  EXPECT_THROW(validate_partition({{0, 1}, {1}}, 2), std::logic_error);
  EXPECT_THROW(validate_partition({{0}}, 2), std::logic_error);
  EXPECT_THROW(validate_partition({{0, 5}}, 2), std::logic_error);
  EXPECT_THROW(validate_partition({{}}, 0), std::logic_error);
  EXPECT_NO_THROW(validate_partition({{1}, {0}}, 2));
}

TEST(Summarize, ComputesSizesAndCov) {
  const data::LabelMatrix matrix({{4, 0}, {0, 4}, {2, 2}}, 2);
  const Grouping groups{{0, 1}, {2}};
  const GroupingSummary s = summarize(matrix, groups);
  EXPECT_EQ(s.num_groups, 2u);
  EXPECT_EQ(s.min_size, 1u);
  EXPECT_EQ(s.max_size, 2u);
  EXPECT_DOUBLE_EQ(s.avg_size, 1.5);
  EXPECT_DOUBLE_EQ(s.avg_cov, 0.0);  // both groups perfectly balanced
}

TEST(CovGrouping, GroupCovBelowMaxCovWhenFeasible) {
  // With mild skew and a generous MaxCoV, every finalized group except
  // possibly the tail should satisfy the cap.
  const auto matrix = skewed_matrix(60, 1.0, 41);
  GroupingParams params;
  params.min_group_size = 4;
  params.max_cov = 0.8;
  runtime::Rng rng(12);
  const Grouping groups = cov_grouping(matrix, params, rng);
  std::size_t violations = 0;
  for (const auto& g : groups)
    violations += (group_cov(matrix, g) > params.max_cov);
  EXPECT_LE(violations, 2u);  // soft constraint; tail groups may violate
}

}  // namespace
}  // namespace groupfel::grouping
