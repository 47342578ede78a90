// Tests for the CoV grouping criterion (Eq. 27) — including the properties
// that motivated choosing CoV over variance in §5.1.
#include "grouping/cov.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace groupfel::grouping {
namespace {

TEST(Cov, ZeroForPerfectlyBalancedGroup) {
  const std::vector<std::size_t> counts{10, 10, 10, 10};
  EXPECT_DOUBLE_EQ(cov(counts), 0.0);
}

TEST(Cov, ZeroForEmptyGroup) {
  const std::vector<std::size_t> counts{0, 0, 0};
  EXPECT_DOUBLE_EQ(cov(counts), 0.0);
}

TEST(Cov, MaximalForSingleLabelGroup) {
  // All mass on one of m labels: CoV = sqrt(m - 1).
  for (std::size_t m : {2u, 5u, 10u, 35u}) {
    std::vector<std::size_t> counts{100};
    counts.resize(m, 0);
    EXPECT_NEAR(cov(counts), std::sqrt(static_cast<double>(m - 1)), 1e-9);
  }
}

TEST(Cov, ScaleInvariant) {
  // The paper's reason for preferring CoV over variance: a group with 10x
  // the data but the same shape must score identically.
  const std::vector<std::size_t> small{8, 2, 6, 4};
  const std::vector<std::size_t> large{80, 20, 60, 40};
  EXPECT_NEAR(cov(small), cov(large), 1e-12);
}

TEST(Cov, VarianceIsNotScaleInvariant) {
  // Contrast case from §5.1: more data with milder skew can have LARGER
  // variance yet SMALLER CoV.
  const std::vector<std::size_t> small_skewed{9, 1};   // tiny, very skewed
  const std::vector<std::size_t> big_mild{60, 40};     // big, mildly skewed
  auto variance = [](const std::vector<std::size_t>& c) {
    const double mu = (static_cast<double>(c[0]) + c[1]) / 2.0;
    return ((c[0] - mu) * (c[0] - mu) + (c[1] - mu) * (c[1] - mu)) / 2.0;
  };
  EXPECT_GT(variance(big_mild), variance(small_skewed));
  EXPECT_LT(cov(big_mild), cov(small_skewed));
}

TEST(Cov, MonotoneInSkew) {
  EXPECT_LT(cov(std::vector<std::size_t>{6, 4}),
            cov(std::vector<std::size_t>{8, 2}));
  EXPECT_LT(cov(std::vector<std::size_t>{8, 2}),
            cov(std::vector<std::size_t>{10, 0}));
}

TEST(Cov, RejectsEmptyLabelSet) {
  const std::vector<std::size_t> empty;
  EXPECT_THROW((void)cov(empty), std::invalid_argument);
}

TEST(GroupLabelCounts, SumsRows) {
  const data::LabelMatrix m({{1, 2}, {3, 4}, {10, 0}}, 2);
  const std::vector<std::size_t> clients{0, 2};
  const auto counts = group_label_counts(m, clients);
  EXPECT_EQ(counts[0], 11u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_NEAR(group_cov(m, clients), cov(counts), 1e-12);
}

TEST(IncrementalCov, MatchesBatchComputation) {
  const data::LabelMatrix m({{5, 0, 1}, {0, 6, 1}, {2, 2, 2}, {9, 0, 0}}, 3);
  IncrementalCov inc(3);
  std::vector<std::size_t> members;
  for (std::size_t c = 0; c < 4; ++c) {
    inc.add(m.row(c));
    members.push_back(c);
    EXPECT_NEAR(inc.value(), group_cov(m, members), 1e-12) << "after adding " << c;
  }
}

TEST(IncrementalCov, ValueWithDoesNotMutate) {
  const data::LabelMatrix m({{5, 0}, {0, 5}}, 2);
  IncrementalCov inc(2);
  inc.add(m.row(0));
  const double before = inc.value();
  const double with_other = inc.value_with(m.row(1));
  EXPECT_NEAR(with_other, 0.0, 1e-12);  // balanced pair
  EXPECT_DOUBLE_EQ(inc.value(), before);
  EXPECT_EQ(inc.total(), 5u);
}

TEST(IncrementalCov, SizeMismatchThrows) {
  IncrementalCov inc(2);
  const std::vector<data::LabelMatrix::Count> row{1, 1, 1};
  EXPECT_THROW(inc.add(row), std::invalid_argument);
  EXPECT_THROW((void)inc.value_with(row), std::invalid_argument);
}

}  // namespace
}  // namespace groupfel::grouping
