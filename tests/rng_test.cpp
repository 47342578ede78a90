#include "runtime/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace groupfel::runtime {
namespace {

TEST(Splitmix, KnownFirstValue) {
  // Reference value for splitmix64 with state 0 (widely published).
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xe220a8397b1dcdafull);
}

TEST(Splitmix, AdvancesState) {
  std::uint64_t state = 0;
  const auto a = splitmix64(state);
  const auto b = splitmix64(state);
  EXPECT_NE(a, b);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LE(same, 1);
}

TEST(Rng, ForkIndependentOfParentConsumption) {
  Rng parent(9);
  Rng child1 = parent.fork(7);
  // Forking is a pure function of (state, salt): same parent state + salt
  // gives the same child.
  Rng parent2(9);
  Rng child2 = parent2.fork(7);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(child1.next_u64(), child2.next_u64());
}

TEST(Rng, SiblingForksDecorrelated) {
  Rng parent(9);
  Rng a = parent.fork(0);
  Rng b = parent.fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LE(same, 1);
}

TEST(Rng, NextBelowInRangeAndCoversAll) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextBelowOneAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformMeanApproximation) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform(2.0, 4.0);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(8);
  const int n = 50000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, NormalWithParams) {
  Rng rng(9);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

class GammaShapeTest : public ::testing::TestWithParam<double> {};

TEST_P(GammaShapeTest, MeanMatchesShape) {
  const double shape = GetParam();
  Rng rng(11);
  const int n = 40000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.gamma(shape);
    ASSERT_GE(v, 0.0);
    sum += v;
  }
  // Gamma(shape, 1) has mean == shape.
  EXPECT_NEAR(sum / n, shape, 0.05 * std::max(1.0, shape));
}

INSTANTIATE_TEST_SUITE_P(Shapes, GammaShapeTest,
                         ::testing::Values(0.05, 0.1, 0.5, 1.0, 2.0, 7.5));

class DirichletTest : public ::testing::TestWithParam<double> {};

TEST_P(DirichletTest, SumsToOneAndNonNegative) {
  const double alpha = GetParam();
  Rng rng(12);
  for (int rep = 0; rep < 50; ++rep) {
    const auto v = rng.dirichlet(alpha, 10);
    double sum = 0.0;
    for (double x : v) {
      ASSERT_GE(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST_P(DirichletTest, SmallerAlphaIsMoreSkewed) {
  const double alpha = GetParam();
  Rng rng(13);
  // Mean of the max coordinate grows as alpha shrinks.
  double mean_max = 0.0;
  const int reps = 300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto v = rng.dirichlet(alpha, 10);
    mean_max += *std::max_element(v.begin(), v.end());
  }
  mean_max /= reps;
  if (alpha <= 0.1) {
    EXPECT_GT(mean_max, 0.6);
  }
  if (alpha >= 2.0) {
    EXPECT_LT(mean_max, 0.45);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, DirichletTest,
                         ::testing::Values(0.01, 0.1, 0.5, 1.0, 2.0, 10.0));

TEST(Rng, DirichletPerCategoryAlpha) {
  Rng rng(14);
  const std::vector<double> alpha{10.0, 1.0, 1.0};
  double first = 0.0;
  const int reps = 2000;
  for (int rep = 0; rep < reps; ++rep) first += rng.dirichlet(alpha)[0];
  // E[first] = 10 / 12.
  EXPECT_NEAR(first / reps, 10.0 / 12.0, 0.02);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(15);
  const std::vector<double> w{1.0, 0.0, 3.0};
  std::array<int, 3> counts{};
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, CategoricalRejectsBadWeights) {
  // categorical() and categorical_counts() share the validation. NaN fails
  // `w >= 0`; an infinite weight or total would leave u infinite or NaN and
  // pick the last index for every draw.
  Rng rng(16), good(17);
  const Rng rng_before = rng, good_before = good;
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> two{1.0, 1.0}, three{1.0, 1.0, 1.0};
  std::vector<std::uint32_t> counts(2, 0), good_counts(2, 0), counts3(3, 0);
  const auto rejected = [&](std::vector<CategoricalStream> streams) {
    EXPECT_THROW(categorical_counts(streams), std::invalid_argument);
  };
  for (const std::vector<double>& bad :
       {std::vector<double>{0.0, 0.0}, std::vector<double>{1.0, -0.5},
        std::vector<double>{1.0, std::nan("")},
        std::vector<double>{std::nan(""), 1.0}, std::vector<double>{1.0, inf},
        std::vector<double>{1e308, 1e308}}) {
    EXPECT_THROW((void)rng.categorical(bad), std::invalid_argument);
    EXPECT_THROW((void)categorical_total(bad), std::invalid_argument);
    // The kernel validates every lane before any lane draws: a good lane
    // ahead of the bad one, and a bad lane with no draws, move nothing.
    rejected({{&rng, bad, 8, counts}});
    rejected({{&good, two, 8, good_counts}, {&rng, bad, 8, counts}});
    rejected({{&rng, bad, 0, counts}});
  }
  // It also rejects more than eight streams and streams whose weights and
  // counts are not all the same nonempty length, before drawing.
  rejected({{&rng, three, 8, counts}});
  rejected({{&good, two, 8, good_counts}, {&rng, three, 8, counts3}});
  rejected({{&rng, {}, 8, {}}});
  rejected(std::vector<CategoricalStream>(kCategoricalLanes + 1,
                                          {&rng, two, 8, counts}));
  EXPECT_EQ(counts, (std::vector<std::uint32_t>{0, 0}));
  EXPECT_EQ(good_counts, (std::vector<std::uint32_t>{0, 0}));
  EXPECT_EQ(counts3, (std::vector<std::uint32_t>{0, 0, 0}));
  Rng rng_unmoved = rng_before, good_unmoved = good_before;
  EXPECT_EQ(rng.next_u64(), rng_unmoved.next_u64());
  EXPECT_EQ(good.next_u64(), good_unmoved.next_u64());
}

// A verbatim copy of dirichlet() before dirichlet_into(): the draws and
// arithmetic dirichlet_into must keep, bit for bit.
std::vector<double> dirichlet_reference(Rng& rng, double alpha,
                                        std::size_t k) {
  std::vector<double> out(k);
  double sum = 0.0;
  for (auto& g : out) {
    g = rng.gamma(alpha);
    sum += g;
  }
  if (sum <= 0.0) {
    out.assign(k, 0.0);
    out[rng.next_below(k)] = 1.0;
    return out;
  }
  for (auto& g : out) g /= sum;
  return out;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

TEST(Rng, DirichletIntoMatchesDirichletBitForBit) {
  // alpha 1e-4 makes every gamma underflow to 0 most of the time, so the
  // one-hot fallback (and its next_below draw) runs too.
  std::size_t fallbacks = 0;
  std::uint64_t seed = 100;
  for (const double alpha : {1e-4, 0.05, 0.5, 7.5}) {
    for (const std::size_t k : {1, 3, 10}) {
      for (int rep = 0; rep < 40; ++rep) {
        Rng ref(++seed), into(seed), vec(seed), per_cat(seed);
        const std::vector<double> want = dirichlet_reference(ref, alpha, k);
        std::vector<double> got(k, -1.0);
        into.dirichlet_into(alpha, got);
        const std::vector<double> alphas(k, alpha);
        std::vector<double> got_span(k, -1.0);
        per_cat.dirichlet_into(alphas, got_span);
        EXPECT_TRUE(same_bits(want, got)) << "alpha " << alpha << " k " << k;
        EXPECT_TRUE(same_bits(want, vec.dirichlet(alpha, k)));
        EXPECT_TRUE(same_bits(want, got_span));
        const std::uint64_t next = ref.next_u64();
        EXPECT_EQ(next, into.next_u64());
        EXPECT_EQ(next, vec.next_u64());
        EXPECT_EQ(next, per_cat.next_u64());
        fallbacks += k > 1 && std::count(want.begin(), want.end(), 1.0) == 1 &&
                     std::count(want.begin(), want.end(), 0.0) ==
                         static_cast<std::ptrdiff_t>(k - 1);
      }
    }
  }
  EXPECT_GT(fallbacks, 0u);
  Rng rng(1);
  std::vector<double> out(3);
  const std::vector<double> two{1.0, 1.0};
  EXPECT_THROW(rng.dirichlet_into(two, out), std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto w = v;
  rng.shuffle(w);
  EXPECT_FALSE(std::equal(v.begin(), v.end(), w.begin()));  // 1/100! chance
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(18);
  const auto s = rng.sample_without_replacement(50, 20);
  EXPECT_EQ(s.size(), 20u);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (auto x : s) EXPECT_LT(x, 50u);
}

TEST(Rng, SampleWithoutReplacementFull) {
  Rng rng(19);
  const auto s = rng.sample_without_replacement(5, 5);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(Rng, SampleWithoutReplacementRejectsOverdraw) {
  Rng rng(20);
  EXPECT_THROW((void)rng.sample_without_replacement(3, 4),
               std::invalid_argument);
}

// ---- Bulk categorical counts (the stream kernel categorical_counts) ------

// A verbatim copy of categorical() before the bulk kernel: the stream
// contract every categorical_counts() lane must keep, draw for draw.
std::size_t categorical_reference(Rng& rng, std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("categorical: negative weight");
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument("categorical: zero total weight");
  double u = rng.next_double() * total;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    u -= weights[i];
    if (u < 0.0) return i;
  }
  return weights.size() - 1;
}

// The reference's chain for a given u (its loop after the draw).
std::size_t categorical_chain_reference(double u,
                                        std::span<const double> weights) {
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    u -= weights[i];
    if (u < 0.0) return i;
  }
  return weights.size() - 1;
}

// Weight vectors of length k: Dirichlet-like, zeros at the start, middle and
// end, denormals, and small integers.
std::vector<std::vector<double>> categorical_weight_sets(std::size_t k,
                                                         Rng& rng) {
  std::vector<std::vector<double>> sets;
  sets.push_back(rng.dirichlet(0.1, k));
  if (k >= 2) {
    std::vector<double> zeros(k);
    for (auto& w : zeros) w = 0.01 + rng.next_double();
    zeros[0] = 0.0;
    if (k >= 4) zeros[k / 2] = zeros[k - 1] = 0.0;
    sets.push_back(zeros);
  }
  std::vector<double> denormal(k);
  for (std::size_t i = 0; i < k; ++i)
    denormal[i] = (i % 2 == 0 ? 4.9e-324 : 1e-310) * static_cast<double>(i + 1);
  sets.push_back(denormal);
  std::vector<double> mixed = denormal;
  mixed[k / 2] = 1.0;
  sets.push_back(mixed);
  std::vector<double> integers(k);
  for (std::size_t i = 0; i < k; ++i)  // the last one is >= 1
    integers[i] = static_cast<double>(rng.next_below(4) + (i + 1 == k));
  sets.push_back(integers);
  return sets;
}

// Runs the kernel over one lane per (weights, n, seed) and expects each
// lane's counts (which start at 3: the kernel adds) and final stream state
// to match `draw` run n times on a fresh stream of the same seed.
struct Lane {
  std::vector<double> weights;
  std::size_t n = 0;
  std::uint64_t seed = 0;
};

template <typename Draw>
void expect_kernel_matches(const std::vector<Lane>& lanes, Draw draw,
                           const std::string& what) {
  const std::size_t k = lanes[0].weights.size();
  std::vector<Rng> ref, bulk;
  std::vector<std::vector<std::uint32_t>> want, got;
  for (const Lane& lane : lanes) {
    ref.emplace_back(lane.seed);
    bulk.emplace_back(lane.seed);
    want.emplace_back(k, 3);
    got.emplace_back(k, 3);
  }
  std::vector<CategoricalStream> streams;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    for (std::size_t d = 0; d < lanes[l].n; ++d)
      ++want[l][draw(ref[l], lanes[l])];
    streams.push_back({&bulk[l], lanes[l].weights, lanes[l].n, got[l]});
  }
  categorical_counts(streams);
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    EXPECT_EQ(want[l], got[l]) << what << " lane " << l;
    EXPECT_EQ(ref[l].next_u64(), bulk[l].next_u64()) << what << " lane " << l;
  }
}

TEST(Rng, CategoricalCountsMatchesCategoricalLoop) {
  // Every lane count from 1 to 8, every k, and draw counts mixed within a
  // call; rotating r puts every n (and every weight set) in every lane.
  // k = 300 grows the kernel's scratch well past the partition's chains.
  const std::array<std::size_t, 6> ns = {0, 1, 7, 8, 9, 200};
  const auto categorical_draw = [](Rng& rng, const Lane& lane) {
    return categorical_reference(rng, lane.weights);
  };
  Rng weights_rng(29);
  std::uint64_t seed = 1;
  for (const std::size_t k : {1, 2, 3, 8, 10, 17, 300}) {
    const std::vector<std::vector<double>> sets =
        categorical_weight_sets(k, weights_rng);
    for (std::size_t lanes = 1; lanes <= kCategoricalLanes; ++lanes) {
      for (std::size_t r = 0; r < ns.size(); ++r) {
        std::vector<Lane> call;
        for (std::size_t l = 0; l < lanes; ++l) {
          const std::vector<double>& w = sets[(l + r) % sets.size()];
          call.push_back({w, ns[(l + r) % ns.size()], ++seed});
        }
        expect_kernel_matches(call, categorical_draw,
                              "k " + std::to_string(k) + " lanes " +
                                  std::to_string(lanes) + " r " +
                                  std::to_string(r));
      }
    }
  }
}

TEST(Rng, CategoricalLanesMatchTheChainOnBoundaryValues) {
  // Values a stream almost never draws: u landing exactly on a prefix sum
  // (u - w == 0 is not negative, so the chain goes on through zero weights
  // until a positive one). The lanes take integer weights that sum to 2^53,
  // so u = (x >> 11) * 2^-53 * 2^53 is the integer m = x >> 11 exactly, and
  // their weights are built around the stream's first m. NaN and +-0 totals
  // cannot reach a lane: categorical_total() rejects them.
  const auto chain_draw = [](Rng& rng, const Lane& lane) {
    return categorical_chain_reference(
        rng.next_double() * categorical_total(lane.weights), lane.weights);
  };
  const double two53 = 0x1.0p53;
  const auto first_m = [](std::uint64_t seed) {
    Rng peek(seed);
    return static_cast<double>(peek.next_u64() >> 11);
  };
  // Integer weights in [0, 2^53) whose last entry brings the sum to 2^53.
  const auto to_two53 = [&](std::vector<double> w) {
    double rest = two53;
    for (const double v : w) rest -= v;
    w.push_back(rest);
    return w;
  };
  std::array<double, 10> m{};
  for (std::uint64_t seed = 1; seed < m.size(); ++seed) {
    m[seed] = first_m(seed);
    ASSERT_GE(m[seed], 2.0);
  }
  std::vector<Lane> call = {
      {to_two53({m[1], 0.0, 1.0, 0.0, 0.0}), 9, 1},
      {to_two53({0.0, m[2], 0.0, 0.0, 1.0}), 3, 2},
      {to_two53({m[3] - 2.0, 1.0, 1.0, 0.0, 0.0}), 2, 3},
      {to_two53({0.0, 0.0, m[4], 0.0, 0.0}), 8, 4},
      {to_two53({m[5], 0.0, 1.0, 0.0, 0.0}), 1, 5},
      {to_two53({m[6] - 1.0, 1.0, 0.0, 0.0, 1.0}), 9, 6},
      {to_two53({0.0, 0.0, 0.0, 0.0, m[7]}), 200, 7},
      {to_two53({m[8], 1.0, 0.0, 0.0, 0.0}), 7, 8},
  };
  for (const Lane& lane : call) {
    ASSERT_EQ(categorical_total(lane.weights), two53);
    EXPECT_EQ(first_m(lane.seed) * 0x1.0p-53 * two53, first_m(lane.seed));
  }
  expect_kernel_matches(call, chain_draw, "boundary");
  // The first draws' indices, by hand.
  const auto first_index = [&](const Lane& lane) {
    Rng rng(lane.seed);
    return chain_draw(rng, lane);
  };
  const std::array<std::size_t, 8> want = {2, 4, 5, 5, 2, 4, 5, 1};
  for (std::size_t l = 0; l < call.size(); ++l)
    EXPECT_EQ(first_index(call[l]), want[l]) << "lane " << l;
  // A ninth boundary lane runs alone, as a lone client does.
  expect_kernel_matches({{to_two53({0.0, m[9], 0.0, 0.0, 0.0}), 8, 9}},
                        chain_draw, "lone");
}

// ---- Bulk normals (Rng::add_normals and its 8-lane kernel) ----------------

// The loop add_normals must reproduce, value for value.
void add_normals_reference(Rng& rng, std::span<const float> base,
                           double scale, std::span<float> out) {
  for (std::size_t d = 0; d < out.size(); ++d)
    out[d] = base[d] + static_cast<float>(rng.normal() * scale);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bytes(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

double relative_error(double got, double want) {
  if (same_bits(got, want)) return 0.0;
  return std::abs(got - want) / std::abs(want);
}

TEST(RngAddNormals, MatchesScalarLoopBytewiseWithFinalState) {
  constexpr std::array<std::size_t, 10> kSizes = {0, 1, 2, 7, 8, 9,
                                                  16, 17, 33, 768};
  constexpr std::array<double, 3> kScales = {1.0, 1.4, 1.8};
  std::size_t pairs = 0;
  for (std::uint64_t seed = 1; pairs < 1000000; ++seed) {
    for (const std::size_t n : kSizes) {
      std::vector<float> base(n), want(n), got(n);
      Rng base_rng(seed * 7919 + n);
      for (auto& v : base) v = static_cast<float>(base_rng.normal());
      for (const bool cached : {false, true}) {
        for (const double scale : kScales) {
          Rng ref(seed), bulk(seed);
          if (cached) {  // enter holding the sin half of a pair
            (void)ref.normal();
            (void)bulk.normal();
          }
          add_normals_reference(ref, base, scale, want);
          bulk.add_normals(base, scale, got);
          const std::string where = "seed " + std::to_string(seed) + " n " +
                                    std::to_string(n) + " cached " +
                                    std::to_string(cached) + " scale " +
                                    std::to_string(scale);
          ASSERT_TRUE(same_bytes(want, got)) << where;
          // Same cached half-pair (or none) and same stream position.
          for (int k = 0; k < 3; ++k)
            ASSERT_TRUE(same_bits(ref.normal(), bulk.normal())) << where;
          ASSERT_EQ(ref.next_u64(), bulk.next_u64()) << where;
          pairs += (n + 1) / 2;
        }
      }
    }
  }
}

TEST(RngAddNormals, ConsecutiveCallsContinueTheStream) {
  // Odd lengths hand the cached sin half from one call to the next.
  Rng ref(77), bulk(77);
  const std::vector<float> base(64, 0.25f);
  std::vector<float> want(64), got(64);
  std::size_t at = 0;
  for (const std::size_t n : {3, 1, 17, 0, 9, 2, 31, 1}) {
    add_normals_reference(ref, std::span(base).first(n), 1.4,
                          std::span(want).subspan(at, n));
    bulk.add_normals(std::span(base).first(n), 1.4,
                     std::span(got).subspan(at, n));
    at += n;
  }
  EXPECT_TRUE(same_bytes(std::span(want).first(at), std::span(got).first(at)));
  EXPECT_TRUE(same_bits(ref.normal(), bulk.normal()));
  EXPECT_EQ(ref.next_u64(), bulk.next_u64());
}

// The fast path's error must stay far inside the 2^-36 rounding-test band
// (at least 10 bits), including where libm is hardest to match: u1 near 0
// and 1, and θ = 2π·u2 near multiples of π/4 (cos or sin near zero exposes
// any error in the π/2 reduction constants).
TEST(RngAddNormals, FastPathErrorFarInsideTheBand) {
  std::vector<double> u1s;
  for (const double j : {1.0, 2.0, 3.0, 5.0, 1000.0, 1048576.0}) {
    u1s.push_back(j * 0x1p-53);
    u1s.push_back(1.0 - j * 0x1p-53);
  }
  for (const int k : {1, 2, 3, 10, 30, 52, 53})
    u1s.push_back(std::ldexp(1.0, -k));
  u1s.push_back(0x1.6a09e667f3bcdp-1);  // √½, the mantissa split point
  u1s.push_back(std::nextafter(0x1.6a09e667f3bcdp-1, 0.0));

  std::vector<double> u2s;
  for (int k = 0; k <= 8; ++k) {
    double up = k / 8.0, down = k / 8.0;
    for (int d = 0; d <= 2000; ++d) {
      if (k == 0) {
        u2s.push_back(d * 0x1p-53);  // next_double()'s grid near 0
        continue;
      }
      if (k < 8) u2s.push_back(up);
      if (d > 0) u2s.push_back(down);
      up = std::nextafter(up, 2.0);
      down = std::nextafter(down, -1.0);
    }
  }
  double worst = 0.0;
  std::array<double, detail::kNormalLanes> u1{}, u2{}, c{}, s{};
  std::size_t lane = 0;
  const auto check = [&](double a, double b) {
    u1[lane] = a;
    u2[lane] = b;
    if (++lane < detail::kNormalLanes) return;
    lane = 0;
    detail::box_muller_fast(u1, u2, c, s);
    for (std::size_t p = 0; p < detail::kNormalLanes; ++p) {
      const detail::NormalPair ref = detail::box_muller(u1[p], u2[p]);
      worst = std::max({worst, relative_error(c[p], ref.cos_half),
                        relative_error(s[p], ref.sin_half)});
    }
  };
  for (const double a : u1s)
    for (const double b : u2s) check(a, b);
  Rng rng(2718);
  for (int i = 0; i < 1 << 17; ++i) {
    double a = rng.next_double();
    while (a <= 1e-300) a = rng.next_double();
    check(a, rng.next_double());
  }
  EXPECT_LE(worst, 0x1p-46) << "log2(max rel err) = " << std::log2(worst);
}

// Pairs whose scaled value lies close to a float rounding midpoint cannot
// be decided by the fast path; they must take the fallback and still match
// the reference loop exactly.
TEST(RngAddNormals, NearMidpointPairsTakeTheFallback) {
  constexpr double kScale = 1.4;
  constexpr double kHalfBand = 0x1p-37;
  const auto ambiguous = [&](double v) {
    const double y = v * kScale;
    return static_cast<float>(y - kHalfBand * std::abs(y)) !=
           static_cast<float>(y + kHalfBand * std::abs(y));
  };
  std::vector<std::pair<double, double>> found;
  Rng rng(31337);
  std::size_t searched = 0;
  while (found.size() < 64) {
    const double u1 = rng.next_double(), u2 = rng.next_double();
    ++searched;
    if (u1 <= 0.0) continue;
    const detail::NormalPair ref = detail::box_muller(u1, u2);
    if (ambiguous(ref.cos_half) || ambiguous(ref.sin_half))
      found.emplace_back(u1, u2);
  }
  // Roughly 2^-11 of pairs: the search is not accidentally degenerate.
  EXPECT_LT(searched, std::size_t{2000000});

  std::vector<float> base(2 * detail::kNormalLanes);
  for (std::size_t i = 0; i < base.size(); ++i)
    base[i] = 0.125f * static_cast<float>(i);
  for (std::size_t first = 0; first < found.size();
       first += detail::kNormalLanes) {
    for (const std::size_t pairs : {detail::kNormalLanes, std::size_t{3}}) {
      std::array<double, detail::kNormalLanes> u1{}, u2{};
      std::vector<float> want(2 * pairs), got(2 * pairs);
      for (std::size_t p = 0; p < detail::kNormalLanes; ++p) {
        u1[p] = found[first + p].first;
        u2[p] = found[first + p].second;
      }
      for (std::size_t p = 0; p < pairs; ++p) {
        const detail::NormalPair ref = detail::box_muller(u1[p], u2[p]);
        want[2 * p] = base[2 * p] + static_cast<float>(ref.cos_half * kScale);
        want[2 * p + 1] =
            base[2 * p + 1] + static_cast<float>(ref.sin_half * kScale);
      }
      EXPECT_EQ(detail::add_normal_pairs(u1, u2, pairs, kScale, base.data(),
                                         got.data()),
                pairs);
      EXPECT_TRUE(same_bytes(want, got));
    }
  }

  // Random pairs rarely fall back (the kernel's fast path is the norm).
  std::size_t fallbacks = 0, total = 0;
  std::array<double, detail::kNormalLanes> u1{}, u2{};
  std::vector<float> out(2 * detail::kNormalLanes);
  for (int call = 0; call < 20000; ++call) {
    for (std::size_t p = 0; p < detail::kNormalLanes; ++p) {
      u1[p] = rng.next_double();
      while (u1[p] <= 1e-300) u1[p] = rng.next_double();
      u2[p] = rng.next_double();
    }
    fallbacks += detail::add_normal_pairs(u1, u2, detail::kNormalLanes,
                                          kScale, base.data(), out.data());
    total += detail::kNormalLanes;
  }
  EXPECT_LT(static_cast<double>(fallbacks) / static_cast<double>(total),
            0.005);
}

}  // namespace
}  // namespace groupfel::runtime
