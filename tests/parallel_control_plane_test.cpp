// Parallel control plane: bit-identity gates for every parallelized stage.
//
// The contract under test (docs/DEVELOPMENT.md "Parallel control plane"):
// each stage — descriptor partition, label-matrix build, parallel-windows
// greedy, CDG bucketing, Eq. 34 sampling reduction — must produce
// BIT-identical output for any ThreadPool size, including none.
// Randomness is keyed by logical index (client / window), never thread
// identity, and float reductions have a fixed block shape, so pools of
// 0 (nullptr), 2, and 24 threads are interchangeable.
//
// Also gated here: the CoVG greedy, whose candidate lanes mask taken slots
// and compact them in batches, must stay byte-identical to the erase-based
// greedy (reference implementations embedded below, KLDG's too), and the
// per-window RNG streams of the windowed greedy must be independent of
// window execution order.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "data/client_data.hpp"
#include "data/client_descriptor.hpp"
#include "data/label_matrix.hpp"
#include "grouping/cov_scan.hpp"
#include "grouping/grouping.hpp"
#include "runtime/thread_pool.hpp"
#include "sampling/sampler.hpp"
#include "util/stats.hpp"

namespace groupfel {
namespace {

/// Runs `body(pool)` with no pool and with 2- and 24-thread pools. The
/// body compares its pooled result against a serial baseline.
template <typename Body>
void for_each_pool(Body&& body) {
  body(nullptr);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{24}}) {
    runtime::ThreadPool pool(threads);
    body(&pool);
  }
}

data::PartitionSpec partition_spec(std::size_t clients) {
  data::PartitionSpec part;
  part.num_clients = clients;
  part.alpha = 0.1;
  part.size_mean = 40.0;
  part.size_std = 15.0;
  part.size_min = 10;
  part.size_max = 80;
  return part;
}

data::ClientPopulation make_population(std::size_t clients,
                                       std::uint64_t seed = 11,
                                       runtime::ThreadPool* pool = nullptr) {
  runtime::Rng rng(seed);
  return data::descriptor_partition(partition_spec(clients), 10, rng, pool);
}

/// Label matrix from a (serial) descriptor partition — the fleet-scale path.
data::LabelMatrix make_matrix(std::size_t clients, std::uint64_t seed = 11) {
  return data::LabelMatrix::from_population(
      std::make_shared<const data::ClientPopulation>(
          make_population(clients, seed)));
}

/// Counts spread over the whole 32-bit range: every row carries a count near
/// 2^32 - 1, so any consumer that summed rows in 32 bits would wrap where
/// the size_t references below do not. Group sums stay far below 2^53, so
/// the lane scan's doubles are still exact.
data::LabelMatrix wide_matrix(std::size_t clients, std::uint64_t seed) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint32_t>::max();
  runtime::Rng rng(seed);
  std::vector<std::vector<data::LabelMatrix::Count>> rows(
      clients, std::vector<data::LabelMatrix::Count>(10, 0));
  for (auto& row : rows) {
    const std::size_t big = rng.next_below(10);
    row[big] =
        static_cast<data::LabelMatrix::Count>(kMax - rng.next_below(1000));
    row[(big + 1 + rng.next_below(9)) % 10] =
        static_cast<data::LabelMatrix::Count>(rng.next_below(1u << 20));
  }
  return data::LabelMatrix(rows, 10);
}

/// Rows that are k × one of two fixed histograms (k in 1..12): a group built
/// from them plus any candidate of the same histogram has exactly the same
/// CoV at different totals, so float rounding alone picks the first minimum.
data::LabelMatrix proportional_matrix(std::size_t clients,
                                      std::uint64_t seed) {
  const std::vector<std::vector<data::LabelMatrix::Count>> bases = {
      {3, 1, 0, 2, 0, 0, 5, 0, 1, 0}, {1, 1, 1, 1, 1, 1, 1, 1, 1, 4}};
  runtime::Rng rng(seed);
  std::vector<std::vector<data::LabelMatrix::Count>> rows(clients);
  for (auto& row : rows) {
    row = bases[rng.next_below(bases.size())];
    const auto k = static_cast<data::LabelMatrix::Count>(1 + rng.next_below(12));
    for (auto& c : row) c *= k;
  }
  return data::LabelMatrix(rows, 10);
}

/// Rows at or one count away from balanced, (c, ..., c) plus or minus one
/// on a label: many candidates give an exact CoV of 0, and their neighbours
/// a CoV near 0 whose T/m is inexact.
data::LabelMatrix balanced_matrix(std::size_t clients, std::uint64_t seed) {
  runtime::Rng rng(seed);
  std::vector<std::vector<data::LabelMatrix::Count>> rows(clients);
  for (auto& row : rows) {
    row.assign(10, static_cast<data::LabelMatrix::Count>(1 + rng.next_below(20)));
    switch (rng.next_below(3)) {
      case 0: ++row[rng.next_below(10)]; break;
      case 1: --row[rng.next_below(10)]; break;
      default: break;
    }
  }
  return data::LabelMatrix(rows, 10);
}

bool same_population(const data::ClientPopulation& a,
                     const data::ClientPopulation& b) {
  if (a.num_clients() != b.num_clients() ||
      a.num_classes() != b.num_classes())
    return false;
  for (std::size_t c = 0; c < a.num_clients(); ++c) {
    if (a.data_count(c) != b.data_count(c) || a.seed(c) != b.seed(c))
      return false;
    const auto ra = a.label_counts(c), rb = b.label_counts(c);
    for (std::size_t j = 0; j < ra.size(); ++j)
      if (ra[j] != rb[j]) return false;
  }
  return true;
}

// ---- Stage 1: descriptor partition ---------------------------------------

TEST(ParallelPartition, BitIdenticalAcrossPools) {
  // 5000 clients = 5 partition blocks of 1024.
  const data::ClientPopulation serial = make_population(5000);
  for_each_pool([&](runtime::ThreadPool* pool) {
    const data::ClientPopulation pooled = make_population(5000, 11, pool);
    EXPECT_TRUE(same_population(serial, pooled));
  });
}

/// A verbatim per-client reference of the §7.2 protocol, one scalar draw at
/// a time: fork(i), the clamped normal size, dirichlet(alpha),
/// ++row[categorical(props)] x size, then next_u64() for the seed.
data::ClientPopulation reference_partition(const data::PartitionSpec& spec,
                                           std::size_t num_classes,
                                           const runtime::Rng& rng) {
  data::ClientPopulation pop(spec.num_clients, num_classes);
  for (std::size_t i = 0; i < spec.num_clients; ++i) {
    runtime::Rng crng = rng.fork(i);
    const double draw = crng.normal(spec.size_mean, spec.size_std);
    const auto size = static_cast<std::size_t>(
        std::clamp(static_cast<long long>(std::llround(draw)),
                   static_cast<long long>(spec.size_min),
                   static_cast<long long>(spec.size_max)));
    pop.set_data_count(i, size);
    const std::vector<double> props = crng.dirichlet(spec.alpha, num_classes);
    auto row = pop.label_counts_mutable(i);
    for (std::size_t s = 0; s < size; ++s) ++row[crng.categorical(props)];
    pop.set_seed(i, crng.next_u64());
  }
  return pop;
}

TEST(ParallelPartition, MatchesPerClientReference) {
  // 5003 clients: four full 1024-client blocks, then 907 = 113 groups of
  // eight and a last group of three. size_std > 0 spreads the sizes from
  // size_min to size_max, so lanes in one group drop out at different steps.
  for (const double alpha : {0.05, 0.5}) {
    data::PartitionSpec spec = partition_spec(5003);
    spec.alpha = alpha;
    spec.size_mean = 110.0;
    spec.size_std = 45.0;
    spec.size_min = 20;
    spec.size_max = 200;
    const runtime::Rng root(23);
    const data::ClientPopulation want = reference_partition(spec, 10, root);
    for_each_pool([&](runtime::ThreadPool* pool) {
      runtime::Rng rng = root;
      EXPECT_TRUE(same_population(
          want, data::descriptor_partition(spec, 10, rng, pool)))
          << "alpha " << alpha;
    });
  }
}

// ---- Stage 2: label matrix ------------------------------------------------

TEST(ParallelLabelMatrix, BitIdenticalAcrossPools) {
  // The store's matrix is the descriptor table for any pool: every row is
  // the population's own histogram, at the population's own address.
  const data::ClientPopulation pop = make_population(9000);
  const data::ClientDataStore store =
      data::ClientDataStore::resident({}, pop);
  const data::ClientPopulation& table = *store.population();
  for_each_pool([&](runtime::ThreadPool* pool) {
    const data::LabelMatrix matrix = store.label_matrix(pool);
    ASSERT_EQ(matrix.num_clients(), pop.num_clients());
    ASSERT_EQ(matrix.num_labels(), pop.num_classes());
    for (std::size_t c = 0; c < pop.num_clients(); ++c)
      ASSERT_EQ(matrix.row(c).data(), table.label_counts(c).data());
  });
}

// ---- Stage 3: grouping ----------------------------------------------------

// The windowed greedy (one stream per window) must be bit-identical for any
// pool. Each test runs a Dirichlet matrix and one with 32-bit-wide counts;
// the CoVG test adds the exact-tie and near-balanced matrices of the
// candidate scan.
TEST(ParallelWindows, CovBitIdenticalAcrossPools) {
  for (const data::LabelMatrix& matrix :
       {make_matrix(600), wide_matrix(600, 31), proportional_matrix(600, 33),
        balanced_matrix(600, 35)}) {
    grouping::GroupingParams params;
    params.min_group_size = 8;
    params.greedy_window = 64;
    runtime::Rng base(5);
    const grouping::Grouping serial =
        grouping::cov_grouping(matrix, params, base, nullptr);
    grouping::validate_partition(serial, matrix.num_clients());
    for_each_pool([&](runtime::ThreadPool* pool) {
      runtime::Rng rng(5);
      EXPECT_EQ(serial, grouping::cov_grouping(matrix, params, rng, pool));
    });
  }
}

TEST(ParallelWindows, KldgBitIdenticalAcrossPools) {
  for (const data::LabelMatrix& matrix :
       {make_matrix(300), wide_matrix(300, 37)}) {
    grouping::GroupingParams params;
    params.min_group_size = 6;
    params.greedy_window = 48;
    runtime::Rng base(9);
    const grouping::Grouping serial =
        grouping::kldg_grouping(matrix, params, base, nullptr);
    grouping::validate_partition(serial, matrix.num_clients());
    for_each_pool([&](runtime::ThreadPool* pool) {
      runtime::Rng rng(9);
      EXPECT_EQ(serial, grouping::kldg_grouping(matrix, params, rng, pool));
    });
  }
}

TEST(ParallelCdg, BitIdenticalAcrossPools) {
  // 5000 clients > one 4096 block, so the k-means assignment, centroid
  // reduction, and counting-sort bucketing all run multi-block.
  const data::LabelMatrix matrix = make_matrix(5000, 23);
  grouping::GroupingParams params;
  params.min_group_size = 50;
  runtime::Rng base(13);
  const grouping::Grouping serial =
      grouping::cdg_grouping(matrix, params, base, nullptr);
  grouping::validate_partition(serial, matrix.num_clients());
  for_each_pool([&](runtime::ThreadPool* pool) {
    runtime::Rng rng(13);
    EXPECT_EQ(serial, grouping::cdg_grouping(matrix, params, rng, pool));
  });
}

TEST(ParallelWindows, StreamsIndependentOfExecutionOrder) {
  // Each window's RNG stream is rng.fork(window_index) off the post-shuffle
  // state, and fork is const — so running the windows in ANY order must
  // give the same groups. Replicate the windowed pipeline by hand, windows
  // in reverse, via submatrices + the classic whole-pool greedy.
  const data::LabelMatrix matrix = make_matrix(200, 31);
  grouping::GroupingParams params;
  params.min_group_size = 7;
  params.greedy_window = 50;
  runtime::Rng rng(77);
  const grouping::Grouping expected =
      grouping::cov_grouping(matrix, params, rng, nullptr);

  runtime::Rng replay(77);
  std::vector<std::size_t> order(matrix.num_clients());
  std::iota(order.begin(), order.end(), std::size_t{0});
  replay.shuffle(order);
  const std::size_t w = params.greedy_window;
  const std::size_t num_windows = (order.size() + w - 1) / w;
  std::vector<grouping::Grouping> per_window(num_windows);
  for (std::size_t i = num_windows; i-- > 0;) {  // reverse execution order
    const std::size_t start = i * w;
    const std::size_t end = std::min(order.size(), start + w);
    const std::vector<std::size_t> items(
        order.begin() + static_cast<std::ptrdiff_t>(start),
        order.begin() + static_cast<std::ptrdiff_t>(end));
    grouping::GroupingParams classic = params;
    classic.greedy_window = 0;
    runtime::Rng wrng = replay.fork(i);
    grouping::Grouping local = grouping::cov_grouping(
        matrix.submatrix(items), classic, wrng, nullptr);
    for (auto& group : local)
      for (auto& member : group) member = items[member];
    per_window[i] = std::move(local);
  }
  grouping::Grouping assembled;
  for (auto& wg : per_window)
    for (auto& g : wg) assembled.push_back(std::move(g));
  EXPECT_EQ(expected, assembled);
}

// ---- Stage 4: Eq. 34 sampling ------------------------------------------

TEST(ParallelSampling, ProbabilitiesBitIdenticalAcrossPools) {
  // 5000 groups = 3 blocks of 2048: the blocked Kahan tree reduction runs
  // multi-block in every weight mode.
  runtime::Rng rng(41);
  std::vector<double> covs(5000);
  for (double& c : covs) c = 0.01 + 1.99 * rng.next_double();
  for (const auto method :
       {sampling::SamplingMethod::kRandom, sampling::SamplingMethod::kRCov,
        sampling::SamplingMethod::kSRCov, sampling::SamplingMethod::kESRCov}) {
    std::vector<double> serial;
    sampling::sampling_probabilities_into(method, covs, serial);
    for_each_pool([&](runtime::ThreadPool* pool) {
      std::vector<double> pooled;
      sampling::sampling_probabilities_into(
          method, covs, pooled, sampling::kDefaultCovFloor, pool);
      ASSERT_EQ(serial.size(), pooled.size());
      for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], pooled[i]) << "method/group "
                                        << static_cast<int>(method) << "/"
                                        << i;
    });
  }
}

// ---- Production greedy vs the erase-based greedy ---------------------------
//
// Reference implementations: the erase-based greedy (O(n) vector::erase per
// admission, one scalar CoV per candidate). The production greedy must stay
// BYTE-identical to these — same candidate visit order, same first-minimum
// tie-breaking, and for CoVG, whose lanes take slots by tombstoning and
// compaction, the same bits per candidate from its lane scan — in the
// classic and windowed modes.

/// Copy of the scalar IncrementalCov (add, value, value_with verbatim), so
/// the CoV oracle does not share code with src/.
class ReferenceIncrementalCov {
 public:
  explicit ReferenceIncrementalCov(std::size_t num_labels)
      : counts_(num_labels, 0) {}

  void add(std::span<const data::LabelMatrix::Count> client_counts) {
    for (std::size_t j = 0; j < counts_.size(); ++j)
      counts_[j] += client_counts[j];
  }

  [[nodiscard]] double value() const {
    std::size_t total = 0;
    for (auto c : counts_) total += c;
    if (total == 0) return 0.0;
    const double m = static_cast<double>(counts_.size());
    const double sigma = std::sqrt(squared_deviation_sum(total) / m);
    const double mu = static_cast<double>(total) / m;
    return sigma / mu;
  }

  [[nodiscard]] double value_with(
      std::span<const data::LabelMatrix::Count> client_counts) const {
    const double m = static_cast<double>(counts_.size());
    double combined_total = 0.0;
    double s = 0.0;
    std::size_t total = 0;
    for (std::size_t j = 0; j < counts_.size(); ++j)
      total += counts_[j] + client_counts[j];
    if (total == 0) return 0.0;
    combined_total = static_cast<double>(total);
    const double mu = combined_total / m;
    for (std::size_t j = 0; j < counts_.size(); ++j) {
      const double d = mu - static_cast<double>(counts_[j] + client_counts[j]);
      s += d * d;
    }
    return std::sqrt(s / m) / mu;
  }

 private:
  [[nodiscard]] double squared_deviation_sum(std::size_t total) const {
    const double mu =
        static_cast<double>(total) / static_cast<double>(counts_.size());
    double s = 0.0;
    for (auto c : counts_) {
      const double d = mu - static_cast<double>(c);
      s += d * d;
    }
    return s;
  }

  std::vector<std::size_t> counts_;
};

void reference_cov_greedy(const data::LabelMatrix& matrix,
                          const grouping::GroupingParams& params,
                          runtime::Rng& rng, std::vector<std::size_t>& pool,
                          grouping::Grouping& groups) {
  while (!pool.empty()) {
    const std::size_t first_pos = rng.next_below(pool.size());
    std::vector<std::size_t> group{pool[first_pos]};
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(first_pos));

    ReferenceIncrementalCov inc(matrix.num_labels());
    inc.add(matrix.row(group[0]));

    while ((inc.value() > params.max_cov ||
            group.size() < params.min_group_size) &&
           !pool.empty()) {
      double best_cov = std::numeric_limits<double>::infinity();
      std::size_t best_pos = 0;
      for (std::size_t pos = 0; pos < pool.size(); ++pos) {
        const double c = inc.value_with(matrix.row(pool[pos]));
        if (c < best_cov) {
          best_cov = c;
          best_pos = pos;
        }
      }
      if (best_cov < inc.value() || group.size() < params.min_group_size) {
        inc.add(matrix.row(pool[best_pos]));
        group.push_back(pool[best_pos]);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best_pos));
      } else {
        break;
      }
    }
    groups.push_back(std::move(group));
  }
}

grouping::Grouping reference_cov_grouping(
    const data::LabelMatrix& matrix, const grouping::GroupingParams& params,
    runtime::Rng& rng) {
  const std::size_t n = matrix.num_clients();
  grouping::Grouping groups;
  std::vector<std::size_t> pool(n);
  std::iota(pool.begin(), pool.end(), std::size_t{0});

  const std::size_t window = params.greedy_window;
  if (window == 0 || n <= window) {
    reference_cov_greedy(matrix, params, rng, pool, groups);
    return groups;
  }
  rng.shuffle(pool);
  std::vector<std::size_t> window_pool;
  for (std::size_t start = 0; start < n; start += window) {
    const std::size_t end = std::min(n, start + window);
    window_pool.assign(pool.begin() + static_cast<std::ptrdiff_t>(start),
                       pool.begin() + static_cast<std::ptrdiff_t>(end));
    // One stream per window, forked from the post-shuffle state.
    runtime::Rng wrng = rng.fork(start / window);
    reference_cov_greedy(matrix, params, wrng, window_pool, groups);
  }
  return groups;
}

/// Rows drawn from a few fixed histograms, one of them all zero: the lane
/// scan meets exact ties (its argmin must keep the first) and groups whose
/// combined total is 0 (the T = 0 branch).
data::LabelMatrix tie_matrix(std::size_t clients, std::uint64_t seed) {
  const std::vector<std::vector<data::LabelMatrix::Count>> patterns = {
      {0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, {5, 0, 0, 0, 0, 0, 0, 0, 0, 0},
      {0, 5, 0, 0, 0, 0, 0, 0, 0, 0}, {2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
      {0, 0, 9, 1, 0, 0, 0, 0, 0, 0}, {1, 0, 0, 0, 0, 0, 0, 0, 0, 3}};
  runtime::Rng rng(seed);
  std::vector<std::vector<data::LabelMatrix::Count>> rows(clients);
  for (auto& row : rows) row = patterns[rng.next_below(patterns.size())];
  return data::LabelMatrix(rows, 10);
}

// The candidate scan ranks on an exact integer key and re-scores only a
// band around the minimum; its slot and CoV bits must equal the scalar
// first-minimum scan over value_with on any group state, including exact
// ties, exact zeros, a group with total 0 (tie_matrix's zero rows), taken
// and compacted slots, and the fallback for counts near 2^32 (wide_matrix).
// The lanes own the candidate set, so a vector that erases each taken id
// mirrors them: after every take, across several compactions, the live
// slots must hold the mirror's ids in the mirror's order.
TEST(CovScan, ArgminMatchesScalarFirstMinimum) {
  const std::vector<std::pair<std::string, data::LabelMatrix>> matrices = {
      {"dirichlet", make_matrix(300, 7)},
      {"proportional rows", proportional_matrix(300, 8)},
      {"balanced rows", balanced_matrix(300, 9)},
      {"ties and zero rows", tie_matrix(300, 10)},
      {"32-bit-wide counts", wide_matrix(120, 11)}};
  for (const auto& [name, matrix] : matrices) {
    runtime::Rng rng(21);
    const std::size_t n = matrix.num_clients();
    for (std::size_t trial = 0; trial < 60; ++trial) {
      std::vector<std::size_t> mirror(n);
      std::iota(mirror.begin(), mirror.end(), std::size_t{0});
      rng.shuffle(mirror);
      mirror.resize(1 + rng.next_below(n));
      grouping::CovCandidateLanes lanes(matrix, mirror);
      // Take a random share of the candidates, as the greedy's opener does.
      const std::size_t takes = rng.next_below(mirror.size());
      for (std::size_t r = 0; r < takes; ++r) {
        const std::size_t pos = rng.next_below(lanes.size());
        const std::size_t slot = lanes.nth_live_slot(pos);
        ASSERT_EQ(lanes.client(slot), mirror[pos]) << name << " trial " << trial;
        lanes.take(slot);
        mirror.erase(mirror.begin() + static_cast<std::ptrdiff_t>(pos));
        ASSERT_EQ(lanes.size(), mirror.size());
        for (std::size_t p = 0; p < mirror.size(); ++p)
          ASSERT_EQ(lanes.client(lanes.nth_live_slot(p)), mirror[p])
              << name << " trial " << trial << " take " << r << " pos " << p;
      }
      // A group of 1..40 random rows.
      grouping::IncrementalCov group(matrix.num_labels());
      const std::size_t members = 1 + rng.next_below(40);
      for (std::size_t i = 0; i < members; ++i)
        group.add(matrix.row(rng.next_below(n)));

      double want_cov = std::numeric_limits<double>::infinity();
      std::size_t want_pos = 0;
      for (std::size_t pos = 0; pos < mirror.size(); ++pos) {
        const double c = group.value_with(matrix.row(mirror[pos]));
        if (c < want_cov) {
          want_cov = c;
          want_pos = pos;
        }
      }
      const grouping::CovCandidateLanes::Best got =
          lanes.argmin(group.counts(), group.total());
      ASSERT_EQ(got.slot, lanes.nth_live_slot(want_pos))
          << name << " trial " << trial;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.cov),
                std::bit_cast<std::uint64_t>(want_cov))
          << name << " trial " << trial << ": " << got.cov << " vs "
          << want_cov;
    }
  }
}

double reference_group_kld(const data::LabelMatrix& matrix,
                           const std::vector<std::size_t>& group,
                           std::size_t extra_client,
                           const std::vector<double>& global_dist,
                           std::vector<double>& counts) {
  counts.assign(matrix.num_labels(), 0.0);
  for (auto c : group) {
    const auto row = matrix.row(c);
    for (std::size_t j = 0; j < counts.size(); ++j)
      counts[j] += static_cast<double>(row[j]);
  }
  const auto row = matrix.row(extra_client);
  for (std::size_t j = 0; j < counts.size(); ++j)
    counts[j] += static_cast<double>(row[j]);
  return util::kl_divergence(counts, global_dist);
}

void reference_kldg_greedy(const data::LabelMatrix& matrix,
                           const grouping::GroupingParams& params,
                           runtime::Rng& rng,
                           const std::vector<double>& global_dist,
                           std::vector<std::size_t>& pool,
                           grouping::Grouping& groups) {
  std::vector<double> scratch;
  while (!pool.empty()) {
    const std::size_t first_pos = rng.next_below(pool.size());
    std::vector<std::size_t> group{pool[first_pos]};
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(first_pos));

    auto current_kld = [&] {
      scratch.assign(matrix.num_labels(), 0.0);
      for (auto c : group) {
        const auto row = matrix.row(c);
        for (std::size_t j = 0; j < scratch.size(); ++j)
          scratch[j] += static_cast<double>(row[j]);
      }
      return util::kl_divergence(scratch, global_dist);
    };

    while ((current_kld() > params.kld_threshold ||
            group.size() < params.min_group_size) &&
           !pool.empty()) {
      double best = std::numeric_limits<double>::infinity();
      std::size_t best_pos = 0;
      for (std::size_t pos = 0; pos < pool.size(); ++pos) {
        const double kld = reference_group_kld(matrix, group, pool[pos],
                                               global_dist, scratch);
        if (kld < best) {
          best = kld;
          best_pos = pos;
        }
      }
      if (best < current_kld() || group.size() < params.min_group_size) {
        group.push_back(pool[best_pos]);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best_pos));
      } else {
        break;
      }
    }
    groups.push_back(std::move(group));
  }
}

grouping::Grouping reference_kldg_grouping(
    const data::LabelMatrix& matrix, const grouping::GroupingParams& params,
    runtime::Rng& rng) {
  const std::size_t n = matrix.num_clients();
  const auto global_counts = matrix.global_counts();
  std::vector<double> global_dist(global_counts.size());
  for (std::size_t j = 0; j < global_counts.size(); ++j)
    global_dist[j] = static_cast<double>(global_counts[j]);

  grouping::Grouping groups;
  std::vector<std::size_t> pool(n);
  std::iota(pool.begin(), pool.end(), std::size_t{0});

  const std::size_t window = params.greedy_window;
  if (window == 0 || n <= window) {
    reference_kldg_greedy(matrix, params, rng, global_dist, pool, groups);
    return groups;
  }
  rng.shuffle(pool);
  std::vector<std::size_t> window_pool;
  for (std::size_t start = 0; start < n; start += window) {
    const std::size_t end = std::min(n, start + window);
    window_pool.assign(pool.begin() + static_cast<std::ptrdiff_t>(start),
                       pool.begin() + static_cast<std::ptrdiff_t>(end));
    runtime::Rng wrng = rng.fork(start / window);
    reference_kldg_greedy(matrix, params, wrng, global_dist, window_pool,
                          groups);
  }
  return groups;
}

TEST(TombstonePool, CovByteIdenticalToEraseBasedGreedy) {
  const std::vector<std::pair<std::string, data::LabelMatrix>> matrices = {
      {"dirichlet seed 3", make_matrix(160, 3)},
      {"dirichlet seed 17", make_matrix(160, 17)},
      {"ties and zero rows", tie_matrix(300, 5)},
      {"proportional rows", proportional_matrix(300, 6)},
      {"balanced rows", balanced_matrix(300, 12)},
      {"32-bit-wide counts", wide_matrix(160, 29)}};
  // Windows not divisible by the 8 scan lanes, one that is, and 0 (the
  // classic whole-pool greedy); 257 covers all 160 clients in one window.
  for (const auto& [name, matrix] : matrices) {
    for (const std::size_t window : {0, 13, 48, 257}) {
      // MinGS-bound groups, and small groups closed by the MaxCoV test.
      for (const auto& [min_size, max_cov] :
           {std::pair{std::size_t{6}, 1.0}, std::pair{std::size_t{2}, 0.3}}) {
        grouping::GroupingParams params;
        params.min_group_size = min_size;
        params.max_cov = max_cov;
        params.greedy_window = window;
        runtime::Rng a(window * 7 + 1), b(window * 7 + 1);
        EXPECT_EQ(reference_cov_grouping(matrix, params, a),
                  grouping::cov_grouping(matrix, params, b))
            << name << " window " << window << " MinGS " << min_size;
      }
    }
  }
}

TEST(TombstonePool, KldgByteIdenticalToEraseBasedGreedy) {
  for (const std::uint64_t seed : {3ull, 17ull, 29ull}) {
    // Seed 29 runs the 32-bit-wide counts.
    const data::LabelMatrix matrix =
        seed == 29 ? wide_matrix(120, seed) : make_matrix(120, seed);
    for (const std::size_t window : {std::size_t{0}, std::size_t{40}}) {
      grouping::GroupingParams params;
      params.min_group_size = 5;
      params.greedy_window = window;
      runtime::Rng a(seed * 9 + 2), b(seed * 9 + 2);
      EXPECT_EQ(reference_kldg_grouping(matrix, params, a),
                grouping::kldg_grouping(matrix, params, b))
          << "seed " << seed << " window " << window;
    }
  }
}

}  // namespace
}  // namespace groupfel
