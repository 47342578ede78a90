// Lazy client-state tests: deterministic per-sample regeneration, bit
// identity between the lazy and materialized-resident arms, pool-size
// invariance of descriptor-backed training, and the memory bound of a
// 100k-client lazy federation (the contracts the million-client engine is
// built on).
#include "data/lazy_shard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <thread>

#if defined(__linux__)
#include <sys/resource.h>
#endif

#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "data/client_data.hpp"
#include "data/client_descriptor.hpp"
#include "nn/tensor.hpp"
#include "runtime/thread_pool.hpp"

namespace groupfel::data {
namespace {

PartitionSpec small_partition() {
  PartitionSpec part;
  part.num_clients = 24;
  part.alpha = 0.5;
  part.size_mean = 30;
  part.size_std = 10;
  part.size_min = 10;
  part.size_max = 50;
  return part;
}

SyntheticSpec small_spec() {
  SyntheticSpec spec;
  spec.num_classes = 10;
  spec.sample_shape = {8};
  spec.label_noise = 0.1;
  spec.modes_per_class = 2;
  return spec;
}

LazyShardSource make_source(std::uint64_t seed = 17) {
  runtime::Rng rng(seed);
  const SyntheticSpec spec = small_spec();
  return {spec, descriptor_partition(small_partition(), spec.num_classes, rng)};
}

void expect_batches_equal(const DataSet::Batch& a, const DataSet::Batch& b) {
  ASSERT_EQ(a.labels, b.labels);
  ASSERT_EQ(a.features.data().size(), b.features.data().size());
  for (std::size_t i = 0; i < a.features.data().size(); ++i)
    ASSERT_EQ(a.features.data()[i], b.features.data()[i]) << "float " << i;
}

TEST(SampleStreamSeed, DistinctPerIndexAndDeterministic) {
  EXPECT_EQ(sample_stream_seed(42, 7), sample_stream_seed(42, 7));
  EXPECT_NE(sample_stream_seed(42, 7), sample_stream_seed(42, 8));
  EXPECT_NE(sample_stream_seed(42, 7), sample_stream_seed(43, 7));
}

TEST(LazyShardSource, RepeatedMaterializationBitIdentical) {
  const LazyShardSource source = make_source();
  for (std::size_t c = 0; c < source.num_clients(); c += 5) {
    const DataSet::Batch first = source.materialize_client(c);
    const DataSet::Batch second = source.materialize_client(c);
    expect_batches_equal(first, second);
  }
}

TEST(LazyShardSource, SameSeedSameClientAcrossSources) {
  // Two independently built sources from the same partition stream hold the
  // same descriptors, so every (seed, client) pair regenerates identically.
  const LazyShardSource a = make_source(99);
  const LazyShardSource b = make_source(99);
  for (std::size_t c = 0; c < a.num_clients(); ++c) {
    ASSERT_EQ(a.population().seed(c), b.population().seed(c));
    expect_batches_equal(a.materialize_client(c), b.materialize_client(c));
  }
}

TEST(LazyShardSource, BatchIntoMatchesAnyOrderAndSubset) {
  // Counter-based streams: positions can be materialized in any order and
  // any subset, matching the canonical full materialization entry-wise.
  const LazyShardSource source = make_source();
  const std::size_t c = 3;
  const DataSet::Batch full = source.materialize_client(c);
  const std::size_t dim = source.sample_size();

  std::vector<std::size_t> positions = {5, 0, 7, 2, 5};  // dup + shuffled
  DataSet::Batch out;
  source.batch_into(c, positions, out);
  ASSERT_EQ(out.labels.size(), positions.size());
  for (std::size_t row = 0; row < positions.size(); ++row) {
    const std::size_t j = positions[row];
    EXPECT_EQ(out.labels[row], full.labels[j]);
    for (std::size_t d = 0; d < dim; ++d)
      ASSERT_EQ(out.features.data()[row * dim + d],
                full.features.data()[j * dim + d]);
  }
}

TEST(LazyShardSource, MaterializedPopulationBitIdenticalToLazy) {
  const LazyShardSource source = make_source();
  const MaterializedPopulation mat = materialize_population(source);
  ASSERT_EQ(mat.shards.size(), source.num_clients());
  for (std::size_t c = 0; c < source.num_clients(); ++c) {
    std::vector<std::size_t> all(source.data_count(c));
    std::iota(all.begin(), all.end(), 0u);
    DataSet::Batch lazy, resident;
    source.batch_into(c, all, lazy);
    mat.shards[c].batch_into(all, resident);
    expect_batches_equal(lazy, resident);
  }
}

/// Clients of the given sizes over `classes` labels, each with a skewed
/// histogram and its own seed.
ClientPopulation sized_population(std::span<const std::size_t> sizes,
                                  std::size_t classes, std::uint64_t seed) {
  ClientPopulation pop(sizes.size(), classes);
  runtime::Rng rng(seed);
  for (std::size_t c = 0; c < sizes.size(); ++c) {
    const std::vector<double> props = rng.dirichlet(0.3, classes);
    const auto row = pop.label_counts_mutable(c);
    for (std::size_t j = 0; j < sizes[c]; ++j) ++row[rng.categorical(props)];
    pop.set_data_count(c, sizes[c]);
    pop.set_seed(c, rng.next_u64());
  }
  return pop;
}

/// Client c's samples through the scalar reference, one stream at a time.
DataSet::Batch scalar_client(const LazyShardSource& source, std::size_t c) {
  const ClientPopulation& pop = source.population();
  const std::vector<float> prototypes = make_prototypes(source.spec());
  const std::size_t dim = source.sample_size();
  DataSet::Batch out;
  prepare_batch(source.sample_shape(), pop.data_count(c), out);
  for (std::size_t j = 0; j < pop.data_count(c); ++j)
    out.labels[j] = synthesize_sample(
        source.spec(), prototypes, sample_stream_seed(pop.seed(c), j),
        pop.intended_class(c, j), out.features.raw() + j * dim);
  return out;
}

bool same_bytes(const DataSet::Batch& a, const DataSet::Batch& b) {
  return a.labels == b.labels &&
         a.features.size() == b.features.size() &&
         std::memcmp(a.features.raw(), b.features.raw(),
                     a.features.size() * sizeof(float)) == 0;
}

// The eight-lane synthesis (and batch_into's memo on top of it) must give
// every sample byte for byte as synthesize_sample() does: even and odd
// dims, one to three modes, with and without label noise, clients shorter
// than, equal to and longer than one lane group.
TEST(LazyShard, LaneSynthesisMatchesScalarSamples) {
  const std::vector<std::size_t> sizes = {1, 7, 8, 9, 200, 401};
  for (const std::size_t dim : {32, 40, 768, 75}) {
    for (const std::size_t modes : {1, 2, 3}) {
      for (const double noise : {0.0, 0.15}) {
        SyntheticSpec spec;
        spec.num_classes = 10;
        spec.sample_shape = {dim};
        spec.modes_per_class = modes;
        spec.label_noise = noise;
        spec.noise_scale = 1.4;
        const LazyShardSource source(
            spec, sized_population(sizes, spec.num_classes, dim * 7 + modes));
        const std::string where = "dim " + std::to_string(dim) + " modes " +
                                  std::to_string(modes) + " noise " +
                                  std::to_string(noise);
        for (std::size_t c = 0; c < sizes.size(); ++c) {
          const DataSet::Batch want = scalar_client(source, c);
          ASSERT_TRUE(same_bytes(source.materialize_client(c), want))
              << where << " client " << c;
          // Every position once, reversed, plus a repeat.
          std::vector<std::size_t> positions(sizes[c]);
          std::iota(positions.rbegin(), positions.rend(), std::size_t{0});
          positions.push_back(sizes[c] / 2);
          DataSet::Batch got;
          source.batch_into(c, positions, got);
          ASSERT_EQ(got.labels.size(), positions.size());
          for (std::size_t i = 0; i < positions.size(); ++i) {
            const std::size_t j = positions[i];
            ASSERT_EQ(got.labels[i], want.labels[j]) << where;
            ASSERT_EQ(std::memcmp(got.features.raw() + i * dim,
                                  want.features.raw() + j * dim,
                                  dim * sizeof(float)),
                      0)
                << where << " client " << c << " position " << j;
          }
          const std::vector<std::size_t> bad = {0, sizes[c]};
          EXPECT_THROW(source.batch_into(c, bad, got), std::out_of_range);
        }
      }
    }
  }
}

// The per-thread memo holds one client of one source: interleaving clients
// and sources on one thread must re-synthesize, never serve the other's rows.
TEST(LazyShardMemo, InterleavedClientsAndSourcesStayExact) {
  const LazyShardSource a = make_source(17);
  const LazyShardSource b = make_source(18);
  const std::vector<std::pair<const LazyShardSource*, std::size_t>> reads = {
      {&a, 3}, {&b, 3}, {&a, 3}, {&a, 4}, {&b, 4}, {&b, 3}, {&a, 4}, {&a, 3}};
  for (const auto& [source, c] : reads) {
    std::vector<std::size_t> all(source->data_count(c));
    std::iota(all.begin(), all.end(), std::size_t{0});
    DataSet::Batch got;
    source->batch_into(c, all, got);
    EXPECT_TRUE(same_bytes(got, scalar_client(*source, c)))
        << (source == &a ? "a" : "b") << " client " << c;
  }
}

// A source built where a destroyed one lived gets a new memo key, so the
// dead source's rows are never served for it.
TEST(LazyShardMemo, NewSourceAtFreedAddressGetsNoStaleRows) {
  std::optional<LazyShardSource> slot;
  slot.emplace(make_source(17));
  const LazyShardSource* first = &*slot;
  const std::size_t c = 5;
  std::vector<std::size_t> all(slot->data_count(c));
  std::iota(all.begin(), all.end(), std::size_t{0});
  DataSet::Batch old_rows;
  slot->batch_into(c, all, old_rows);  // fills this thread's memo

  slot.reset();
  slot.emplace(make_source(99));
  ASSERT_EQ(&*slot, first);
  all.resize(slot->data_count(c));
  std::iota(all.begin(), all.end(), std::size_t{0});
  DataSet::Batch got;
  slot->batch_into(c, all, got);
  const DataSet::Batch want = scalar_client(*slot, c);
  EXPECT_FALSE(same_bytes(want, old_rows));
  EXPECT_TRUE(same_bytes(got, want));
}

// Four threads reading one source, each in its own client order, each see
// exactly the scalar samples (the memo is per thread; tsan checks the rest).
TEST(LazyShardMemo, FourThreadsReadOneSource) {
  const LazyShardSource source = make_source(23);
  std::vector<DataSet::Batch> want;
  for (std::size_t c = 0; c < source.num_clients(); ++c)
    want.push_back(scalar_client(source, c));
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      DataSet::Batch got;
      for (std::size_t round = 0; round < 3; ++round) {
        for (std::size_t k = 0; k < source.num_clients(); ++k) {
          const std::size_t c = (k * (2 * t + 1) + round) % source.num_clients();
          std::vector<std::size_t> all(source.data_count(c));
          std::iota(all.begin(), all.end(), std::size_t{0});
          source.batch_into(c, all, got);
          if (!same_bytes(got, want[c])) ++mismatches;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(DescriptorPartition, DeterministicInSeed) {
  runtime::Rng rng_a(5), rng_b(5);
  const ClientPopulation a =
      descriptor_partition(small_partition(), 10, rng_a);
  const ClientPopulation b =
      descriptor_partition(small_partition(), 10, rng_b);
  ASSERT_EQ(a.num_clients(), b.num_clients());
  for (std::size_t c = 0; c < a.num_clients(); ++c) {
    EXPECT_EQ(a.data_count(c), b.data_count(c));
    EXPECT_EQ(a.seed(c), b.seed(c));
    const auto ca = a.label_counts(c), cb = b.label_counts(c);
    for (std::size_t k = 0; k < ca.size(); ++k) EXPECT_EQ(ca[k], cb[k]);
  }
}

TEST(DescriptorPartition, HistogramMatchesIntendedClassLayout) {
  const LazyShardSource source = make_source();
  const ClientPopulation& pop = source.population();
  for (std::size_t c = 0; c < pop.num_clients(); c += 7) {
    std::vector<std::size_t> seen(pop.num_classes(), 0);
    for (std::size_t j = 0; j < pop.data_count(c); ++j)
      ++seen[pop.intended_class(c, j)];
    const auto counts = pop.label_counts(c);
    for (std::size_t k = 0; k < counts.size(); ++k)
      EXPECT_EQ(seen[k], counts[k]);
  }
}

// Training through the lazy store must be bit-identical for ANY thread-pool
// size — each sample's RNG stream is keyed by (client seed, local index),
// never by which thread synthesizes it.
TEST(LazyTraining, PoolSizeInvariant) {
  core::ExperimentSpec spec;
  spec.num_clients = 48;
  spec.num_edges = 2;
  spec.size_mean = 30;
  spec.size_std = 10;
  spec.size_min = 10;
  spec.size_max = 50;
  spec.test_size = 100;
  spec.mlp_hidden = 16;
  spec.seed = 11;
  spec.client_state = core::ClientStateMode::kLazy;
  const core::Experiment exp = core::build_experiment(spec);

  core::GroupFelConfig cfg;
  cfg.global_rounds = 2;
  cfg.group_rounds = 2;
  cfg.local_epochs = 1;
  cfg.sampled_groups = 3;
  cfg.local.batch_size = 8;
  cfg.grouping_params.min_group_size = 5;
  cfg.seed = 123;
  const auto model =
      core::build_cost_model(cost::Task::kCifar, cost::GroupOp::kSecAgg);

  std::vector<float> reference;
  for (const std::size_t workers : {0u, 2u, 24u}) {
    runtime::ThreadPool pool(workers);
    core::GroupFelTrainer trainer(exp.topology, cfg, model, &pool);
    const core::TrainResult result = trainer.train();
    if (reference.empty()) {
      reference = result.final_params;
      continue;
    }
    ASSERT_EQ(reference.size(), result.final_params.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
      ASSERT_EQ(reference[i], result.final_params[i])
          << "param " << i << " diverged at pool size " << workers;
  }
}

/// Fleet-scale descriptor spec: ~10k clients per edge, the paper's §7.2
/// size distribution at mean 200 (so the naive resident projection is a
/// multi-GB figure at 100k clients).
core::ExperimentSpec fleet_spec(std::size_t clients) {
  core::ExperimentSpec spec;
  spec.num_clients = clients;
  spec.num_edges = std::max<std::size_t>(2, clients / 10000);
  spec.size_mean = 200.0;
  spec.size_std = 80.0;
  spec.size_min = 50;
  spec.size_max = 400;
  spec.test_size = 512;
  spec.mlp_hidden = 32;
  spec.seed = 7;
  spec.client_state = core::ClientStateMode::kLazy;
  return spec;
}

/// One global round of windowed CoV grouping + streaming ESRCoV sampling,
/// group size ~100 (MinGS): the paper's default method at fleet scale.
core::GroupFelConfig fleet_config() {
  core::GroupFelConfig cfg;
  cfg.global_rounds = 1;
  cfg.group_rounds = 1;
  cfg.local_epochs = 1;
  cfg.sampled_groups = 16;
  cfg.local.batch_size = 32;
  cfg.local.lr = 0.1f;
  cfg.grouping = grouping::GroupingMethod::kCov;
  cfg.grouping_params.min_group_size = 100;
  cfg.grouping_params.greedy_window = 256;
  cfg.sampling = sampling::SamplingMethod::kESRCov;
  cfg.eval_every = 1;
  cfg.seed = 42;
  return cfg;
}

// kDescriptorResident materializes every shard from the descriptors that
// kLazy regenerates on demand, so training must not tell them apart — while
// the lazy arm holds under a tenth of the resident bytes.
TEST(LazyTraining, DescriptorResidentBitIdenticalToLazy) {
  core::ExperimentSpec spec = fleet_spec(64);
  spec.num_edges = 2;
  spec.size_mean = 40;
  spec.size_std = 10;
  spec.size_min = 16;
  spec.size_max = 64;
  spec.test_size = 200;

  core::GroupFelConfig cfg = fleet_config();
  cfg.global_rounds = 2;
  cfg.group_rounds = 2;
  cfg.sampled_groups = 3;
  cfg.local.batch_size = 8;
  cfg.grouping_params.min_group_size = 5;
  cfg.grouping_params.greedy_window = 0;  // classic Algorithm 2

  spec.client_state = core::ClientStateMode::kDescriptorResident;
  const core::Experiment resident = core::build_experiment(spec);
  spec.client_state = core::ClientStateMode::kLazy;
  const core::Experiment lazy = core::build_experiment(spec);
  ASSERT_NE(resident.train_set, nullptr);
  ASSERT_EQ(lazy.train_set, nullptr);

  const std::size_t resident_bytes = resident.topology.clients.resident_bytes();
  const std::size_t lazy_bytes = lazy.topology.clients.resident_bytes();
  EXPECT_LT(lazy_bytes * 10, resident_bytes);

  const auto model =
      core::build_cost_model(cost::Task::kCifar, cost::GroupOp::kSecAgg);
  core::GroupFelTrainer resident_trainer(resident.topology, cfg, model);
  core::GroupFelTrainer lazy_trainer(lazy.topology, cfg, model);
  const core::TrainResult a = resident_trainer.train();
  const core::TrainResult b = lazy_trainer.train();
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  for (std::size_t i = 0; i < a.final_params.size(); ++i)
    ASSERT_EQ(a.final_params[i], b.final_params[i]) << "param " << i;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedHeap = true;  // shadow memory inflates RSS
#else
constexpr bool kSanitizedHeap = false;
#endif

/// Process peak RSS in bytes; 0 where getrusage is unavailable.
std::size_t peak_rss_bytes() {
#if defined(__linux__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;  // ru_maxrss is KiB
#else
  return 0;
#endif
}

// A 100k-client lazy federation — build, group, one Algorithm 1 round —
// must stay under 10% of the naive layout that keeps every client's feature
// tensor resident. ctest runs each test in its own process, so peak RSS is
// this test's alone.
TEST(LazyTraining, HundredThousandClientsUnderTenthOfNaiveMemory) {
  const core::Experiment exp = core::build_experiment(fleet_spec(100000));
  const data::ClientDataStore& store = exp.topology.clients;
  const std::size_t sample_bytes =
      nn::shape_size(exp.data_spec.sample_shape) * sizeof(float);
  std::size_t naive_bytes = 0;
  for (std::size_t c = 0; c < store.num_clients(); ++c)
    naive_bytes += store.data_count(c) * sample_bytes;

  core::GroupFelTrainer trainer(
      exp.topology, fleet_config(),
      core::build_cost_model(cost::Task::kCifar, cost::GroupOp::kSecAgg));
  const core::TrainResult result = trainer.train();
  ASSERT_EQ(result.history.size(), 1u);

  EXPECT_LT(store.resident_bytes() * 10, naive_bytes);
  const std::size_t peak = peak_rss_bytes();
  if (!kSanitizedHeap && peak > 0) {
    EXPECT_LT(peak * 10, naive_bytes)
        << "peak RSS " << peak << " B vs naive " << naive_bytes << " B";
  }
}

}  // namespace
}  // namespace groupfel::data
