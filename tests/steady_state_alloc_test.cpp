// Zero steady-state heap allocations in the minibatch pipeline: once its
// caller-owned Batch and the thread-local SGD scratch are warm, gather_into
// and run_local_sgd must not touch the allocator. Also: a lazy store's
// label matrix allocates no table, and SCAFFOLD holds no staged deltas
// between rounds.
//
// Counting replaces the process-wide global operator new, so this file is
// its own test binary: every allocation in the process goes through the
// counter, and deltas around a measured call give its allocation traffic.
// The live-byte count adds and subtracts malloc_usable_size, so it tracks
// what operator new holds right now. Counting only; the storage still
// comes from malloc.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>  // lint:allow(naked-new)
#include <numeric>
#include <vector>

#include "algorithms/local_trainer.hpp"
#include "algorithms/scaffold.hpp"
#include "core/experiment.hpp"
#include "nn/tensor.hpp"

namespace {
std::atomic<std::size_t> g_allocs{0};
std::atomic<std::size_t> g_alloc_bytes{0};
std::atomic<std::size_t> g_live_bytes{0};

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) {
    g_live_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}
// Counting replacement of the global allocator, not an ownership site.
void* operator new[](std::size_t n) { return operator new(n); }  // lint:allow(naked-new)
// Not inlined: GCC would otherwise pair gtest's `new TestClass` with the
// inlined free() and report -Wmismatched-new-delete under sanitizer builds.
[[gnu::noinline]] void operator delete(void* p) noexcept { release(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { release(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  release(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  release(p);
}

namespace groupfel {
namespace {

std::size_t allocs() { return g_allocs.load(std::memory_order_relaxed); }
std::size_t alloc_bytes() {
  return g_alloc_bytes.load(std::memory_order_relaxed);
}
std::size_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

core::Experiment small_experiment() {
  core::ExperimentSpec spec;
  spec.num_clients = 24;
  spec.num_edges = 2;
  spec.size_mean = 40;
  spec.size_std = 10;
  spec.size_min = 16;
  spec.size_max = 64;
  spec.test_size = 200;
  spec.mlp_hidden = 32;
  spec.seed = 7;
  return core::build_experiment(spec);
}

TEST(SteadyStateAllocs, GatherIntoAllocatesNothing) {
  const core::Experiment exp = small_experiment();
  const data::DataSet& train = *exp.train_set;
  std::vector<std::size_t> idx(std::min<std::size_t>(64, train.size()));
  std::iota(idx.begin(), idx.end(), std::size_t{0});

  data::DataSet::Batch batch;
  train.gather_into(idx, batch);  // warm-up: capacity grows once
  const std::size_t a0 = allocs();
  for (int r = 0; r < 50; ++r) train.gather_into(idx, batch);
  EXPECT_EQ(allocs() - a0, 0u);
}

TEST(SteadyStateAllocs, LocalSgdAllocatesNothing) {
  const core::Experiment exp = small_experiment();
  const data::ClientShard& shard = exp.topology.clients.shards().front();
  algorithms::LocalTrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 8;
  cfg.lr = 0.05f;

  nn::Model model = exp.topology.model_factory();
  runtime::Rng warm(11);
  // Warm-up: thread-local scratch and layer buffers size themselves.
  for (int r = 0; r < 2; ++r)
    (void)algorithms::run_local_sgd(model, shard, cfg, warm, nullptr);

  runtime::Rng rng(12);
  const std::uint64_t c0 = nn::tensor_construction_count();
  const std::size_t a0 = allocs();
  (void)algorithms::run_local_sgd(model, shard, cfg, rng, nullptr);
  const std::size_t steady_allocs = allocs() - a0;
  EXPECT_EQ(steady_allocs, 0u);
  EXPECT_EQ(nn::tensor_construction_count(), c0);
}

TEST(SteadyStateAllocs, LazyLabelMatrixAllocatesNoTable) {
  // The label matrix of a descriptor-backed store is the descriptor table
  // itself; building it for 100k clients must not copy the 4 MB of counts
  // (the size_t copy it replaced allocated 8 MB).
  core::ExperimentSpec spec;
  spec.num_clients = 100000;
  spec.num_edges = 10;
  spec.size_mean = 40;
  spec.size_std = 10;
  spec.size_min = 16;
  spec.size_max = 64;
  spec.test_size = 32;
  spec.mlp_hidden = 8;
  spec.client_state = core::ClientStateMode::kLazy;
  const core::Experiment exp = core::build_experiment(spec);
  const std::size_t b0 = alloc_bytes();
  const data::LabelMatrix matrix = exp.topology.clients.label_matrix();
  EXPECT_LT(alloc_bytes() - b0, 1024u);
  EXPECT_EQ(matrix.num_clients(), spec.num_clients);
}

TEST(SteadyStateAllocs, ScaffoldFreesStagedDeltasAtRoundEnd) {
  // Each client SCAFFOLD trains stages a dim-float delta until the round
  // end folds it into c. Once folded, the staged deltas must be freed: a
  // trainer between rounds keeps only c and the clients' c_i.
  const core::Experiment exp = small_experiment();
  const auto& shards = exp.topology.clients.shards();
  algorithms::LocalTrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 8;
  cfg.lr = 0.05f;

  nn::Model model = exp.topology.model_factory();
  runtime::Rng init(5);
  model.init(init);
  const std::vector<float> reference = model.flat_parameters();
  algorithms::ScaffoldRule rule(shards.size());
  for (int round = 0; round < 2; ++round) {
    for (std::size_t cid = 0; cid < shards.size(); ++cid) {
      model.set_flat_parameters(reference);
      runtime::Rng rng(100 + cid);
      (void)rule.train_client(model, shards[cid], reference, cid, cfg, rng);
    }
    const std::size_t before = live_bytes();
    rule.on_global_round_end();
    const std::size_t staged =
        shards.size() * model.param_count() * sizeof(float);
    EXPECT_GE(before - std::min(before, live_bytes()), staged)
        << "round " << round;
  }
}

}  // namespace
}  // namespace groupfel
