// Experiment builder: assembles a full simulated federation (synthetic
// dataset, Dirichlet partition, edge assignment, model factory, cost model)
// from one declarative spec. Every bench binary goes through this so the
// paper's scenarios are reproducible from a handful of parameters.
#pragma once

#include <memory>

#include "core/trainer.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"

namespace groupfel::core {

enum class ModelKind { kMlp, kResNet3, kCnn5 };

/// How per-client training data is held — the lazy-vs-resident A/B toggle.
enum class ClientStateMode {
  /// Legacy path: carve resident shards from one shared sample pool
  /// (data::dirichlet_partition). Byte-identical to pre-descriptor builds;
  /// memory is O(num_clients * size_max * sample_dim).
  kPoolResident,
  /// Descriptor partition (O(bytes) per client), then materialize every
  /// client's samples into resident shards — the resident arm of the
  /// bit-identity gate. Same memory order as kPoolResident.
  kDescriptorResident,
  /// Descriptor partition only; minibatches are synthesized on demand from
  /// per-sample RNG streams. Resident state is the descriptor table, so the
  /// spec scales to 10^6 clients. Bit-identical training to
  /// kDescriptorResident (LazyTraining.DescriptorResidentBitIdenticalToLazy).
  kLazy,
};

struct ExperimentSpec {
  cost::Task task = cost::Task::kCifar;
  std::size_t num_clients = 300;
  std::size_t num_edges = 3;
  double alpha = 0.5;            ///< Dirichlet concentration
  double size_mean = 110.0;      ///< client data count distribution (§7.2)
  double size_std = 45.0;
  std::size_t size_min = 20;
  std::size_t size_max = 200;
  std::size_t test_size = 2000;
  ModelKind model = ModelKind::kMlp;
  std::size_t mlp_hidden = 64;
  std::uint64_t seed = 7;
  ClientStateMode client_state = ClientStateMode::kPoolResident;

  /// Memberwise equality — core::run_sweep builds each distinct federation
  /// once and shares it across the cells that use it.
  friend bool operator==(const ExperimentSpec&,
                         const ExperimentSpec&) = default;
};

struct Experiment {
  FederationTopology topology;
  data::SyntheticSpec data_spec;
  /// The resident training pool (kPoolResident) or the materialized
  /// federation dataset (kDescriptorResident). Null in kLazy mode — no
  /// training sample is ever resident.
  std::shared_ptr<const data::DataSet> train_set;
};

/// Builds the federation. Deterministic in spec.seed; `pool` parallelizes
/// the descriptor partition (bit-identical for any pool size, including
/// nullptr).
[[nodiscard]] Experiment build_experiment(const ExperimentSpec& spec,
                                          runtime::ThreadPool* pool = nullptr);

/// Cost model for a method on a task: training cost plus the sum of the
/// secure-aggregation (regular or SCAFFOLD) and backdoor-detection
/// overhead curves — the two group operations the paper measures.
[[nodiscard]] cost::CostModel build_cost_model(cost::Task task,
                                               cost::GroupOp secagg_variant);

/// A paper-preset scaled to this repository's single-core budget. `scale`
/// multiplies client counts; benches use < 1 for quick runs. Throws
/// std::invalid_argument unless `scale` is finite and > 0.
[[nodiscard]] ExperimentSpec default_cifar_spec(double scale = 1.0);
[[nodiscard]] ExperimentSpec default_sc_spec(double scale = 1.0);

}  // namespace groupfel::core
