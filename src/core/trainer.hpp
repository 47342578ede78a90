// GroupFelTrainer — Algorithm 1 end to end.
//
//   T global rounds:
//     sample S_t groups from p (cloud)
//     for each sampled group (in parallel):
//       group model <- global model
//       K group rounds:
//         each member client (in parallel) runs E local epochs
//         group aggregation: weighted by n_i/n_g (optionally through the
//         real secure-aggregation protocol)
//     global aggregation: biased n_g/n_t, unbiased Eq. 4, or stabilized
//     Eq. 35 weights
//
// The trainer also implements the FedCLAR personalized-FL baseline (cluster
// clients at a configured round, then train per-cluster models) and
// periodic regrouping (§6.1).
#pragma once

#include <atomic>
#include <functional>
#include <memory>

#include "core/cloud.hpp"
#include "core/config.hpp"
#include "core/edge_server.hpp"
#include "core/evaluator.hpp"
#include "cost/cost_model.hpp"
#include "data/client_data.hpp"
#include "data/label_matrix.hpp"
#include "runtime/replica_cache.hpp"
#include "runtime/thread_pool.hpp"

namespace groupfel::core {

/// The simulated federation: client data store, edge assignment, held-out
/// test set, and a factory producing freshly-structured (uninitialized)
/// models.
struct FederationTopology {
  /// Client training data by global client id — resident shards or a lazy
  /// descriptor-backed source (data/client_data.hpp).
  data::ClientDataStore clients;
  std::vector<std::vector<std::size_t>> edges;  ///< edge -> global client ids
  std::shared_ptr<const data::DataSet> test_set;
  std::function<nn::Model()> model_factory;
  /// Optional threat model: malicious[i] marks client i as a backdoor
  /// attacker (see BackdoorConfig). Empty = all honest.
  std::vector<bool> malicious;
};

struct RoundMetrics {
  std::size_t round = 0;
  double accuracy = 0.0;
  double test_loss = 0.0;
  double train_loss = 0.0;       ///< mean local loss this round
  double cumulative_cost = 0.0;  ///< Eq. 5 total up to and including round
  /// Cumulative communication volume (bytes): client<->edge model exchanges
  /// per group round plus edge<->cloud per global round, scaled by the
  /// local rule's communication factor (SCAFFOLD ships control variates).
  double cumulative_comm_bytes = 0.0;
};

struct TrainResult {
  std::vector<RoundMetrics> history;
  std::vector<float> final_params;
  grouping::GroupingSummary grouping;
  double total_cost = 0.0;
  double final_accuracy = 0.0;
  /// Best accuracy reached within a cost budget (if one was set).
  double best_accuracy = 0.0;
  /// FLAME statistics when the backdoor defense ran (0 otherwise).
  std::size_t defense_rejections = 0;
  /// Global model after each round (only when cfg.record_param_history).
  std::vector<std::vector<float>> param_history;
};

class GroupFelTrainer {
 public:
  /// `pool` runs the parallel loops over groups, clients, and eval batches
  /// (the shared global pool when null). Results are bit-identical for any
  /// pool — all randomness is keyed by logical indices, and aggregation
  /// uses a fixed-shape reduction.
  GroupFelTrainer(FederationTopology topology, GroupFelConfig config,
                  cost::CostModel cost_model,
                  runtime::ThreadPool* pool = nullptr);

  /// Runs the full Algorithm 1 loop. If `cost_budget > 0`, training stops
  /// once the accumulated Eq. 5 cost exceeds the budget (the paper's
  /// "accuracy by certain learning costs" protocol).
  [[nodiscard]] TrainResult train(double cost_budget = 0.0);

  /// Formed groups (valid after construction; refreshed on regrouping).
  [[nodiscard]] const std::vector<FormedGroup>& groups() const {
    return cloud_.groups();
  }
  [[nodiscard]] const std::vector<double>& sampling_probabilities() const {
    return cloud_.probabilities();
  }

  /// Model constructions performed by the per-thread replica cache so far
  /// (one per participating thread). Steady state adds none —
  /// TrainerDeterminism.SteadyStateAddsNoModelConstructions asserts this
  /// stays flat across later rounds.
  [[nodiscard]] std::size_t replica_clone_count() const noexcept {
    return replicas_.clone_count();
  }
  /// Threads currently holding a cached replica.
  [[nodiscard]] std::size_t replica_thread_count() const {
    return replicas_.replica_count();
  }

 private:
  void form_groups(runtime::Rng& rng);

  struct GroupRun {
    std::vector<float> params;  ///< group model after K group rounds
    double loss_sum = 0.0;
    std::size_t loss_count = 0;
  };
  /// Trains one sampled group for K group rounds starting from `start`.
  /// `group_tag` uniquely identifies the group for deterministic RNG
  /// derivation. Safe to call concurrently for different groups.
  [[nodiscard]] GroupRun run_group(const FormedGroup& group,
                                   const std::vector<float>& start,
                                   std::size_t round, std::size_t group_tag);
  /// FedCLAR: cluster all clients by one-epoch update directions.
  void fedclar_clusterize(const std::vector<float>& global_params,
                          std::size_t round);

  FederationTopology topo_;
  GroupFelConfig cfg_;
  cost::CostAccumulator cost_;
  Cloud cloud_;
  std::vector<EdgeServer> edge_servers_;
  data::LabelMatrix label_matrix_;
  std::unique_ptr<algorithms::LocalUpdateRule> rule_;
  nn::Model prototype_;
  runtime::ThreadPool* pool_ = nullptr;
  runtime::ModelReplicaCache<nn::Model> replicas_;
  runtime::Rng run_rng_;

  // FedCLAR state: cluster id per client and one model per cluster.
  bool clustered_ = false;
  std::vector<std::size_t> cluster_of_;
  std::vector<std::vector<float>> cluster_params_;

  // FLAME rejection counter (groups run in parallel).
  std::atomic<std::size_t> defense_rejections_{0};
};

}  // namespace groupfel::core
