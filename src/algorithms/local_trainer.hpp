// Local update rules — the client-side optimization step of Algorithm 1
// line 13, pluggable so the baselines of §7.1 share one training loop:
//   SgdRule      : plain minibatch SGD (FedAvg)
//   FedProxRule  : SGD + proximal term mu*(x - x_ref)     (fedprox.cpp)
//   ScaffoldRule : SGD + control variates (c - c_i)       (scaffold.cpp)
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "data/client_data.hpp"
#include "data/dataset.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "runtime/rng.hpp"

namespace groupfel::algorithms {

struct LocalTrainConfig {
  std::size_t epochs = 2;       ///< E, local rounds per group round
  std::size_t batch_size = 16;  ///< must be > 0
  float lr = 0.05f;
  float momentum = 0.0f;
  float weight_decay = 0.0f;
  // Only benchmark/src/replay.cpp reads this; ROADMAP item 1b deletes both.
  static constexpr bool reuse_batch_buffers = true;
};

class LocalUpdateRule {
 public:
  virtual ~LocalUpdateRule() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Trains `model` in place on the client's data for cfg.epochs local
  /// epochs of minibatch SGD. `data` views either a resident shard or a
  /// lazily synthesized one (data/client_data.hpp); `reference_params` is
  /// the group model the client started from (x^g_{t,k}); `client_id` keys
  /// persistent per-client state (SCAFFOLD). Returns the mean training loss.
  ///
  /// Thread-safety: may be called concurrently for DIFFERENT client_ids.
  virtual double train_client(nn::Model& model, data::ClientDataRef data,
                              std::span<const float> reference_params,
                              std::size_t client_id,
                              const LocalTrainConfig& cfg,
                              runtime::Rng& rng) = 0;

  /// Called once, serially, after each global aggregation.
  virtual void on_global_round_end() {}

  /// Relative communication volume per group round (1 = one model). Used by
  /// the cost model selection (SCAFFOLD ships control variates too).
  [[nodiscard]] virtual double communication_factor() const { return 1.0; }
};

/// Shared minibatch-SGD loop used by all rules. `adjust` is the per-step
/// gradient hook (may be null).
double run_local_sgd(nn::Model& model, data::ClientDataRef data,
                     const LocalTrainConfig& cfg, runtime::Rng& rng,
                     const nn::SgdOptimizer::GradAdjust& adjust);

/// Plain SGD (FedAvg's local step).
class SgdRule final : public LocalUpdateRule {
 public:
  [[nodiscard]] std::string name() const override { return "SGD"; }
  double train_client(nn::Model& model, data::ClientDataRef data,
                      std::span<const float> reference_params,
                      std::size_t client_id, const LocalTrainConfig& cfg,
                      runtime::Rng& rng) override;
};

}  // namespace groupfel::algorithms
