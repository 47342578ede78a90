// SCAFFOLD (Karimireddy et al. [7]): stochastic controlled averaging.
//
// Each client keeps a control variate c_i and the server keeps c. Local
// steps descend along grad - c_i + c, correcting client drift; after local
// training the client updates (option II)
//   c_i^+ = c_i - c + (x_ref - x_local) / (steps * lr)
// and the server folds the deltas into c. SCAFFOLD ships the control
// variate alongside the model, doubling communication — reflected in
// communication_factor() and the SCAFFOLD-SecAgg cost curve of Fig. 8.
#pragma once

#include <cstdint>

#include "algorithms/local_trainer.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace groupfel::algorithms {

class ScaffoldRule final : public LocalUpdateRule {
 public:
  /// `num_clients` sizes the per-client state table; `total_weight` is the
  /// server-side averaging denominator N in c <- c + (1/N) sum delta_ci.
  explicit ScaffoldRule(std::size_t num_clients);

  [[nodiscard]] std::string name() const override { return "SCAFFOLD"; }

  double train_client(nn::Model& model, data::ClientDataRef data,
                      std::span<const float> reference_params,
                      std::size_t client_id, const LocalTrainConfig& cfg,
                      runtime::Rng& rng) override;

  void on_global_round_end() override;

  [[nodiscard]] double communication_factor() const override { return 2.0; }

  /// Server control variate (for tests). Returns a locked copy: concurrent
  /// clients may be staging deltas while a monitor reads.
  [[nodiscard]] std::vector<float> server_control() const GF_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return c_;
  }

 private:
  const std::size_t num_clients_;
  mutable util::Mutex mu_;
  std::vector<float> c_ GF_GUARDED_BY(mu_);        // server control variate
  std::vector<std::vector<float>> c_i_ GF_GUARDED_BY(mu_);  // per-client
  /// Per-client c_i deltas staged this round (accumulated across the K
  /// group rounds a client trains in). Folding them into c_ in ascending
  /// client order at round end keeps the floating-point sum independent of
  /// the order concurrent clients finish — bit-identical for any pool size
  /// and any cell scheduling. A slot is freed once folded.
  std::vector<std::vector<float>> pending_ GF_GUARDED_BY(mu_);
  std::vector<std::size_t> pending_ids_ GF_GUARDED_BY(mu_);
  /// Round epoch a slot was staged in.
  std::vector<std::uint64_t> stage_mark_ GF_GUARDED_BY(mu_);
  std::uint64_t round_epoch_ GF_GUARDED_BY(mu_) = 1;
};

}  // namespace groupfel::algorithms
