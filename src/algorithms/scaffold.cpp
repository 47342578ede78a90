#include "algorithms/scaffold.hpp"

#include <algorithm>

#include "util/sync.hpp"

namespace groupfel::algorithms {

ScaffoldRule::ScaffoldRule(std::size_t num_clients)
    : num_clients_(num_clients), c_i_(num_clients) {}

double ScaffoldRule::train_client(nn::Model& model, data::ClientDataRef data,
                                  std::span<const float> reference_params,
                                  std::size_t client_id,
                                  const LocalTrainConfig& cfg,
                                  runtime::Rng& rng) {
  if (client_id >= num_clients_)
    throw std::out_of_range("ScaffoldRule: client_id out of range");
  const std::size_t dim = model.param_count();

  // Snapshot c and c_i for this client (lazily zero-initialized).
  std::vector<float> c_snapshot, ci_snapshot;
  {
    util::MutexLock lock(mu_);
    if (c_.empty()) c_.assign(dim, 0.0f);
    if (c_i_[client_id].empty()) c_i_[client_id].assign(dim, 0.0f);
    c_snapshot = c_;
    ci_snapshot = c_i_[client_id];
  }

  const auto adjust = [&](std::size_t offset, std::span<const float>,
                          std::span<float> grad) {
    for (std::size_t i = 0; i < grad.size(); ++i)
      grad[i] += c_snapshot[offset + i] - ci_snapshot[offset + i];
  };
  const double loss = run_local_sgd(model, data, cfg, rng, adjust);

  // Number of SGD steps taken locally.
  const std::size_t batches_per_epoch =
      data.size() == 0
          ? 0
          : (data.size() + cfg.batch_size - 1) / cfg.batch_size;
  const std::size_t steps = cfg.epochs * batches_per_epoch;
  if (steps == 0) return loss;

  // Option II control-variate update.
  const std::vector<float> x_local = model.flat_parameters();
  const float inv_step_lr = 1.0f / (static_cast<float>(steps) * cfg.lr);
  std::vector<float> ci_new(dim);
  for (std::size_t i = 0; i < dim; ++i)
    ci_new[i] = ci_snapshot[i] - c_snapshot[i] +
                (reference_params[i] - x_local[i]) * inv_step_lr;

  // Stage this client's delta in a private slot (accumulating across the
  // client's K group-round calls, which are sequential in time); the fold
  // into c_ happens at round end in ascending client order so the
  // floating-point sum does not depend on which thread finished first.
  {
    util::MutexLock lock(mu_);
    if (pending_.empty()) pending_.resize(num_clients_);
    if (stage_mark_.empty()) stage_mark_.assign(num_clients_, 0);
    if (stage_mark_[client_id] != round_epoch_) {
      stage_mark_[client_id] = round_epoch_;
      pending_[client_id].assign(dim, 0.0f);
      pending_ids_.push_back(client_id);
    }
    for (std::size_t i = 0; i < dim; ++i)
      pending_[client_id][i] += ci_new[i] - c_i_[client_id][i];
    c_i_[client_id] = std::move(ci_new);
  }
  return loss;
}

void ScaffoldRule::on_global_round_end() {
  util::MutexLock lock(mu_);
  ++round_epoch_;
  if (pending_ids_.empty()) return;
  // c <- c + (participants / N) * mean(delta_ci)  ==  c + sum(delta)/N,
  // summed in ascending client order (deterministic reduction).
  std::sort(pending_ids_.begin(), pending_ids_.end());
  if (c_.empty()) c_.assign(pending_[pending_ids_.front()].size(), 0.0f);
  const float inv_n = 1.0f / static_cast<float>(num_clients_);
  for (const std::size_t cid : pending_ids_) {
    for (std::size_t i = 0; i < c_.size(); ++i)
      c_[i] += pending_[cid][i] * inv_n;
    // Folded: release the slot (the next round re-stages it from zero), so
    // a trainer holds no staged deltas between rounds.
    std::vector<float>().swap(pending_[cid]);
  }
  pending_ids_.clear();
}

}  // namespace groupfel::algorithms
