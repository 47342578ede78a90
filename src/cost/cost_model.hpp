// The paper's cost model (§3.2).
//
// Each client in a group pays, per group round:
//   - group-operation overhead O_g(|g|), QUADRATIC in group size (secure
//     aggregation, backdoor detection — Fig. 8 measurements), and
//   - E * H_i(n_i) training cost, LINEAR in its local sample count.
//
// Total learning cost (Eq. 5):
//   O = sum_t sum_{g in S_t} K * sum_{c_i in g} ( O_g(|g|) + E * H_i(n_i) )
//
// Default constants reproduce the Raspberry-Pi-4 measurement shapes of
// Fig. 8 (seconds): at 50 samples CIFAR training costs ~50 s and SC ~18 s;
// at group size 50 SecAgg costs ~45 s, backdoor detection ~25 s, and
// SCAFFOLD SecAgg ~60 s (double communication volume). The calibration
// functions (cost/calibration.hpp) measure the same shapes on this
// repository's own secagg/backdoor implementations; the constants here are
// not refitted from them.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace groupfel::cost {

enum class Task { kCifar, kSpeechCommands };
enum class GroupOp { kNone, kSecAgg, kBackdoorDetection, kScaffoldSecAgg };

[[nodiscard]] std::string to_string(Task task);
[[nodiscard]] std::string to_string(GroupOp op);

/// O_g(s) = a*s^2 + b*s + c (seconds per client per group round).
struct QuadraticCost {
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  [[nodiscard]] double operator()(double s) const { return a * s * s + b * s + c; }
};

/// H(n) = h*n + h0 (seconds per local epoch).
struct LinearCost {
  double h = 0.0;
  double h0 = 0.0;
  [[nodiscard]] double operator()(double n) const { return h * n + h0; }
};

class CostModel {
 public:
  CostModel(LinearCost training, QuadraticCost group_op)
      : training_(training), group_op_(group_op) {}

  /// One local epoch over n_i samples.
  [[nodiscard]] double training_cost(std::size_t n_i) const {
    return training_(static_cast<double>(n_i));
  }

  /// One group operation for one client in a group of the given size.
  [[nodiscard]] double group_op_cost(std::size_t group_size) const {
    return group_op_(static_cast<double>(group_size));
  }

  /// Cost contributed by one group in one GLOBAL round (Eq. 5 inner term):
  /// K group rounds, each charging every member O_g(|g|) + E*H_i(n_i).
  [[nodiscard]] double group_round_cost(
      std::span<const std::size_t> member_data_counts, std::size_t k_rounds,
      std::size_t e_epochs) const;

  [[nodiscard]] const LinearCost& training() const noexcept { return training_; }
  [[nodiscard]] const QuadraticCost& group_op() const noexcept {
    return group_op_;
  }

 private:
  LinearCost training_;
  QuadraticCost group_op_;
};

/// RPi-shaped defaults per task and operation (see header comment).
[[nodiscard]] CostModel default_cost_model(Task task, GroupOp op);

/// Running Eq. 5 accumulator across a training run.
class CostAccumulator {
 public:
  explicit CostAccumulator(CostModel model) : model_(std::move(model)) {}

  /// Charges one global round for one sampled group.
  void charge_group(std::span<const std::size_t> member_data_counts,
                    std::size_t k_rounds, std::size_t e_epochs) {
    total_ += model_.group_round_cost(member_data_counts, k_rounds, e_epochs);
  }

  [[nodiscard]] double total() const noexcept { return total_; }
  [[nodiscard]] const CostModel& model() const noexcept { return model_; }

 private:
  CostModel model_;
  double total_ = 0.0;
};

}  // namespace groupfel::cost
