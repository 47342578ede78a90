// Configuration for Group-FEL training runs and the §7 baseline matrix.
//
// Every method the paper evaluates is a combination of
//   (grouping method, sampling method, local update rule, aggregation mode)
// plus a cost-model choice. MethodSpec presets encode the exact
// combinations of §7.3: FedAvg/FedProx/SCAFFOLD use random grouping with
// uniform sampling; OUEA uses CDG; SHARE uses KLDG; FedCLAR uses random
// grouping then clusters; Group-FEL uses CoVG + ESRCoV.
#pragma once

#include <cstdint>
#include <string>

#include "algorithms/local_trainer.hpp"
#include "backdoor/flame.hpp"
#include "compression/compressor.hpp"
#include "cost/cost_model.hpp"
#include "grouping/grouping.hpp"
#include "nn/precision.hpp"
#include "sampling/sampler.hpp"
#include "sampling/weights.hpp"

namespace groupfel::core {

enum class LocalRule { kSgd, kFedProx, kScaffold };

/// FedProx's proximal coefficient mu.
inline constexpr float kFedProxMu = 0.1f;
/// FedCLAR's cosine-distance linkage threshold.
inline constexpr double kFedClarMergeThreshold = 0.35;
/// A poisoned update is -kBackdoorAttackScale times the honest update.
inline constexpr double kBackdoorAttackScale = 3.0;

struct FedClarConfig {
  bool enabled = false;
  std::size_t cluster_round = 10;    ///< round at which clustering happens
};

/// Backdoor threat model + defense. When `attack` is on, clients flagged
/// malicious in FederationTopology::malicious submit poisoned updates
/// (sign-flipped and scaled by kBackdoorAttackScale). When `defense` is on,
/// every group aggregation runs the FLAME filter (backdoor/flame.hpp)
/// instead of plain weighted averaging — the very group operation whose
/// cost Fig. 2(a) measures.
struct BackdoorConfig {
  bool attack = false;
  bool defense = false;
  backdoor::FlameConfig flame{};
};

/// End-to-end precision selection: compute width inside client SGD and wire
/// width for every parameter exchange.
struct PrecisionConfig {
  /// GEMM operand storage width for local training and evaluation (fp32
  /// accumulation always; see nn/precision.hpp). Applied to the trainer's
  /// prototype model, so every replica inherits it.
  nn::StoragePrecision compute = nn::StoragePrecision::kFp32;

  /// Wire codec for parameter exchange. Client updates (deltas against the
  /// group model) pass through compression::wire_round_trip before
  /// aggregation, the secagg fixed-point encoder narrows to the matching
  /// fraction width, and the cost model charges wire_bytes_per_param()
  /// bytes per parameter instead of 4.
  compression::Codec wire = compression::Codec::kFloat32;
};

/// Bytes per parameter the cost model charges for a wire codec.
[[nodiscard]] constexpr double wire_bytes_per_param(compression::Codec c) {
  return static_cast<double>(compression::code_bytes(c));
}

/// Fixed-point fraction bits the secure-aggregation encoder uses per wire
/// codec: fp32 keeps the protocol's native 16, fp16 matches its 10+1
/// significand bits, the int8 family its 7+1 magnitude bits. Narrower
/// fractions mean coarser masked updates — the secagg analogue of sending
/// narrower payloads.
[[nodiscard]] constexpr std::uint8_t secagg_frac_bits(compression::Codec c) {
  switch (c) {
    case compression::Codec::kFp16:
      return 10;
    case compression::Codec::kInt8:
    case compression::Codec::kInt8Sr:
      return 7;
    default:
      return 16;
  }
}

struct GroupFelConfig {
  // Algorithm 1 hyperparameters.
  std::size_t global_rounds = 40;   ///< T
  std::size_t group_rounds = 2;     ///< K
  std::size_t local_epochs = 2;     ///< E
  std::size_t sampled_groups = 6;   ///< S = |S_t|

  algorithms::LocalTrainConfig local;
  LocalRule rule = LocalRule::kSgd;

  grouping::GroupingMethod grouping = grouping::GroupingMethod::kCov;
  grouping::GroupingParams grouping_params{};

  sampling::SamplingMethod sampling = sampling::SamplingMethod::kESRCov;
  sampling::AggregationMode aggregation = sampling::AggregationMode::kBiased;

  /// Re-run group formation every N global rounds (0 = never) — the §6.1
  /// regrouping suggestion; exercised by the ablation bench.
  std::size_t regroup_interval = 0;

  FedClarConfig fedclar{};
  BackdoorConfig backdoor{};

  /// Per-round probability that a selected client fails to return its
  /// update (mobile churn). Dropped clients are excluded from the group
  /// aggregation (weights renormalized over survivors); with
  /// use_real_secagg their masks are reconstructed from Shamir shares —
  /// the protocol's dropout-recovery path exercised inside training.
  /// When fewer than ceil(2|g|/3) members survive (the secure-aggregation
  /// quorum), the group round is skipped and the group model carries over;
  /// the plaintext path applies the same quorum for consistency.
  double client_dropout_rate = 0.0;

  /// Evaluate the global model every N rounds (always at the last round).
  std::size_t eval_every = 1;

  /// Record the global parameter vector after every round in
  /// TrainResult::param_history (memory: rounds x param_count floats).
  /// Used by the convergence-theory bench to evaluate ||grad f(x_t)||^2.
  bool record_param_history = false;

  /// Run group aggregation through the REAL secure-aggregation protocol
  /// instead of plain weighted averaging. Bit-exact up to fixed-point
  /// rounding; much slower, used by tests/examples.
  bool use_real_secagg = false;

  // Only benchmark/src/replay.cpp reads this; ROADMAP item 1b deletes both.
  static constexpr bool reuse_model_replicas = true;
  // Only benchmark/src/replay.cpp reads this; ROADMAP item 1b deletes both.
  static constexpr bool parallel_aggregation = true;

  /// Compute + wire precision (defaults are the exact fp32 path, byte- and
  /// bit-identical to configs that predate the knob).
  PrecisionConfig precision{};

  std::uint64_t seed = 1234;
};

/// The named methods of the paper's evaluation (§7.3).
enum class Method {
  kFedAvg,
  kFedProx,
  kScaffold,
  kGroupFel,
  kOuea,
  kShare,
  kFedClar,
};

[[nodiscard]] std::string to_string(Method method);

/// Applies a method preset onto `cfg` (grouping/sampling/rule/fedclar
/// fields; the Algorithm 1 hyperparameters are left untouched).
void apply_method(Method method, GroupFelConfig& cfg);

/// Cost-model group operation for a method (SCAFFOLD ships control
/// variates, so its secure aggregation costs more).
[[nodiscard]] cost::GroupOp cost_group_op(Method method);

}  // namespace groupfel::core
