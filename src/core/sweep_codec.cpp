#include "core/sweep_codec.hpp"

#include <stdexcept>
#include <string>

namespace groupfel::core {

namespace {

/// Encodes any enum as its underlying integral value widened to u32.
template <typename E>
void put_enum(nn::ByteWriter& w, E v) {
  w.u32(static_cast<std::uint32_t>(v));
}

/// Range-checked enum decode: enumerators are contiguous from 0 in this
/// codebase, so `last` bounds the valid range.
template <typename E>
[[nodiscard]] E get_enum(nn::ByteReader& r, E last, const char* what) {
  const std::uint32_t v = r.u32();
  if (v > static_cast<std::uint32_t>(last))
    throw std::runtime_error(std::string("sweep codec: out-of-range ") + what +
                             " value " + std::to_string(v));
  return static_cast<E>(v);
}

void check_version(nn::ByteReader& r, const char* what) {
  const std::uint32_t v = r.u32();
  if (v != kSweepCodecVersion)
    throw std::runtime_error(std::string("sweep codec: ") + what +
                             " encoded with codec version " +
                             std::to_string(v) + ", expected " +
                             std::to_string(kSweepCodecVersion));
}

}  // namespace

// ---- ExperimentSpec -------------------------------------------------------

void encode(nn::ByteWriter& w, const ExperimentSpec& spec) {
  put_enum(w, spec.task);
  w.size(spec.num_clients);
  w.size(spec.num_edges);
  w.f64(spec.alpha);
  w.f64(spec.size_mean);
  w.f64(spec.size_std);
  w.size(spec.size_min);
  w.size(spec.size_max);
  w.size(spec.test_size);
  put_enum(w, spec.model);
  w.size(spec.mlp_hidden);
  w.u64(spec.seed);
  put_enum(w, spec.client_state);
}

ExperimentSpec decode_experiment_spec(nn::ByteReader& r) {
  ExperimentSpec spec;
  spec.task = get_enum(r, cost::Task::kSpeechCommands, "Task");
  spec.num_clients = r.size();
  spec.num_edges = r.size();
  spec.alpha = r.f64();
  spec.size_mean = r.f64();
  spec.size_std = r.f64();
  spec.size_min = r.size();
  spec.size_max = r.size();
  spec.test_size = r.size();
  spec.model = get_enum(r, ModelKind::kCnn5, "ModelKind");
  spec.mlp_hidden = r.size();
  spec.seed = r.u64();
  spec.client_state = get_enum(r, ClientStateMode::kLazy, "ClientStateMode");
  return spec;
}

// ---- GroupFelConfig -------------------------------------------------------

void encode(nn::ByteWriter& w, const GroupFelConfig& cfg) {
  w.size(cfg.global_rounds);
  w.size(cfg.group_rounds);
  w.size(cfg.local_epochs);
  w.size(cfg.sampled_groups);

  w.size(cfg.local.batch_size);
  w.f32(cfg.local.lr);
  w.f32(cfg.local.momentum);
  w.f32(cfg.local.weight_decay);
  // local.epochs is not encoded: the trainer overwrites it with
  // local_epochs.

  put_enum(w, cfg.rule);

  put_enum(w, cfg.grouping);
  w.size(cfg.grouping_params.min_group_size);
  w.f64(cfg.grouping_params.max_cov);
  w.f64(cfg.grouping_params.kld_threshold);
  w.size(cfg.grouping_params.greedy_window);

  put_enum(w, cfg.sampling);
  put_enum(w, cfg.aggregation);
  w.size(cfg.regroup_interval);

  w.boolean(cfg.fedclar.enabled);
  w.size(cfg.fedclar.cluster_round);

  w.boolean(cfg.backdoor.attack);
  w.boolean(cfg.backdoor.defense);
  w.f64(cfg.backdoor.flame.separation_threshold);
  w.f64(cfg.backdoor.flame.noise_factor);

  w.f64(cfg.client_dropout_rate);
  w.size(cfg.eval_every);
  w.boolean(cfg.record_param_history);
  w.boolean(cfg.use_real_secagg);

  put_enum(w, cfg.precision.compute);
  put_enum(w, cfg.precision.wire);

  w.u64(cfg.seed);
}

GroupFelConfig decode_group_fel_config(nn::ByteReader& r) {
  GroupFelConfig cfg;
  cfg.global_rounds = r.size();
  cfg.group_rounds = r.size();
  cfg.local_epochs = r.size();
  cfg.sampled_groups = r.size();

  cfg.local.batch_size = r.size();
  cfg.local.lr = r.f32();
  cfg.local.momentum = r.f32();
  cfg.local.weight_decay = r.f32();

  cfg.rule = get_enum(r, LocalRule::kScaffold, "LocalRule");

  cfg.grouping = get_enum(r, grouping::GroupingMethod::kCov, "GroupingMethod");
  cfg.grouping_params.min_group_size = r.size();
  cfg.grouping_params.max_cov = r.f64();
  cfg.grouping_params.kld_threshold = r.f64();
  cfg.grouping_params.greedy_window = r.size();

  cfg.sampling =
      get_enum(r, sampling::SamplingMethod::kESRCov, "SamplingMethod");
  cfg.aggregation =
      get_enum(r, sampling::AggregationMode::kStabilized, "AggregationMode");
  cfg.regroup_interval = r.size();

  cfg.fedclar.enabled = r.boolean();
  cfg.fedclar.cluster_round = r.size();

  cfg.backdoor.attack = r.boolean();
  cfg.backdoor.defense = r.boolean();
  cfg.backdoor.flame.separation_threshold = r.f64();
  cfg.backdoor.flame.noise_factor = r.f64();

  cfg.client_dropout_rate = r.f64();
  cfg.eval_every = r.size();
  cfg.record_param_history = r.boolean();
  cfg.use_real_secagg = r.boolean();

  // The value 2 (a retired fp16 compute storage) is rejected; the field
  // keeps its u32 slot.
  cfg.precision.compute =
      get_enum(r, nn::StoragePrecision::kBf16, "StoragePrecision");
  cfg.precision.wire = get_enum(r, compression::Codec::kFp16, "Codec");

  cfg.seed = r.u64();
  return cfg;
}

// ---- TrainResult ----------------------------------------------------------

void encode(nn::ByteWriter& w, const TrainResult& result) {
  w.size(result.history.size());
  for (const RoundMetrics& m : result.history) {
    w.size(m.round);
    w.f64(m.accuracy);
    w.f64(m.test_loss);
    w.f64(m.train_loss);
    w.f64(m.cumulative_cost);
    w.f64(m.cumulative_comm_bytes);
  }
  w.f32_span(result.final_params);

  w.size(result.grouping.num_groups);
  w.size(result.grouping.min_size);
  w.size(result.grouping.max_size);
  w.f64(result.grouping.avg_size);
  w.f64(result.grouping.avg_cov);
  w.f64(result.grouping.max_group_cov);

  w.f64(result.total_cost);
  w.f64(result.final_accuracy);
  w.f64(result.best_accuracy);
  w.size(result.defense_rejections);

  w.size(result.param_history.size());
  for (const auto& params : result.param_history) w.f32_span(params);
}

TrainResult decode_train_result(nn::ByteReader& r) {
  TrainResult result;
  // Sequence prefixes go through count(): each element writes >= 8 bytes,
  // which bounds a corrupt count before the resize.
  result.history.resize(r.count(8));
  for (RoundMetrics& m : result.history) {
    m.round = r.size();
    m.accuracy = r.f64();
    m.test_loss = r.f64();
    m.train_loss = r.f64();
    m.cumulative_cost = r.f64();
    m.cumulative_comm_bytes = r.f64();
  }
  result.final_params = r.f32_vec();

  result.grouping.num_groups = r.size();
  result.grouping.min_size = r.size();
  result.grouping.max_size = r.size();
  result.grouping.avg_size = r.f64();
  result.grouping.avg_cov = r.f64();
  result.grouping.max_group_cov = r.f64();

  result.total_cost = r.f64();
  result.final_accuracy = r.f64();
  result.best_accuracy = r.f64();
  result.defense_rejections = r.size();

  result.param_history.resize(r.count(8));
  for (auto& params : result.param_history) params = r.f32_vec();
  return result;
}

// ---- Top-level payloads ---------------------------------------------------

std::vector<std::byte> encode_cell(const SweepCell& cell) {
  nn::ByteWriter w;
  w.u32(kSweepCodecVersion);
  w.str(cell.label);
  encode(w, cell.spec);
  encode(w, cell.config);
  put_enum(w, cell.task);
  put_enum(w, cell.op);
  w.f64(cell.cost_budget);
  return w.take();
}

SweepCell decode_cell(std::span<const std::byte> payload) {
  nn::ByteReader r(payload);
  check_version(r, "SweepCell");
  SweepCell cell;
  cell.label = r.str();
  cell.spec = decode_experiment_spec(r);
  cell.config = decode_group_fel_config(r);
  cell.task = get_enum(r, cost::Task::kSpeechCommands, "Task");
  cell.op = get_enum(r, cost::GroupOp::kScaffoldSecAgg, "GroupOp");
  cell.cost_budget = r.f64();
  r.expect_done();
  return cell;
}

std::vector<std::byte> encode_cell_result(const SweepCellResult& result) {
  nn::ByteWriter w;
  w.u32(kSweepCodecVersion);
  w.str(result.label);
  encode(w, result.result);
  w.f64(result.seconds);
  return w.take();
}

SweepCellResult decode_cell_result(std::span<const std::byte> payload) {
  nn::ByteReader r(payload);
  check_version(r, "SweepCellResult");
  SweepCellResult result;
  result.label = r.str();
  result.result = decode_train_result(r);
  result.seconds = r.f64();
  r.expect_done();
  return result;
}

std::uint64_t sweep_fingerprint(const std::vector<SweepCell>& cells) {
  nn::ByteWriter w;
  w.u32(kSweepCodecVersion);
  w.size(cells.size());
  for (const SweepCell& cell : cells) {
    const std::vector<std::byte> bytes = encode_cell(cell);
    w.u64(nn::fnv1a(bytes));
  }
  return nn::fnv1a(w.bytes());
}

}  // namespace groupfel::core
