// Binary codecs for the sweep wire protocol and checkpoint journal.
//
// A SweepCell (ExperimentSpec + GroupFelConfig + cost selection) crosses the
// pipe TO a worker process; a SweepCellResult (full TrainResult) crosses it
// BACK and is also what the `--resume` journal persists per completed cell.
// Codecs are exact: every float/double round-trips bit-for-bit (raw byte
// copies via nn::ByteWriter), which is what lets the process backend and a
// resumed sweep stay byte-identical to the serial loop.
//
// Every top-level payload leads with kSweepCodecVersion, and enums are
// range-checked on decode, so a stale worker binary or corrupted journal
// fails with a diagnosable std::runtime_error instead of a misread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/sweep.hpp"
#include "nn/serialize.hpp"

namespace groupfel::core {

/// Bump when any encoded struct changes shape.
/// v2: GroupingParams gained parallel_windows.
/// v3: the legacy toggles are gone (three booleans: the batch-buffer,
///     model-replica and parallel-aggregation A/B switches).
/// v4: local.epochs (overwritten by local_epochs), fedprox_mu,
///     grouping_params.num_clusters and .parallel_windows,
///     fedclar.merge_threshold and backdoor.attack_scale are not encoded.
inline constexpr std::uint32_t kSweepCodecVersion = 4;

// Field-level codecs (composable; used by the top-level payloads below and
// directly by tests).
void encode(nn::ByteWriter& w, const ExperimentSpec& spec);
[[nodiscard]] ExperimentSpec decode_experiment_spec(nn::ByteReader& r);

void encode(nn::ByteWriter& w, const GroupFelConfig& cfg);
[[nodiscard]] GroupFelConfig decode_group_fel_config(nn::ByteReader& r);

void encode(nn::ByteWriter& w, const TrainResult& result);
[[nodiscard]] TrainResult decode_train_result(nn::ByteReader& r);

// Top-level payloads (version-prefixed, expect_done-checked).
[[nodiscard]] std::vector<std::byte> encode_cell(const SweepCell& cell);
[[nodiscard]] SweepCell decode_cell(std::span<const std::byte> payload);

[[nodiscard]] std::vector<std::byte> encode_cell_result(
    const SweepCellResult& result);
[[nodiscard]] SweepCellResult decode_cell_result(
    std::span<const std::byte> payload);

/// Identity of a sweep: FNV-1a over every encoded cell, in order. The
/// journal stores it so `--resume` against a journal written by a DIFFERENT
/// cell list (edited config, different seeds) is rejected instead of
/// silently merging incompatible results.
[[nodiscard]] std::uint64_t sweep_fingerprint(
    const std::vector<SweepCell>& cells);

}  // namespace groupfel::core
