#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "nn/models.hpp"
#include "runtime/rng.hpp"

namespace groupfel::nn {
namespace {

const char* kPath = "/tmp/groupfel_checkpoint_test.bin";

TEST(Checkpoint, RoundTripsParameters) {
  runtime::Rng rng(1);
  Model m = make_mlp(8, 16, 4);
  m.init(rng);
  const std::vector<float> params = m.flat_parameters();
  save_checkpoint(kPath, params);
  const std::vector<float> loaded = load_checkpoint(kPath);
  EXPECT_EQ(loaded, params);
  std::remove(kPath);
}

TEST(Checkpoint, RoundTripsEmptyVector) {
  save_checkpoint(kPath, std::vector<float>{});
  EXPECT_TRUE(load_checkpoint(kPath).empty());
  std::remove(kPath);
}

TEST(Checkpoint, LoadedModelPredictsIdentically) {
  runtime::Rng rng(2);
  Model m = make_mlp(6, 12, 3);
  m.init(rng);
  save_checkpoint(kPath, m.flat_parameters());

  Model fresh = make_mlp(6, 12, 3);
  fresh.set_flat_parameters(load_checkpoint(kPath));
  Tensor x({3, 6});
  for (auto& v : x.data()) v = static_cast<float>(rng.normal());
  const Tensor a = m.forward(x, false);
  const Tensor b = fresh.forward(x, false);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  std::remove(kPath);
}

TEST(Checkpoint, RejectsMissingFile) {
  EXPECT_THROW((void)load_checkpoint("/tmp/does_not_exist_groupfel.bin"),
               std::runtime_error);
}

TEST(Checkpoint, RejectsBadMagic) {
  std::ofstream out(kPath, std::ios::binary);
  const std::uint64_t junk[3] = {0xdeadbeef, 4, 0};
  out.write(reinterpret_cast<const char*>(junk), sizeof(junk));
  const float data[4] = {1, 2, 3, 4};
  out.write(reinterpret_cast<const char*>(data), sizeof(data));
  out.close();
  EXPECT_THROW((void)load_checkpoint(kPath), std::runtime_error);
  std::remove(kPath);
}

TEST(Checkpoint, RejectsTruncation) {
  save_checkpoint(kPath, std::vector<float>(64, 1.0f));
  // Truncate the file to cut into the data section.
  {
    std::ifstream in(kPath, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() - 16);
    std::ofstream out(kPath, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW((void)load_checkpoint(kPath), std::runtime_error);
  std::remove(kPath);
}

TEST(Checkpoint, RejectsCorruptedData) {
  save_checkpoint(kPath, std::vector<float>(64, 1.0f));
  {
    std::fstream f(kPath, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(24 + 13);  // somewhere in the data section
    const char flip = 0x7f;
    f.write(&flip, 1);
  }
  EXPECT_THROW((void)load_checkpoint(kPath), std::runtime_error);
  std::remove(kPath);
}

TEST(Fnv1a, KnownValues) {
  // FNV-1a of empty input is the offset basis.
  EXPECT_EQ(fnv1a({}), 0xcbf29ce484222325ull);
  const std::byte a{0x61};  // 'a'
  EXPECT_EQ(fnv1a({&a, 1}), 0xaf63dc4c8601ec8cull);
}

TEST(ByteCodec, ScalarsRoundTrip) {
  ByteWriter w;
  w.u8(7);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.f32(-1.5f);
  w.f64(3.141592653589793);
  w.boolean(true);
  w.size(1'000'000);  // a plain value, NOT bounded by payload length
  w.str("hello");
  w.f32_span(std::vector<float>{1.0f, 2.0f, 3.0f});

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.f32(), -1.5f);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.size(), 1'000'000u);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.f32_vec(), (std::vector<float>{1.0f, 2.0f, 3.0f}));
  r.expect_done();
}

TEST(ByteCodec, ThrowsOnTruncatedPayload) {
  ByteWriter w;
  w.u32(42);
  ByteReader r(w.bytes());
  EXPECT_THROW((void)r.u64(), std::runtime_error);
}

TEST(ByteCodec, ThrowsOnOversizedSequenceCount) {
  ByteWriter w;
  w.size(1u << 20);  // claims a million floats...
  w.f32(0.0f);       // ...but only 4 bytes follow
  ByteReader r(w.bytes());
  EXPECT_THROW((void)r.f32_vec(), std::runtime_error);
}

TEST(ByteCodec, ExpectDoneThrowsOnLeftoverBytes) {
  ByteWriter w;
  w.u32(1);
  w.u32(2);
  ByteReader r(w.bytes());
  (void)r.u32();
  EXPECT_THROW(r.expect_done(), std::runtime_error);
}

}  // namespace
}  // namespace groupfel::nn

// ---- Sweep wire protocol + struct codecs ----------------------------------

#include "core/sweep_codec.hpp"
#include "runtime/proc/wire.hpp"

namespace groupfel::core {
namespace {

namespace proc = runtime::proc;

[[nodiscard]] std::vector<std::byte> some_payload() {
  nn::ByteWriter w;
  w.str("sweep frame payload");
  w.u64(12345);
  return w.take();
}

TEST(WireFrame, RoundTrips) {
  const std::vector<std::byte> payload = some_payload();
  const std::vector<std::byte> frame = proc::encode_frame(42, payload);
  EXPECT_EQ(frame.size(), proc::kFrameHeaderBytes + payload.size());

  std::size_t offset = 0;
  proc::Frame out;
  ASSERT_EQ(proc::parse_frame(frame, offset, out), proc::ParseStatus::kOk);
  EXPECT_EQ(out.type, 42u);
  EXPECT_EQ(out.payload, payload);
  EXPECT_EQ(offset, frame.size());
}

TEST(WireFrame, ReportsTruncatedTail) {
  const std::vector<std::byte> frame = proc::encode_frame(1, some_payload());
  proc::Frame out;
  // Every strict prefix is kNeedMore — a kill mid-append can stop anywhere.
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    std::size_t offset = 0;
    const std::span<const std::byte> prefix(frame.data(), cut);
    EXPECT_EQ(proc::parse_frame(prefix, offset, out),
              proc::ParseStatus::kNeedMore);
    EXPECT_EQ(offset, 0u);  // untouched on failure
  }
}

TEST(WireFrame, RejectsBadMagic) {
  std::vector<std::byte> frame = proc::encode_frame(1, some_payload());
  frame[0] ^= std::byte{0xff};
  std::size_t offset = 0;
  proc::Frame out;
  EXPECT_EQ(proc::parse_frame(frame, offset, out), proc::ParseStatus::kBadMagic);
}

TEST(WireFrame, RejectsCrcMismatch) {
  std::vector<std::byte> frame = proc::encode_frame(1, some_payload());
  frame.back() ^= std::byte{0x01};  // flip one payload bit
  std::size_t offset = 0;
  proc::Frame out;
  EXPECT_EQ(proc::parse_frame(frame, offset, out), proc::ParseStatus::kBadCrc);
  EXPECT_EQ(offset, 0u);
}

[[nodiscard]] ExperimentSpec sample_spec() {
  ExperimentSpec spec;
  spec.num_clients = 37;
  spec.num_edges = 5;
  spec.alpha = 0.25;
  spec.size_mean = 48.5;
  spec.seed = 0xfeedface;
  spec.model = ModelKind::kMlp;
  return spec;
}

TEST(SweepCodec, ExperimentSpecRoundTrips) {
  const ExperimentSpec spec = sample_spec();
  nn::ByteWriter w;
  encode(w, spec);
  nn::ByteReader r(w.bytes());
  const ExperimentSpec back = decode_experiment_spec(r);
  r.expect_done();
  EXPECT_TRUE(back == spec);
}

TEST(SweepCodec, GroupFelConfigRoundTrips) {
  GroupFelConfig cfg;
  cfg.global_rounds = 9;
  cfg.group_rounds = 3;
  cfg.sampled_groups = 4;
  cfg.local.lr = 0.0625f;
  cfg.rule = LocalRule::kFedProx;
  cfg.fedprox_mu = 0.125f;
  cfg.grouping = grouping::GroupingMethod::kCov;
  cfg.grouping_params.max_cov = 0.75;
  cfg.backdoor.attack = true;
  cfg.backdoor.attack_scale = 2.5;
  cfg.client_dropout_rate = 0.125;
  cfg.seed = 77;

  nn::ByteWriter w;
  encode(w, cfg);
  nn::ByteReader r(w.bytes());
  const GroupFelConfig back = decode_group_fel_config(r);
  r.expect_done();

  // Bit-exact round trip: re-encoding the decoded config must reproduce the
  // original bytes (field-by-field equality without an operator==).
  nn::ByteWriter w2;
  encode(w2, back);
  EXPECT_EQ(w2.bytes(), w.bytes());
  EXPECT_EQ(back.global_rounds, 9u);
  EXPECT_EQ(back.rule, LocalRule::kFedProx);
  EXPECT_EQ(back.local.lr, 0.0625f);
  EXPECT_EQ(back.backdoor.attack_scale, 2.5);
}

[[nodiscard]] SweepCellResult sample_result() {
  SweepCellResult res;
  res.label = "cov/seed3";
  res.seconds = 1.5;
  res.result.history.resize(2);
  res.result.history[0].round = 1;
  res.result.history[0].accuracy = 0.5;
  res.result.history[1].round = 2;
  res.result.history[1].accuracy = 0.625;
  res.result.final_params = {0.1f, -0.2f, 0.3f};
  res.result.grouping.num_groups = 4;
  res.result.grouping.max_size = 1'000'000;  // large VALUE, not a count
  res.result.total_cost = 123.5;
  res.result.final_accuracy = 0.625;
  res.result.best_accuracy = 0.625;
  res.result.param_history = {{1.0f, 2.0f}, {3.0f, 4.0f}};
  return res;
}

TEST(SweepCodec, SweepCellResultRoundTrips) {
  const SweepCellResult res = sample_result();
  const std::vector<std::byte> payload = encode_cell_result(res);
  const SweepCellResult back = decode_cell_result(payload);
  EXPECT_EQ(back.label, res.label);
  EXPECT_EQ(back.seconds, res.seconds);
  EXPECT_EQ(back.result.final_params, res.result.final_params);
  EXPECT_EQ(back.result.param_history, res.result.param_history);
  EXPECT_EQ(back.result.grouping.max_size, 1'000'000u);
  ASSERT_EQ(back.result.history.size(), 2u);
  EXPECT_EQ(back.result.history[1].accuracy, 0.625);
  // And byte-exactly: encode(decode(x)) == x.
  EXPECT_EQ(encode_cell_result(back), payload);
}

TEST(SweepCodec, SweepCellRoundTrips) {
  SweepCell cell;
  cell.label = "kld/seed7";
  cell.spec = sample_spec();
  cell.config.global_rounds = 6;
  cell.cost_budget = 250.0;
  const std::vector<std::byte> payload = encode_cell(cell);
  const SweepCell back = decode_cell(payload);
  EXPECT_EQ(back.label, cell.label);
  EXPECT_TRUE(back.spec == cell.spec);
  EXPECT_EQ(back.cost_budget, 250.0);
  EXPECT_EQ(encode_cell(back), payload);
}

TEST(SweepCodec, RejectsOutOfRangeEnum) {
  nn::ByteWriter w;
  w.u32(9999);  // no Task enumerator has this value
  nn::ByteReader r(w.bytes());
  EXPECT_THROW((void)decode_experiment_spec(r), std::runtime_error);
}

TEST(SweepCodec, RejectsRetiredComputePrecision) {
  // Encode the config twice, differing only in the compute precision, to
  // locate that field's byte; then write the retired value 2 into it.
  GroupFelConfig cfg;
  cfg.precision.compute = nn::StoragePrecision::kBf16;
  nn::ByteWriter bf16, fp32;
  encode(bf16, cfg);
  cfg.precision.compute = nn::StoragePrecision::kFp32;
  encode(fp32, cfg);
  std::vector<std::byte> payload = bf16.bytes();
  ASSERT_EQ(payload.size(), fp32.bytes().size());
  std::size_t at = payload.size();
  for (std::size_t i = 0; i < payload.size(); ++i)
    if (payload[i] != fp32.bytes()[i]) at = i;
  ASSERT_LT(at, payload.size());
  payload[at] = std::byte{2};
  nn::ByteReader r(payload);
  try {
    (void)decode_group_fel_config(r);
    FAIL() << "expected the retired StoragePrecision value to be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("StoragePrecision"),
              std::string::npos)
        << e.what();
  }
}

TEST(SweepCodec, RejectsWrongCodecVersion) {
  std::vector<std::byte> payload = encode_cell_result(sample_result());
  payload[0] ^= std::byte{0x40};  // corrupt the leading version word
  EXPECT_THROW((void)decode_cell_result(payload), std::runtime_error);
}

TEST(SweepCodec, RejectsTruncatedPayload) {
  std::vector<std::byte> payload = encode_cell_result(sample_result());
  payload.resize(payload.size() / 2);
  EXPECT_THROW((void)decode_cell_result(payload), std::runtime_error);
}

TEST(SweepCodec, FingerprintTracksCellContent) {
  SweepCell cell;
  cell.label = "a";
  const std::uint64_t original_seed = cell.config.seed;
  const std::uint64_t fp1 = sweep_fingerprint({cell});
  cell.config.seed = original_seed + 1;
  const std::uint64_t fp2 = sweep_fingerprint({cell});
  EXPECT_NE(fp1, fp2);
  cell.config.seed = original_seed;
  EXPECT_EQ(sweep_fingerprint({cell}), fp1);
  EXPECT_NE(sweep_fingerprint({cell, cell}), fp1);
}

}  // namespace
}  // namespace groupfel::core
