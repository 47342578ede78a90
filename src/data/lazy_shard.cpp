#include "data/lazy_shard.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "runtime/xoshiro_lanes.hpp"
#include "util/check.hpp"

namespace groupfel::data {

namespace {

// Samples synthesized together: eight consecutive positions, one sample
// stream per lane.
constexpr std::size_t kLanes = 8;
// Box–Muller pairs per lane drawn and transformed per block, so a group's
// scratch is a few KiB of stack at any sample size.
constexpr std::size_t kPairBlock = 32;

// The stream lanes are one native register wide (runtime/xoshiro_lanes.hpp:
// 8 with AVX-512, 4 with AVX, 2 otherwise), so the eight streams run as one
// to four parts.
using runtime::lanes::kWidth;
using runtime::lanes::vec_f64;
using runtime::lanes::vec_u64;
static_assert(kLanes % kWidth == 0);

// The eight streams' xoshiro256++ words, word-major: s[w][l] is word w of
// lane l, so a part of one word is one vector load.
struct LaneStates {
  alignas(64) std::uint64_t s[4][kLanes];
};

// Lane l becomes Rng(sample_stream_seed(client_seed, first + l)): the
// splitmix64 seed plus four splitmix64 words, in a loop the compiler
// vectorises where the ISA has 64-bit lane multiplies.
void seed_lanes(std::uint64_t client_seed, std::uint64_t first,
                LaneStates& st) noexcept {
  for (std::size_t l = 0; l < kLanes; ++l) {
    std::uint64_t sm = sample_stream_seed(client_seed, first + l);
    for (auto& word : st.s) word[l] = runtime::splitmix64(sm);
  }
}

// One next_u64() from every lane's stream into x[l].
void step_lanes(LaneStates& st, std::uint64_t* x) noexcept {
  for (std::size_t part = 0; part < kLanes; part += kWidth) {
    vec_u64 s0{}, s1{}, s2{}, s3{}, v{};
    std::memcpy(&s0, &st.s[0][part], sizeof s0);
    std::memcpy(&s1, &st.s[1][part], sizeof s1);
    std::memcpy(&s2, &st.s[2][part], sizeof s2);
    std::memcpy(&s3, &st.s[3][part], sizeof s3);
    runtime::lanes::xoshiro_step(s0, s1, s2, s3, v);
    std::memcpy(x + part, &v, sizeof v);
    std::memcpy(&st.s[0][part], &s0, sizeof s0);
    std::memcpy(&st.s[1][part], &s1, sizeof s1);
    std::memcpy(&st.s[2][part], &s2, sizeof s2);
    std::memcpy(&st.s[3][part], &s3, sizeof s3);
  }
}

// `pairs` Box–Muller uniform pairs from every lane's stream, in stream
// order (u1, u2, next pair): u1[p * kLanes + l] and u2[p * kLanes + l].
// Returns a mask with bit l set when lane l drew a u1 that normal() would
// redraw: u1 <= 1e-300 means u1 == 0, as next_double() is a multiple of
// 2^-53.
std::uint32_t draw_uniforms(LaneStates& st, std::size_t pairs, double* u1,
                            double* u2) noexcept {
  std::uint32_t redraw = 0;
  for (std::size_t part = 0; part < kLanes; part += kWidth) {
    vec_u64 s0{}, s1{}, s2{}, s3{}, zero{};
    std::memcpy(&s0, &st.s[0][part], sizeof s0);
    std::memcpy(&s1, &st.s[1][part], sizeof s1);
    std::memcpy(&s2, &st.s[2][part], sizeof s2);
    std::memcpy(&s3, &st.s[3][part], sizeof s3);
    for (std::size_t p = 0; p < pairs; ++p) {
      vec_u64 x{};
      vec_f64 a{}, b{};
      runtime::lanes::xoshiro_step(s0, s1, s2, s3, x);
      zero |= (vec_u64)((x >> 11) == 0);
      runtime::lanes::unit_doubles(x, a);
      runtime::lanes::xoshiro_step(s0, s1, s2, s3, x);
      runtime::lanes::unit_doubles(x, b);
      std::memcpy(u1 + p * kLanes + part, &a, sizeof a);
      std::memcpy(u2 + p * kLanes + part, &b, sizeof b);
    }
    std::memcpy(&st.s[0][part], &s0, sizeof s0);
    std::memcpy(&st.s[1][part], &s1, sizeof s1);
    std::memcpy(&st.s[2][part], &s2, sizeof s2);
    std::memcpy(&st.s[3][part], &s3, sizeof s3);
    for (std::size_t i = 0; i < kWidth; ++i)
      redraw |= static_cast<std::uint32_t>(zero[i] != 0) << (part + i);
  }
  return redraw;
}

// One client's samples, eight at a time, each exactly as synthesize_sample()
// makes it from its own stream: mode draw, prototype plus noise, label
// reroll.
class LaneSynth {
 public:
  LaneSynth(const SyntheticSpec& spec, std::span<const float> prototypes,
            std::size_t dim, std::uint64_t client_seed)
      : spec_(spec),
        prototypes_(prototypes),
        dim_(dim),
        client_seed_(client_seed) {}

  // Samples first .. first + lanes - 1 (lanes <= kLanes) of intended
  // classes cls[0 .. lanes) into rows 0 .. lanes - 1 of features/labels.
  void group(std::size_t first, std::size_t lanes, const std::size_t* cls,
             float* features, std::int32_t* labels) {
    LaneStates st;
    seed_lanes(client_seed_, first, st);
    std::uint64_t x[kLanes];
    const std::size_t modes = spec_.modes_per_class;
    const float* proto[kLanes];
    float* row[kLanes];
    if (modes > 1) {
      step_lanes(st, x);
      for (std::size_t l = 0; l < lanes; ++l) {
        // next_below(modes) from its first draw. When Lemire's method
        // would test for rejection (low word < modes, about modes / 2^64
        // of draws), the group goes through synthesize_sample() instead.
        const __uint128_t m = static_cast<__uint128_t>(x[l]) * modes;
        if (static_cast<std::uint64_t>(m) < modes) {
          scalar_group(first, lanes, cls, features, labels);
          return;
        }
        proto[l] = prototypes_.data() +
                   (cls[l] * modes + static_cast<std::size_t>(m >> 64)) * dim_;
      }
    } else {
      for (std::size_t l = 0; l < lanes; ++l)
        proto[l] = prototypes_.data() + cls[l] * dim_;
    }
    for (std::size_t l = 0; l < lanes; ++l) row[l] = features + l * dim_;

    // add_normals() over dim values: dim / 2 pairs, and for an odd dim one
    // more pair (normal()'s) whose cos half is the last value.
    const std::size_t half_pairs = dim_ / 2;
    const std::size_t pairs = (dim_ + 1) / 2;
    alignas(64) double u1[kPairBlock * kLanes], u2[kPairBlock * kLanes];
    alignas(64) float halves[2 * kPairBlock * kLanes];
    for (std::size_t p0 = 0; p0 < pairs; p0 += kPairBlock) {
      const std::size_t np = std::min(kPairBlock, pairs - p0);
      if (draw_uniforms(st, np, u1, u2) & ((1u << lanes) - 1)) {
        scalar_group(first, lanes, cls, features, labels);
        return;
      }
      const std::size_t n = np * kLanes;
      (void)runtime::detail::scaled_normal_pairs(
          {u1, n}, {u2, n}, spec_.noise_scale, {halves, 2 * n});
      // Pair q of lane l is at halves[2 (q * kLanes + l)]. Walking the
      // pairs in that order reads halves contiguously and ran as fast as an
      // 8 x 8 in-register transpose of the pairs on AVX-512, which moved
      // fleet_1m's rounds/s by less than its noise (-0.4%, 6 of 10 pairs).
      const std::size_t full = std::min(p0 + np, half_pairs) - p0;
      for (std::size_t q = 0; q < full; ++q) {
        const std::size_t d = 2 * (p0 + q);
        const float* h = halves + 2 * q * kLanes;
        for (std::size_t l = 0; l < lanes; ++l) {
          row[l][d] = proto[l][d] + h[2 * l];
          row[l][d + 1] = proto[l][d + 1] + h[2 * l + 1];
        }
      }
      if (full < np) {
        const std::size_t d = 2 * (p0 + full);
        for (std::size_t l = 0; l < lanes; ++l)
          row[l][d] = proto[l][d] + halves[2 * (full * kLanes + l)];
      }
    }

    if (spec_.label_noise > 0.0) step_lanes(st, x);
    for (std::size_t l = 0; l < lanes; ++l) {
      // next_double() < label_noise rerolls through next_below(), the
      // lane's last draw, so its stream need not be stored back.
      std::int32_t label = static_cast<std::int32_t>(cls[l]);
      if (spec_.label_noise > 0.0 &&
          static_cast<double>(x[l] >> 11) * 0x1.0p-53 < spec_.label_noise) {
        rng_.set_state({st.s[0][l], st.s[1][l], st.s[2][l], st.s[3][l]});
        label = static_cast<std::int32_t>(rng_.next_below(spec_.num_classes));
      }
      labels[l] = label;
    }
  }

 private:
  void scalar_group(std::size_t first, std::size_t lanes,
                    const std::size_t* cls, float* features,
                    std::int32_t* labels) const {
    for (std::size_t l = 0; l < lanes; ++l)
      labels[l] = synthesize_sample(
          spec_, prototypes_, sample_stream_seed(client_seed_, first + l),
          cls[l], features + l * dim_);
  }

  const SyntheticSpec& spec_;
  std::span<const float> prototypes_;
  std::size_t dim_;
  std::uint64_t client_seed_;
  runtime::Rng rng_;  ///< carries a lane's label reroll
};

// The batch_into() memo: the last client this thread synthesized, keyed by
// source id (never reused) and client index. Its buffers only grow.
struct ClientMemo {
  std::uint64_t source = 0;  ///< 0: empty; ids start at 1
  std::size_t client = 0;
  std::vector<float> features;
  std::vector<std::int32_t> labels;
};

}  // namespace

std::uint64_t LazyShardSource::next_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

LazyShardSource::LazyShardSource(SyntheticSpec spec, ClientPopulation population)
    : spec_(std::move(spec)),
      population_(std::move(population)),
      prototypes_(make_prototypes(spec_)),
      dim_(nn::shape_size(spec_.sample_shape)) {
  if (population_.num_classes() != spec_.num_classes)
    throw std::invalid_argument(
        "LazyShardSource: population/spec class count mismatch");
}

void LazyShardSource::batch_into(std::size_t c,
                                 std::span<const std::size_t> local_positions,
                                 DataSet::Batch& out) const {
  const std::size_t n_c = population_.data_count(c);
  for (const std::size_t pos : local_positions)
    if (pos >= n_c)
      throw std::out_of_range("LazyShardSource::batch_into: bad position");
  thread_local ClientMemo memo;
  if (memo.source != id_ || memo.client != c) {
    memo.source = 0;  // stays empty if synthesis throws
    if (memo.labels.size() < n_c) memo.labels.resize(n_c);
    if (memo.features.size() < n_c * dim_) memo.features.resize(n_c * dim_);
    materialize_client(c, {memo.features.data(), n_c * dim_},
                       {memo.labels.data(), n_c});
    memo.source = id_;
    memo.client = c;
  }
  prepare_batch(spec_.sample_shape, local_positions.size(), out);
  for (std::size_t i = 0; i < local_positions.size(); ++i) {
    const std::size_t pos = local_positions[i];
    std::copy_n(memo.features.data() + pos * dim_, dim_,
                out.features.raw() + i * dim_);
    out.labels[i] = memo.labels[pos];
  }
}

void LazyShardSource::materialize_client(
    std::size_t c, std::span<float> features,
    std::span<std::int32_t> labels) const {
  const std::size_t n_c = population_.data_count(c);
  if (features.size() != n_c * dim_ || labels.size() != n_c)
    throw std::invalid_argument(
        "LazyShardSource::materialize_client: output size != client size");
  const auto row = population_.label_counts(c);
  GF_CHECK_EQ(std::accumulate(row.begin(), row.end(), std::size_t{0}), n_c,
              "materialize_client: histogram/size mismatch");
  LaneSynth synth(spec_, prototypes_, dim_, population_.seed(c));
  // The canonical layout orders samples by ascending intended class, so the
  // histogram is walked once, eight positions at a time.
  std::size_t next = 0, cls = 0, left = 0;  // class to open; current, rest
  std::size_t lane_cls[kLanes];
  for (std::size_t first = 0; first < n_c; first += kLanes) {
    const std::size_t lanes = std::min(kLanes, n_c - first);
    for (std::size_t l = 0; l < lanes; ++l, --left) {
      while (left == 0) left = row[cls = next++];
      lane_cls[l] = cls;
    }
    synth.group(first, lanes, lane_cls, features.data() + first * dim_,
                labels.data() + first);
  }
}

DataSet::Batch LazyShardSource::materialize_client(std::size_t c) const {
  DataSet::Batch out;
  const std::size_t n_c = population_.data_count(c);
  prepare_batch(spec_.sample_shape, n_c, out);
  materialize_client(c, {out.features.raw(), n_c * dim_}, out.labels);
  return out;
}

MaterializedPopulation materialize_population(const LazyShardSource& source) {
  const ClientPopulation& pop = source.population();
  const std::size_t total = pop.total_samples();
  const std::size_t dim = source.sample_size();

  std::vector<std::size_t> shape;
  shape.push_back(total);
  shape.insert(shape.end(), source.sample_shape().begin(),
               source.sample_shape().end());
  nn::Tensor features(shape);
  std::vector<std::int32_t> labels(total);

  std::vector<std::size_t> offsets(pop.num_clients() + 1, 0);
  std::size_t cursor = 0;
  for (std::size_t c = 0; c < pop.num_clients(); ++c) {
    offsets[c] = cursor;
    const std::size_t n_c = pop.data_count(c);
    source.materialize_client(
        c, {features.raw() + cursor * dim, n_c * dim},
        std::span(labels).subspan(cursor, n_c));
    cursor += n_c;
  }
  offsets[pop.num_clients()] = cursor;
  GF_CHECK_EQ(cursor, total, "materialize_population: sample count drift");

  MaterializedPopulation out;
  out.dataset = std::make_shared<const DataSet>(
      std::move(features), std::move(labels), source.num_classes());
  out.shards.reserve(pop.num_clients());
  for (std::size_t c = 0; c < pop.num_clients(); ++c) {
    std::vector<std::size_t> indices(offsets[c + 1] - offsets[c]);
    std::iota(indices.begin(), indices.end(), offsets[c]);
    out.shards.emplace_back(out.dataset, std::move(indices));
  }
  return out;
}

}  // namespace groupfel::data
