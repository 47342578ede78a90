// Kernel microbenchmark suite — times the NN compute kernels this
// reproduction bottoms out in (GEMM, Conv2d fwd/bwd) against their retained
// naive oracles, plus the two protocol kernels whose quadratic cost the
// paper's Fig. 2a / Fig. 8 overhead model rests on (SecAgg mask expansion,
// FLAME pairwise cosine), plus lazy shard synthesis (eight sample streams
// per vector against the per-sample reference), plus the fleet set-up kernels (the §7.2 partition's
// label draws and Algorithm 2's candidate scan), plus the million-client
// control plane (build_experiment and the trainer's grouping, serial vs a
// 3-worker pool, whose loops run on 4 threads). Emits BENCH_kernels.json so
// the kernel perf trajectory is tracked over time.
//
//   ./micro_kernels            full timed run (writes BENCH_kernels.json)
//   ./micro_kernels --smoke    fast correctness-weighted pass for ctest:
//                              tiny rep budget, hard-fails if an optimized
//                              kernel diverges from its oracle beyond its
//                              tolerance (1e-4, or an exact match).
//                              The full run also enforces per-row speed
//                              gates (min_speedup in the JSON).
//
// Every two-arm row times its arms in alternating rounds, so host load
// during the run falls on both arms alike. A row records each arm's best
// (the gated figure) and its median over every timed call, with the call
// count: a best far above the median marks a run the host disturbed.
//
// GEMM shapes are the paper-relevant ones: the 256³ reference point, the
// MLP surrogate's forward/backward (eval batch 256, feature 32, hidden 64),
// and the im2col'd first layers of ResNet3 (CIFAR task) and CNN5 (Speech
// Commands task) at batch 32.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "backdoor/cosine.hpp"
#include "bench_common.hpp"
#include "core/trainer.hpp"
#include "data/client_descriptor.hpp"
#include "data/label_matrix.hpp"
#include "data/lazy_shard.hpp"
#include "data/synthetic.hpp"
#include "grouping/grouping.hpp"
#include "nn/layer.hpp"
#include "nn/tensor.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/timer.hpp"
#include "secagg/prg.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"

using namespace groupfel;

namespace {

struct KernelReport {
  std::string name;
  std::string shape;
  double flops = 0.0;         // per call
  double naive_gflops = 0.0;  // oracle implementation
  double opt_gflops = 0.0;    // shipped implementation
  double speedup = 0.0;
  double max_rel_err = 0.0;   // optimized vs oracle
  double tolerance = 1e-4;    // smoke gate for max_rel_err (per row)
  double min_speedup = 0.0;   // full-mode speed gate (0 = none)
  // Medians over every timed call, and calls timed per arm.
  double naive_median_gflops = 0.0;
  double opt_median_gflops = 0.0;
  std::size_t runs = 0;
  std::string note;
};

std::atomic<bool> g_smoke{false};

/// Seconds of one call. A returned value (e.g. a built experiment) is
/// destroyed after the clock stops.
template <typename Fn>
double seconds_of(Fn& fn) {
  runtime::Timer t;
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    return t.seconds();
  } else {
    [[maybe_unused]] const auto kept = fn();
    return t.seconds();
  }
}

/// Seconds of every timed call of one arm.
struct Samples {
  std::vector<double> seconds;

  [[nodiscard]] double best() const {
    return *std::min_element(seconds.begin(), seconds.end());
  }
  [[nodiscard]] double median() const {
    std::vector<double> sorted = seconds;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    return n % 2 == 1 ? sorted[n / 2]
                      : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  }
};

/// `reps` timed calls of one arm; reps shrink to 1 under --smoke.
template <typename Fn>
Samples time_calls(Fn&& fn, std::size_t reps) {
  if (g_smoke.load()) reps = 1;
  Samples out;
  for (std::size_t r = 0; r < reps; ++r) out.seconds.push_back(seconds_of(fn));
  return out;
}

struct ArmSeconds {
  Samples opt, naive;
};

/// Timed calls of two arms that take turns: up to five rounds, each running
/// a burst of the optimized arm and then a burst of the naive one, so host
/// load falls on both arms alike while each timed call still follows a
/// call of its own arm; reps shrink to 1 under --smoke.
template <typename Opt, typename Naive>
ArmSeconds time_alternating(Opt&& opt, Naive&& naive, std::size_t reps) {
  if (g_smoke.load()) reps = 1;
  const std::size_t rounds = std::min<std::size_t>(reps, 5);
  const std::size_t burst = (reps + rounds - 1) / rounds;
  ArmSeconds t;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < burst; ++i)
      t.opt.seconds.push_back(seconds_of(opt));
    for (std::size_t i = 0; i < burst; ++i)
      t.naive.seconds.push_back(seconds_of(naive));
  }
  return t;
}

/// Fills a row's rates from its arms' timings: best-call GF/s (and the
/// speedup the gates read) plus median-call GF/s and the call count.
void set_rates(KernelReport& r, const ArmSeconds& t) {
  r.opt_gflops = r.flops / t.opt.best() * 1e-9;
  r.naive_gflops = r.flops / t.naive.best() * 1e-9;
  r.speedup = t.naive.best() / t.opt.best();
  r.opt_median_gflops = r.flops / t.opt.median() * 1e-9;
  r.naive_median_gflops = r.flops / t.naive.median() * 1e-9;
  r.runs = t.opt.seconds.size();
}

void fill_random(nn::Tensor& t, runtime::Rng& rng) {
  for (auto& v : t.data()) v = static_cast<float>(rng.normal());
}

double max_rel_error(const nn::Tensor& got, const nn::Tensor& want) {
  double worst = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double g = static_cast<double>(got[i]);
    const double w = static_cast<double>(want[i]);
    const double denom = std::max(1.0, std::abs(w));
    worst = std::max(worst, std::abs(g - w) / denom);
  }
  return worst;
}

/// Times one matmul variant (0 = A·B, 1 = A·Bᵀ, 2 = Aᵀ·B) against its
/// naive oracle. m/k/n are the logical GEMM dims (out is always [m, n]).
KernelReport bench_gemm(const std::string& name, int variant, std::size_t m,
                        std::size_t k, std::size_t n, std::size_t reps) {
  runtime::Rng rng(m * 1315423911u + k * 2654435761u + n);
  nn::Tensor a, b;
  if (variant == 2) {
    a = nn::Tensor({k, m});  // matmul_at: out[m, n] from a stored [k, m]
    b = nn::Tensor({k, n});
  } else if (variant == 1) {
    a = nn::Tensor({m, k});  // matmul_bt: b stored [n, k]
    b = nn::Tensor({n, k});
  } else {
    a = nn::Tensor({m, k});
    b = nn::Tensor({k, n});
  }
  nn::Tensor out({m, n}), ref({m, n});
  fill_random(a, rng);
  fill_random(b, rng);

  const auto opt = [&] {
    if (variant == 0) nn::matmul(a, b, out);
    if (variant == 1) nn::matmul_bt(a, b, out);
    if (variant == 2) nn::matmul_at(a, b, out);
  };
  const auto naive = [&] {
    if (variant == 0) nn::matmul_naive(a, b, ref);
    if (variant == 1) nn::matmul_bt_naive(a, b, ref);
    if (variant == 2) nn::matmul_at_naive(a, b, ref);
  };

  KernelReport r;
  r.name = name;
  r.shape = "m" + std::to_string(m) + "_k" + std::to_string(k) + "_n" +
            std::to_string(n);
  r.flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
            static_cast<double>(n);
  opt();  // warms the workspace arena; result reused for the error check
  naive();
  r.max_rel_err = max_rel_error(out, ref);
  const ArmSeconds t = time_alternating(opt, naive, reps);
  set_rates(r, t);
  return r;
}

/// Conv2d forward/backward (im2col path) vs the conv_reference oracles.
std::pair<KernelReport, KernelReport> bench_conv(
    const std::string& name, std::size_t batch, std::size_t cin,
    std::size_t cout, std::size_t side_h, std::size_t side_w, std::size_t k,
    std::size_t pad, std::size_t reps) {
  runtime::Rng rng(cin * 977 + cout * 31 + side_h);
  nn::Conv2d conv(cin, cout, k, pad);
  conv.init(rng);
  nn::Tensor weight, bias;
  int visit = 0;
  conv.for_each_param([&](nn::Tensor& p, nn::Tensor&) {
    (visit++ == 0 ? weight : bias) = p;
  });

  nn::Tensor x({batch, cin, side_h, side_w});
  fill_random(x, rng);
  const std::size_t ho = side_h + 2 * pad - k + 1;
  const std::size_t wo = side_w + 2 * pad - k + 1;
  nn::Tensor gout({batch, cout, ho, wo});
  fill_random(gout, rng);

  const std::string shape =
      "n" + std::to_string(batch) + "_c" + std::to_string(cin) + "x" +
      std::to_string(side_h) + "x" + std::to_string(side_w) + "_k" +
      std::to_string(k) + "_p" + std::to_string(pad) + "_cout" +
      std::to_string(cout);
  const double mac = static_cast<double>(batch) * static_cast<double>(cout) *
                     static_cast<double>(ho * wo) *
                     static_cast<double>(cin * k * k);

  KernelReport fwd;
  fwd.name = name + "_fwd";
  fwd.shape = shape;
  fwd.flops = 2.0 * mac;
  nn::Tensor got = conv.forward(x, /*train=*/false);
  const nn::Tensor want = nn::conv_reference_forward(x, weight, bias, pad);
  fwd.max_rel_err = max_rel_error(got, want);
  const ArmSeconds ft = time_alternating(
      [&] { got = conv.forward(x, false); },
      [&] { (void)nn::conv_reference_forward(x, weight, bias, pad); }, reps);
  set_rates(fwd, ft);

  KernelReport bwd;
  bwd.name = name + "_bwd";
  bwd.shape = shape;
  // dW (2·mac) + dX (2·mac) + the dY gather / bias reduction (small); count
  // the two GEMM-sized products. Same convention for the oracle.
  bwd.flops = 4.0 * mac;
  nn::Tensor ref_gw({cout, cin, k, k}), ref_gb({1, cout});
  const nn::Tensor ref_gin =
      nn::conv_reference_backward(x, weight, gout, pad, ref_gw, ref_gb);
  (void)conv.forward(x, true);
  const nn::Tensor got_gin = conv.backward(gout);
  bwd.max_rel_err = max_rel_error(got_gin, ref_gin);
  const ArmSeconds bt = time_alternating(
      [&] {
        (void)conv.forward(x, true);
        (void)conv.backward(gout);
      },
      [&] {
        (void)nn::conv_reference_backward(x, weight, gout, pad, ref_gw,
                                          ref_gb);
      },
      reps);
  set_rates(bwd, bt);
  bwd.note = "optimized timing includes the paired forward (activation cache)";
  return {fwd, bwd};
}

/// SecAgg mask expansion — protocol kernel. Naive is the scalar reference
/// stream (one next_fe() call per element); optimized is the 16-lane bulk
/// kernel ChaChaPrg::add_to. Both define the same protocol stream, so the
/// error column counts mismatched elements and must be exactly 0.
KernelReport bench_secagg_mask(std::size_t n, std::size_t reps) {
  constexpr std::uint64_t kSeed = 0x5eedull, kNonce = 0x90511ull;
  KernelReport r;
  r.name = "secagg_mask_expand";
  r.shape = "n" + std::to_string(n);
  r.flops = static_cast<double>(n);  // unit: field elements, not FLOPs
  std::vector<secagg::Fe> naive_y(n), opt_y(n);
  const auto naive = [&] {
    secagg::ChaChaPrg prg(kSeed, kNonce);
    for (auto& v : naive_y) v += prg.next_fe();
  };
  const auto opt = [&] {
    secagg::ChaChaPrg prg(kSeed, kNonce);
    prg.add_to(opt_y);
  };
  naive();  // both from zero: the result is the bare mask stream
  opt();
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n; ++i) mismatches += naive_y[i] != opt_y[i];
  r.max_rel_err = static_cast<double>(mismatches) / static_cast<double>(n);
  r.tolerance = 0.0;
  r.min_speedup = 3.0;
  const ArmSeconds t = time_alternating(opt, naive, reps);
  set_rates(r, t);
  r.note = "replaces the former single-implementation row; Gelem/s of "
           "field elements; error is the mismatch share (exact match "
           "required)";
  return r;
}

/// Lazy shard synthesis on fleet_1m-shaped clients (cifar_like_spec's
/// 32-float samples: 3 modes, label noise 0.08; 200 samples over a
/// Dirichlet(0.1) histogram). Naive is the per-sample loop: each canonical
/// position's intended class, then synthesize_sample() on its own stream.
/// Optimized is LazyShardSource::materialize_client, eight samples a step,
/// one stream per vector lane. Both define the same samples, so the error
/// column counts mismatched floats and labels and must be exactly 0.
KernelReport bench_synth_normals(std::size_t clients, std::size_t reps) {
  constexpr std::size_t kSamples = 200;
  const data::SyntheticSpec spec = data::cifar_like_spec();
  const std::size_t dim = nn::shape_size(spec.sample_shape);
  KernelReport r;
  r.name = "synth_normals";
  r.shape = "n" + std::to_string(dim) + "_x" + std::to_string(kSamples) +
            "_c" + std::to_string(clients);
  r.flops = static_cast<double>(clients * kSamples * dim);  // unit: floats
  data::ClientPopulation pop(clients, spec.num_classes);
  runtime::Rng rng(29);
  for (std::size_t c = 0; c < clients; ++c) {
    const std::vector<double> props = rng.dirichlet(0.1, spec.num_classes);
    const auto row = pop.label_counts_mutable(c);
    for (std::size_t s = 0; s < kSamples; ++s) ++row[rng.categorical(props)];
    pop.set_data_count(c, kSamples);
    pop.set_seed(c, rng.next_u64());
  }
  const data::LazyShardSource source(spec, pop);
  const std::vector<float> prototypes = data::make_prototypes(spec);
  const std::size_t total = clients * kSamples;
  std::vector<float> naive_x(total * dim), opt_x(total * dim);
  std::vector<std::int32_t> naive_y(total), opt_y(total);
  const auto naive = [&] {
    for (std::size_t c = 0; c < clients; ++c) {
      const std::uint64_t seed = pop.seed(c);
      for (std::size_t j = 0; j < kSamples; ++j) {
        const std::size_t i = c * kSamples + j;
        naive_y[i] = data::synthesize_sample(
            spec, prototypes, data::sample_stream_seed(seed, j),
            pop.intended_class(c, j), naive_x.data() + i * dim);
      }
    }
  };
  const auto opt = [&] {
    for (std::size_t c = 0; c < clients; ++c)
      source.materialize_client(
          c, std::span(opt_x).subspan(c * kSamples * dim, kSamples * dim),
          std::span(opt_y).subspan(c * kSamples, kSamples));
  };
  naive();
  opt();
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < naive_x.size(); ++i)
    mismatches += std::memcmp(&naive_x[i], &opt_x[i], sizeof(float)) != 0;
  for (std::size_t i = 0; i < total; ++i) mismatches += naive_y[i] != opt_y[i];
  r.max_rel_err = static_cast<double>(mismatches) /
                  static_cast<double>(naive_x.size() + total);
  r.tolerance = 0.0;
  r.min_speedup = 2.0;
  const ArmSeconds t = time_alternating(opt, naive, reps);
  set_rates(r, t);
  r.note = "Gfloat/s of synthesized sample floats; error is the mismatch "
           "share of floats and labels (exact match required)";
  return r;
}

/// §7.2 partition histograms — the per-client label draws of
/// descriptor_partition on fleet_1m-shaped clients (Dirichlet(0.5) over 10
/// classes, 200 samples each). Naive is the scalar loop
/// ++row[categorical(props)]; optimized is the stream kernel
/// runtime::categorical_counts over groups of eight clients, one lane each,
/// as the partition calls it. Both define the same histograms and leave each
/// stream in the same place, so the error column is the share of mismatched
/// clients (exact match required).
KernelReport bench_partition_categorical(std::size_t clients,
                                         std::size_t reps) {
  constexpr std::size_t kClasses = 10, kSamples = 200;
  KernelReport r;
  r.name = "partition_categorical";
  r.shape = "clients" + std::to_string(clients) + "_k" +
            std::to_string(kClasses) + "_n" + std::to_string(kSamples);
  r.flops = static_cast<double>(clients * kSamples);  // unit: draws
  std::vector<double> props(clients * kClasses);
  runtime::Rng props_rng(41);
  for (std::size_t c = 0; c < clients; ++c) {
    const std::vector<double> p = props_rng.dirichlet(0.5, kClasses);
    std::copy(p.begin(), p.end(), props.begin() + c * kClasses);
  }
  std::vector<std::uint32_t> naive_counts(clients * kClasses),
      opt_counts(clients * kClasses);
  std::vector<std::uint64_t> naive_next(clients), opt_next(clients);
  // One fresh stream per client, as partition_one draws them.
  const auto naive = [&] {
    std::fill(naive_counts.begin(), naive_counts.end(), 0u);
    for (std::size_t c = 0; c < clients; ++c) {
      runtime::Rng rng(c + 1);
      const std::span<const double> w(props.data() + c * kClasses, kClasses);
      std::uint32_t* row = naive_counts.data() + c * kClasses;
      for (std::size_t s = 0; s < kSamples; ++s) ++row[rng.categorical(w)];
      naive_next[c] = rng.next_u64();
    }
  };
  const auto opt = [&] {
    constexpr std::size_t kLanes = runtime::kCategoricalLanes;
    std::fill(opt_counts.begin(), opt_counts.end(), 0u);
    std::array<runtime::Rng, kLanes> rng;
    std::array<runtime::CategoricalStream, kLanes> lanes;
    for (std::size_t g = 0; g < clients; g += kLanes) {
      const std::size_t group = std::min(kLanes, clients - g);
      for (std::size_t l = 0; l < group; ++l) {
        const std::size_t c = g + l;
        rng[l] = runtime::Rng(c + 1);
        const std::span<const double> w(props.data() + c * kClasses, kClasses);
        lanes[l] = {&rng[l], w, kSamples,
                    std::span<std::uint32_t>(opt_counts.data() + c * kClasses,
                                             kClasses)};
      }
      runtime::categorical_counts(std::span(lanes.data(), group));
      for (std::size_t l = 0; l < group; ++l)
        opt_next[g + l] = rng[l].next_u64();
    }
  };
  naive();
  opt();
  std::size_t mismatches = 0;
  for (std::size_t c = 0; c < clients; ++c)
    mismatches +=
        naive_next[c] != opt_next[c] ||
        !std::equal(naive_counts.begin() + c * kClasses,
                    naive_counts.begin() + (c + 1) * kClasses,
                    opt_counts.begin() + c * kClasses);
  r.max_rel_err =
      static_cast<double>(mismatches) / static_cast<double>(clients);
  r.tolerance = 0.0;
  r.min_speedup = 2.0;
  const ArmSeconds t = time_alternating(opt, naive, reps);
  set_rates(r, t);
  r.note = "Gdraw/s of label draws; error is the mismatch share of clients' "
           "histograms and final stream states (exact match required)";
  return r;
}

/// The scalar greedy the keyed scan must match: candidates in a vector that
/// erases each admitted client, one IncrementalCov::value_with per
/// candidate, first minimum kept.
void scalar_scan_greedy(const data::LabelMatrix& matrix,
                        const grouping::GroupingParams& params,
                        runtime::Rng& rng, std::vector<std::size_t> pool,
                        grouping::Grouping& groups) {
  while (!pool.empty()) {
    const std::size_t first = rng.next_below(pool.size());
    std::vector<std::size_t> group{pool[first]};
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(first));
    grouping::IncrementalCov inc(matrix.num_labels());
    inc.add(matrix.row(group[0]));
    while ((inc.value() > params.max_cov ||
            group.size() < params.min_group_size) &&
           !pool.empty()) {
      double best_cov = std::numeric_limits<double>::infinity();
      std::size_t best_pos = 0;
      for (std::size_t pos = 0; pos < pool.size(); ++pos) {
        const double c = inc.value_with(matrix.row(pool[pos]));
        if (c < best_cov) {
          best_cov = c;
          best_pos = pos;
        }
      }
      if (!(best_cov < inc.value() || group.size() < params.min_group_size))
        break;
      inc.add(matrix.row(pool[best_pos]));
      group.push_back(pool[best_pos]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best_pos));
    }
    groups.push_back(std::move(group));
  }
}

/// Algorithm 2 on one fleet_1m edge: 10k clients, window 256, MinGS 100,
/// one stream per window, run serially in both arms. Naive runs the
/// scalar candidate scan; optimized is grouping::cov_grouping with its
/// exact-key scan (grouping/cov_scan.hpp). The groupings must be identical
/// (error = 1 otherwise).
KernelReport bench_cov_greedy_edge(std::size_t clients, std::size_t reps) {
  data::PartitionSpec part;
  part.num_clients = clients;
  part.alpha = 0.5;
  part.size_mean = 200.0;
  part.size_std = 0.0;
  part.size_min = 50;
  part.size_max = 400;
  runtime::Rng part_rng(43);
  const data::LabelMatrix matrix = data::LabelMatrix::from_population(
      std::make_shared<const data::ClientPopulation>(
          data::descriptor_partition(part, 10, part_rng)));
  grouping::GroupingParams params;
  params.min_group_size = 100;
  params.greedy_window = 256;

  grouping::Grouping naive_groups, opt_groups;
  const auto naive = [&] {
    naive_groups.clear();
    runtime::Rng rng(44);
    std::vector<std::size_t> order(clients);
    std::iota(order.begin(), order.end(), std::size_t{0});
    rng.shuffle(order);
    for (std::size_t w = 0; w * params.greedy_window < clients; ++w) {
      const auto begin = order.begin() +
                         static_cast<std::ptrdiff_t>(w * params.greedy_window);
      const auto end = order.begin() + static_cast<std::ptrdiff_t>(std::min(
                                           clients,
                                           (w + 1) * params.greedy_window));
      runtime::Rng wrng = rng.fork(w);
      scalar_scan_greedy(matrix, params, wrng, {begin, end}, naive_groups);
    }
  };
  const auto opt = [&] {
    runtime::Rng rng(44);
    opt_groups = grouping::cov_grouping(matrix, params, rng, nullptr);
  };
  naive();
  opt();

  KernelReport r;
  r.name = "cov_greedy_edge";
  r.shape = "clients" + std::to_string(clients) + "_w256_mings100_groups" +
            std::to_string(opt_groups.size());
  r.flops = static_cast<double>(clients);  // unit: clients grouped
  r.max_rel_err = naive_groups == opt_groups ? 0.0 : 1.0;
  r.tolerance = 0.0;
  r.min_speedup = 1.6;
  const ArmSeconds t = time_alternating(opt, naive, reps);
  set_rates(r, t);
  r.note = "Gclients/s grouped on one edge: exact integer key per candidate, "
           "value_with only within the band of the minimum, vs value_with "
           "per candidate; error is 1 unless the groupings are identical";
  return r;
}

/// FLAME pairwise cosine matrix — the O(|g|²·d) group operation.
KernelReport bench_flame_cosine(std::size_t clients, std::size_t dim,
                                std::size_t reps) {
  runtime::Rng rng(17);
  std::vector<std::vector<float>> updates(clients,
                                          std::vector<float>(dim));
  for (auto& u : updates)
    for (auto& v : u) v = static_cast<float>(rng.normal());
  KernelReport r;
  r.name = "flame_pairwise_cosine";
  r.shape = "g" + std::to_string(clients) + "_d" + std::to_string(dim);
  r.flops = 2.0 * static_cast<double>(clients) *
            static_cast<double>(clients) * static_cast<double>(dim);
  double sink = 0.0;
  const Samples secs = time_calls(
      [&] {
        const auto m = backdoor::pairwise_cosine_distance(updates);
        sink += m[0][clients - 1];
      },
      reps);
  if (sink > 1e30) std::cout << "";
  set_rates(r, {secs, secs});
  r.note = "single implementation (tracked)";
  return r;
}

/// Fleet control plane — build_experiment (descriptor partition, test set)
/// plus the GroupFelTrainer constructor (label matrix, per-edge windowed
/// CoV grouping, Eq. 34 probabilities) on kLazy clients, ~10k per edge.
/// Naive is an inline pool (serial), optimized a 3-worker pool whose loops
/// run on 4 threads (the caller joins them); the windowed greedy's groups
/// are pool-size invariant, so the error column is the share of mismatched
/// groups and probabilities (exact match required). The speed gate needs 4 hardware threads to mean anything.
KernelReport bench_control_plane(std::size_t clients) {
  core::ExperimentSpec spec;
  spec.num_clients = clients;
  spec.num_edges = std::max<std::size_t>(2, clients / 10000);
  spec.size_mean = 200.0;
  spec.size_std = 80.0;
  spec.size_min = 50;
  spec.size_max = 400;
  spec.test_size = 512;
  spec.mlp_hidden = 32;
  spec.seed = 7;
  spec.client_state = core::ClientStateMode::kLazy;

  core::GroupFelConfig cfg;
  cfg.global_rounds = 1;
  cfg.group_rounds = 1;
  cfg.local_epochs = 1;
  cfg.sampled_groups = 16;
  cfg.local.batch_size = 32;
  cfg.local.lr = 0.1f;
  cfg.grouping = grouping::GroupingMethod::kCov;
  cfg.grouping_params.min_group_size = 100;
  cfg.grouping_params.greedy_window = 256;
  cfg.sampling = sampling::SamplingMethod::kESRCov;
  cfg.seed = 42;

  struct Arm {
    std::vector<core::FormedGroup> groups;
    std::vector<double> probabilities;
  };
  runtime::ThreadPool serial_pool(0), quad_pool(3);
  // The timed set-up; its experiment and trainer are handed back so that
  // their teardown falls outside the clock.
  const auto set_up = [&](runtime::ThreadPool& pool) {
    auto exp = std::make_unique<core::Experiment>(
        core::build_experiment(spec, &pool));
    auto trainer = std::make_unique<core::GroupFelTrainer>(
        exp->topology, cfg,
        core::build_cost_model(cost::Task::kCifar, cost::GroupOp::kSecAgg),
        &pool);
    return std::make_pair(std::move(exp), std::move(trainer));
  };
  const auto untimed = [&](runtime::ThreadPool& pool) {
    const auto built = set_up(pool);
    return Arm{built.second->groups(),
               built.second->sampling_probabilities()};
  };
  // One untimed warm-up per arm, whose groups and probabilities are
  // compared below; then each arm's time is the best of three alternating
  // runs.
  const Arm serial = untimed(serial_pool);
  const Arm pooled = untimed(quad_pool);
  const ArmSeconds t = time_alternating(
      [&] { return set_up(quad_pool); }, [&] { return set_up(serial_pool); },
      3);

  std::size_t mismatches = 0;
  const std::size_t n = std::max(serial.groups.size(), pooled.groups.size());
  if (serial.groups.size() != pooled.groups.size() ||
      serial.probabilities.size() != pooled.probabilities.size()) {
    mismatches = n;
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const core::FormedGroup& a = serial.groups[i];
      const core::FormedGroup& b = pooled.groups[i];
      mismatches += a.edge_id != b.edge_id || a.clients != b.clients ||
                    a.data_count != b.data_count || a.cov != b.cov ||
                    serial.probabilities[i] != pooled.probabilities[i];
    }
  }

  KernelReport r;
  r.name = "control_plane_1m";
  r.shape = "clients" + std::to_string(clients) + "_groups" +
            std::to_string(serial.groups.size());
  r.flops = static_cast<double>(clients);  // unit: clients, not FLOPs
  r.max_rel_err = n == 0 ? 1.0
                         : static_cast<double>(mismatches) /
                               static_cast<double>(n);
  r.tolerance = 0.0;
  set_rates(r, t);
  const unsigned hw = std::thread::hardware_concurrency();
  r.note = "Gclients/s of set-up, 1 thread vs 4 (pool 0 vs pool 3); error "
           "is the mismatch share of groups and Eq. 34 probabilities (exact "
           "match required)";
  if (hw >= 4) {
    r.min_speedup = 1.8;
  } else {
    r.note += "; speed gate skipped: " + std::to_string(hw) +
              " hardware threads < 4";
  }
  return r;
}

void write_json(const std::vector<KernelReport>& reports,
                const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"schema\": \"groupfel-kernel-bench-v1\",\n  \"context\": "
      << bench::hardware_context_json() << ",\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    out << "    {\"name\": \"" << r.name << "\", \"shape\": \"" << r.shape
        << "\", \"flops\": " << util::format_double(r.flops)
        << ", \"naive_gflops\": " << util::format_double(r.naive_gflops)
        << ", \"opt_gflops\": " << util::format_double(r.opt_gflops)
        << ", \"speedup\": " << util::format_double(r.speedup)
        << ", \"naive_median_gflops\": "
        << util::format_double(r.naive_median_gflops)
        << ", \"opt_median_gflops\": "
        << util::format_double(r.opt_median_gflops)
        << ", \"runs\": " << r.runs
        << ", \"max_rel_err\": " << util::format_double(r.max_rel_err)
        << ", \"tolerance\": " << util::format_double(r.tolerance);
    if (r.min_speedup > 0.0)
      out << ", \"min_speedup\": " << util::format_double(r.min_speedup);
    if (!r.note.empty()) out << ", \"note\": \"" << r.note << "\"";
    out << "}";
    if (i + 1 < reports.size()) out << ",";
    out << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--smoke") g_smoke = true;

  std::vector<KernelReport> reports;

  // GEMM: the 256³ reference point for all three transpose variants.
  reports.push_back(bench_gemm("gemm", 0, 256, 256, 256, 7));
  reports.push_back(bench_gemm("gemm_bt", 1, 256, 256, 256, 7));
  reports.push_back(bench_gemm("gemm_at", 2, 256, 256, 256, 7));
  // MLP surrogate shapes: train batch 8 and eval batch 256 over the CIFAR
  // feature width (32 → hidden 64).
  reports.push_back(bench_gemm("gemm_mlp_train", 0, 8, 32, 64, 51));
  reports.push_back(bench_gemm("gemm_mlp_eval", 0, 256, 32, 64, 51));
  // round_mlp's input gradients dY·Wᵀ at train batch 16: the hidden layer
  // (64 → 64) and the 10-class head (64 → 10).
  reports.push_back(bench_gemm("gemm_mlp_dx", 1, 16, 64, 64, 51));
  reports.push_back(bench_gemm("gemm_mlp_head_dx", 1, 16, 10, 64, 51));
  // im2col'd conv layers at batch 32: ResNet3 layer 1 (CIFAR 3×16×16,
  // cout 8) and CNN5 layer 2 (post-pool 8×16×8, cout 16).
  reports.push_back(bench_gemm("gemm_resnet3_l1", 0, 8, 27, 32 * 16 * 16, 21));
  reports.push_back(bench_gemm("gemm_cnn5_l2", 0, 16, 72, 32 * 16 * 8, 21));
  // CNN5 backward GEMMs at train batch 16 (3×16×16 input): conv1's weight
  // gradient dY·colsᵀ (the im2col matrix read transposed) and conv2's input
  // gradient Wᵀ·dY.
  reports.push_back(bench_gemm("gemm_cnn5_l1_dw", 1, 8, 16 * 16 * 16, 27, 21));
  reports.push_back(bench_gemm("gemm_cnn5_l2_dx", 2, 72, 16, 16 * 8 * 8, 21));

  // Conv2d vs reference oracle.
  {
    auto [fwd, bwd] = bench_conv("conv_resnet3_l1", 32, 3, 8, 16, 16, 3, 1,
                                 g_smoke ? 1 : 5);
    reports.push_back(fwd);
    reports.push_back(bwd);
  }
  {
    auto [fwd, bwd] = bench_conv("conv_cnn5_l1", 32, 1, 8, 32, 16, 3, 1,
                                 g_smoke ? 1 : 5);
    reports.push_back(fwd);
    reports.push_back(bwd);
  }

  // Protocol kernels (Fig. 2a / Fig. 8 cost drivers).
  reports.push_back(bench_secagg_mask(g_smoke ? 4096 : 65536, 9));
  reports.push_back(bench_flame_cosine(16, g_smoke ? 2048 : 16384, 9));
  // Lazy shard synthesis: 16 fleet_1m clients (400 KiB of samples, L2
  // resident, like the per-thread client memo).
  reports.push_back(bench_synth_normals(16, 51));
  // Fleet set-up kernels: the §7.2 partition's label draws and Algorithm
  // 2's candidate scan on one 10k-client edge.
  reports.push_back(
      bench_partition_categorical(g_smoke ? 2000 : 20000, g_smoke ? 1 : 7));
  reports.push_back(
      bench_cov_greedy_edge(g_smoke ? 2000 : 10000, g_smoke ? 1 : 5));
  // Fleet control plane: the smoke pass checks pool invariance only.
  reports.push_back(bench_control_plane(g_smoke ? 3000 : 1000000));

  std::cout << util::ascii_table(
      "Kernel microbenchmarks (naive vs optimized)",
      {"kernel", "shape", "naive GF/s", "opt GF/s", "opt median", "runs",
       "speedup", "max rel err"},
      [&] {
        std::vector<std::vector<std::string>> rows;
        for (const auto& r : reports)
          rows.push_back({r.name, r.shape, util::fixed(r.naive_gflops, 2),
                          util::fixed(r.opt_gflops, 2),
                          util::fixed(r.opt_median_gflops, 2),
                          std::to_string(r.runs), util::fixed(r.speedup, 2),
                          util::format_double(r.max_rel_err)});
        return rows;
      }());

  write_json(reports, "BENCH_kernels.json");

  // Correctness gate (the ctest smoke target relies on this): each row
  // carries its own tolerance — 1e-4, or 0 where an exact match is
  // required.
  bool ok = true;
  for (const auto& r : reports) {
    if (r.max_rel_err > r.tolerance) {
      std::cerr << "FAIL: " << r.name << " diverges from oracle (max rel err "
                << r.max_rel_err << " > tolerance " << r.tolerance << ")\n";
      ok = false;
    }
    // Timings under --smoke are single-rep noise; speed gates run in full.
    if (!g_smoke && r.speedup < r.min_speedup) {
      std::cerr << "FAIL: " << r.name << " speedup " << r.speedup
                << "x is below its gate of " << r.min_speedup << "x\n";
      ok = false;
    }
  }
  if (!ok) return 1;
  std::cout << (g_smoke ? "smoke ok\n" : "done\n");
  return 0;
}
