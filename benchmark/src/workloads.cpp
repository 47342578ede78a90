// Workload definitions and the untraced run.
//
// Every workload is a closed loop in one process: the next repeat starts
// when the previous one returns. One warm-up repeat is discarded, then timed
// repeats run until the measuring window closes (at least min_repeats).
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "runtime/timer.hpp"

namespace groupfel::benchmark {

namespace {

core::SweepCell base_cell(const std::string& label, std::uint64_t seed) {
  core::SweepCell cell;
  cell.label = label;
  cell.spec.seed = seed;
  cell.spec.client_state = core::ClientStateMode::kLazy;
  // Every client holds exactly size_mean samples. ESRCoV samples almost
  // only the few lowest-CoV groups, so with the §7.2 size spread the work
  // per round (and rounds_per_s) would differ by ~10% from seed to seed;
  // labels still follow the Dirichlet(alpha) skew.
  cell.spec.size_std = 0.0;
  cell.config.seed = seed ^ 0x5eed;
  cell.config.grouping = grouping::GroupingMethod::kCov;
  cell.config.sampling = sampling::SamplingMethod::kESRCov;
  cell.task = cost::Task::kCifar;
  cell.op = cost::GroupOp::kSecAgg;
  return cell;
}

/// Steady-state round with skinny per-client GEMMs and heavy lazy shard
/// synthesis; no secagg, codec or FLAME (the no-change control for them).
Workload round_mlp(std::uint64_t seed, bool smoke) {
  core::SweepCell c = base_cell("groupfel", seed);
  c.spec.num_clients = smoke ? 800 : 20000;
  c.spec.num_edges = smoke ? 2 : 4;
  c.spec.alpha = 0.1;
  c.spec.test_size = smoke ? 200 : 2000;
  c.config.grouping_params.greedy_window = smoke ? 64 : 256;
  c.config.grouping_params.parallel_windows = true;
  c.config.grouping_params.min_group_size = 20;
  c.config.sampled_groups = 8;
  c.config.group_rounds = smoke ? 2 : 5;
  c.config.local_epochs = 2;
  c.config.local.batch_size = 16;
  c.config.local.lr = 0.1f;
  c.config.eval_every = 1;
  c.config.global_rounds = smoke ? 3 : 10;
  return {"round_mlp", {c}, 0, false, 1};
}

/// im2col conv GEMMs plus the real Bonawitz protocol with dropout recovery
/// and the fp16 wire codec; a tiny control plane.
Workload round_cnn_secagg(std::uint64_t seed, bool smoke) {
  core::SweepCell c = base_cell("groupfel", seed);
  c.spec.num_clients = smoke ? 60 : 2000;
  c.spec.num_edges = 2;
  c.spec.alpha = 0.1;
  c.spec.model = core::ModelKind::kCnn5;
  c.spec.test_size = smoke ? 100 : 1000;
  c.config.grouping_params.min_group_size = smoke ? 10 : 25;
  c.config.sampled_groups = smoke ? 2 : 4;
  c.config.group_rounds = smoke ? 1 : 2;
  c.config.local_epochs = 1;
  c.config.local.batch_size = 16;
  c.config.local.lr = 0.05f;
  c.config.use_real_secagg = true;
  c.config.client_dropout_rate = 0.1;
  c.config.precision.wire = compression::Codec::kFp16;
  c.config.eval_every = 4;
  c.config.global_rounds = 2;
  return {"round_cnn_secagg", {c}, 0, false, 1};
}

/// A million-client federation: set-up (partition, label matrix, windowed
/// grouping, Eq. 34) dominates the few rounds.
Workload fleet_1m(std::uint64_t seed, bool smoke) {
  core::SweepCell c = base_cell("groupfel", seed);
  c.spec.num_clients = smoke ? 5000 : 1000000;
  c.spec.num_edges = smoke ? 2 : 100;
  c.spec.size_mean = 200.0;
  c.spec.size_min = 50;
  c.spec.size_max = 400;
  c.spec.mlp_hidden = 32;
  c.spec.test_size = smoke ? 128 : 512;
  c.config.grouping_params.greedy_window = 256;
  c.config.grouping_params.parallel_windows = true;
  c.config.grouping_params.min_group_size = 100;
  c.config.sampled_groups = 16;
  c.config.group_rounds = 1;
  c.config.local_epochs = 1;
  c.config.local.batch_size = 32;
  c.config.local.lr = 0.1f;
  c.config.eval_every = 1;
  c.config.global_rounds = smoke ? 2 : 5;
  // A build takes ~3 s against ~0.7 s of training, so each build is trained
  // several times (train() restarts from the initial model and is
  // bit-identical per call) to sample rounds_per_s as often as set-up.
  return {"fleet_1m", {c}, 0, false, smoke ? 1u : 4u};
}

/// The sweep's cells per seed: every method of the paper's evaluation that
/// run_sweep runs concurrently, plus Group-FEL with the FLAME defense.
struct SweepEntry {
  const char* tag;
  core::Method method;
  bool flame;
};
constexpr SweepEntry kSweepEntries[] = {
    {"fedavg", core::Method::kFedAvg, false},
    {"fedprox", core::Method::kFedProx, false},
    {"scaffold", core::Method::kScaffold, false},
    {"groupfel", core::Method::kGroupFel, false},
    {"ouea", core::Method::kOuea, false},
    {"share", core::Method::kShare, false},
    {"groupfel_flame", core::Method::kGroupFel, true},
};

/// Many small concurrent trainers through core::run_sweep: resident data,
/// every grouping algorithm and local rule, and FLAME. The traced run
/// replays the Group-FEL + FLAME cell of the first seed.
Workload sweep_mixed(std::uint64_t seed, bool smoke) {
  Workload w{"sweep_mixed", {}, 0, true, 1};
  for (std::size_t s = 0; s < 3; ++s) {
    for (const SweepEntry& e : kSweepEntries) {
      core::SweepCell c;
      c.label = std::string(e.tag) + "/seed" + std::to_string(s);
      c.spec = core::default_cifar_spec(smoke ? 0.1 : 0.33);
      c.spec.client_state = core::ClientStateMode::kDescriptorResident;
      c.spec.seed = seed + 1000 * s;
      // bench_common base_config: the figure benches' Algorithm 1 settings.
      c.config.global_rounds = smoke ? 2 : 5;
      c.config.group_rounds = smoke ? 2 : 5;
      c.config.local_epochs = smoke ? 1 : 2;
      c.config.sampled_groups = 6;
      c.config.local.batch_size = 8;
      c.config.local.lr = 0.1f;
      c.config.grouping_params.min_group_size = 5;
      c.config.grouping_params.max_cov = 1.0;
      c.config.eval_every = 1;
      c.config.seed = c.spec.seed ^ 0x5eed;
      core::apply_method(e.method, c.config);
      c.config.backdoor.defense = e.flame;
      c.task = cost::Task::kCifar;
      c.op = core::cost_group_op(e.method);
      if (s == 0 && e.flame) w.traced_cell = w.cells.size();
      w.cells.push_back(std::move(c));
    }
  }
  return w;
}

bool all_finite(const std::vector<float>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](float x) { return std::isfinite(x); });
}

/// A numeric field of /proc/self/status ("Threads:", "VmHWM:" in KiB); 0
/// where the file or the field is missing.
double proc_status(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == field) {
      double value = 0.0;
      status >> value;
      return value;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0.0;
}

std::size_t g_peak_threads = 0;  // written by the main thread only

/// Peak resident set since the last reset_peak_rss(), in MiB.
double peak_rss_mib() { return proc_status("VmHWM:") / 1024.0; }

/// Returns freed heap pages to the OS and restarts the peak from the
/// current resident set, so each repeat reports its own peak (as a fresh
/// process would) instead of the process lifetime's.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// The median of `samples`, keeping the samples.
Metric median_metric(std::vector<double> samples, std::string unit) {
  Metric m(median(samples), std::move(unit), samples.size());
  m.samples = std::move(samples);
  return m;
}

/// The mean of `samples`, for per-repeat peak memory: in the sweep it is
/// bimodal (it depends on which cells overlap), and a median flips between
/// the modes from run to run.
Metric mean_metric(std::vector<double> samples, std::string unit) {
  double sum = 0.0;
  for (const double x : samples) sum += x;
  Metric m(samples.empty() ? 0.0 : sum / static_cast<double>(samples.size()),
           std::move(unit), samples.size());
  m.samples = std::move(samples);
  return m;
}

/// build_experiment + trainer constructor only; returns their wall seconds.
double run_setup_only(const core::SweepCell& cell, runtime::ThreadPool* pool) {
  runtime::Timer t;
  const core::Experiment exp = core::build_experiment(cell.spec, pool);
  const core::GroupFelTrainer trainer(
      exp.topology, cell.config, core::build_cost_model(cell.task, cell.op),
      pool);
  return t.seconds();
}

/// Short builds get kSetupExtra set-up-only builds after every timed
/// repeat, spread over the window so the median sees the host's slow and
/// fast stretches alike, then are topped up to kSetupSamples. Every set-up
/// sample starts from a trimmed heap, as a build in a fresh process does.
constexpr std::size_t kSetupExtra = 3;

void sample_setup(const core::SweepCell& cell, const RunOptions& opts,
                  std::size_t count, std::vector<double>& samples,
                  Outcome& out) {
  for (std::size_t i = 0; i < count; ++i) {
    if (!samples.empty() && median(samples) >= kSetupExtraBelow) return;
    try {
      reset_peak_rss();
      samples.push_back(run_setup_only(cell, opts.pool));
    } catch (const std::exception& e) {
      out.fail(std::string("set-up build threw: ") + e.what());
      return;
    }
  }
}

void top_up_setup(const core::SweepCell& cell, const RunOptions& opts,
                  std::vector<double>& samples, Outcome& out) {
  if (samples.size() < kSetupSamples)
    sample_setup(cell, opts, kSetupSamples - samples.size(), samples, out);
}

Outcome run_untraced_rounds(const Workload& w, const RunOptions& opts) {
  Outcome out;
  const core::SweepCell& cell = w.cells.front();
  const double rounds = static_cast<double>(cell.config.global_rounds);
  try {
    out.params_digest =
        fnv1a_hex(run_repeat(w, cell, opts.pool).result.final_params);
  } catch (const std::exception& e) {
    out.attempted = out.failed = 1;
    out.fail(std::string("warm-up repeat threw: ") + e.what());
    return out;
  }

  std::vector<double> setup, rps, rss;
  runtime::Timer window;
  while (out.attempted < opts.min_repeats || window.seconds() < opts.seconds) {
    ++out.attempted;
    try {
      reset_peak_rss();
      const RepeatResult r = run_repeat(w, cell, opts.pool);
      rss.push_back(peak_rss_mib());
      const std::string d = fnv1a_hex(r.result.final_params);
      if (d != out.params_digest || !all_finite(r.result.final_params)) {
        ++out.failed;
        out.fail("repeat " + std::to_string(out.attempted) +
                 " final params digest " + d + " != warm-up " +
                 out.params_digest);
        continue;
      }
      setup.push_back(r.build_s + r.ctor_s);
      for (const double t : r.train_s) rps.push_back(rounds / t);
    } catch (const std::exception& e) {
      ++out.failed;
      out.fail(std::string("repeat threw: ") + e.what());
    }
    sample_setup(cell, opts, kSetupExtra, setup, out);
  }
  top_up_setup(cell, opts, setup, out);
  out.metrics["setup_s"] = median_metric(std::move(setup), "s");
  out.metrics["rounds_per_s"] = median_metric(std::move(rps), "1/s");
  out.metrics["peak_rss_mb"] = mean_metric(std::move(rss), "MiB");
  return out;
}

Outcome run_untraced_sweep(const Workload& w, const RunOptions& opts) {
  Outcome out;
  std::vector<std::string> digests;
  try {
    for (const auto& c : run_sweep_repeat(w, opts.pool).cells)
      digests.push_back(fnv1a_hex(c.result.final_params));
  } catch (const std::exception& e) {
    out.attempted = out.failed = w.cells.size();
    out.fail(std::string("warm-up sweep threw: ") + e.what());
    return out;
  }
  out.params_digest = digests[w.traced_cell];
  double rounds = 0.0;
  for (const auto& c : w.cells)
    rounds += static_cast<double>(c.config.global_rounds);

  std::vector<double> setup, rps, rss;
  std::size_t sweeps = 0;
  runtime::Timer window;
  while (sweeps < opts.min_repeats || window.seconds() < opts.seconds) {
    ++sweeps;
    out.attempted += w.cells.size();
    try {
      reset_peak_rss();
      const core::SweepRunResult r = run_sweep_repeat(w, opts.pool);
      rss.push_back(peak_rss_mib());
      std::size_t bad = 0;
      for (std::size_t i = 0; i < w.cells.size(); ++i) {
        const auto& res = r.cells[i].result;
        const std::string d = fnv1a_hex(res.final_params);
        if (d != digests[i] || !all_finite(res.final_params)) {
          ++bad;
          out.fail("cell " + w.cells[i].label + " digest " + d +
                   " != warm-up " + digests[i]);
        }
      }
      out.failed += bad;
      if (bad == 0) rps.push_back(rounds / r.total_seconds);
    } catch (const std::exception& e) {
      out.failed += w.cells.size();
      out.fail(std::string("sweep threw: ") + e.what());
    }
    sample_setup(w.cells[w.traced_cell], opts, kSetupExtra, setup, out);
  }
  top_up_setup(w.cells[w.traced_cell], opts, setup, out);
  out.metrics["setup_s"] = median_metric(std::move(setup), "s");
  out.metrics["rounds_per_s"] = median_metric(std::move(rps), "1/s");
  out.metrics["peak_rss_mb"] = mean_metric(std::move(rss), "MiB");
  return out;
}

}  // namespace

void Outcome::fail(const std::string& why) { failures.push_back(why); }

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "round_mlp", "round_cnn_secagg", "fleet_1m", "sweep_mixed"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke) {
  if (name == "round_mlp") return round_mlp(seed, smoke);
  if (name == "round_cnn_secagg") return round_cnn_secagg(seed, smoke);
  if (name == "fleet_1m") return fleet_1m(seed, smoke);
  if (name == "sweep_mixed") return sweep_mixed(seed, smoke);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

const std::vector<std::string>& sweep_methods() {
  static const std::vector<std::string> methods = [] {
    std::vector<std::string> tags;
    for (const SweepEntry& e : kSweepEntries) tags.emplace_back(e.tag);
    return tags;
  }();
  return methods;
}

std::string cell_method(const core::SweepCell& cell) {
  return cell.label.substr(0, cell.label.find('/'));
}

RepeatResult run_repeat(const Workload& w, const core::SweepCell& cell,
                        runtime::ThreadPool* pool) {
  RepeatResult r;
  runtime::Timer build_t;
  const core::Experiment exp = core::build_experiment(cell.spec, pool);
  r.build_s = build_t.seconds();
  runtime::Timer ctor_t;
  core::GroupFelTrainer trainer(exp.topology, cell.config,
                                core::build_cost_model(cell.task, cell.op),
                                pool);
  r.ctor_s = ctor_t.seconds();
  for (std::size_t call = 0; call < w.trains_per_repeat; ++call) {
    runtime::Timer train_t;
    core::TrainResult result = trainer.train(cell.cost_budget);
    r.train_s.push_back(train_t.seconds());
    if (call == 0)
      r.result = std::move(result);
    else if (result.final_params != r.result.final_params)
      throw std::runtime_error("train() call " + std::to_string(call + 1) +
                               " on one trainer diverged from the first");
  }
  note_threads();
  return r;
}

core::SweepRunResult run_sweep_repeat(const Workload& w,
                                      runtime::ThreadPool* pool) {
  core::SweepOptions opts;
  opts.pool = pool;
  core::SweepRunResult r = core::run_sweep(w.cells, opts);
  note_threads();
  return r;
}

Outcome run_untraced(const Workload& w, const RunOptions& opts) {
  return w.sweep ? run_untraced_sweep(w, opts) : run_untraced_rounds(w, opts);
}

std::string fnv1a_hex(const std::vector<float>& params) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const float v : params) {
    unsigned char bytes[sizeof(float)];
    std::memcpy(bytes, &v, sizeof(float));
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ull;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double percentile(std::vector<double> xs, double pct) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(xs.size()));
  const std::size_t idx = std::min(
      xs.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  return xs[idx];
}

void note_threads() {
  g_peak_threads = std::max(
      g_peak_threads, static_cast<std::size_t>(proc_status("Threads:")));
}

std::size_t peak_threads() { return g_peak_threads; }

}  // namespace groupfel::benchmark
