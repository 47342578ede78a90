// figures — every reproduced paper table/figure and ablation (DESIGN.md §4).
//
//   ./figures                                   every row, in README order
//   ./figures --fig=fig9_accuracy_vs_round,table1_alpha_maxcov
//   ./figures --fig=fig10_accuracy_vs_cost_cifar --model=cnn5
//
// Each row of figure_table() is one paper artifact; its name is the stem of
// the CSV it writes under --out-dir (default groupfel_results/). A training
// row declares its variants (label, federation spec, Algorithm 1 config,
// Eq. 5 budget), whether they are seed-averaged, its x axis, its summary
// columns and the paper's expected shape. The runner trains the cells of
// every selected row as ONE core::run_sweep — identical cells train once, so
// fig9 and fig10 share all 21 of theirs — and then prints each row's lines,
// table, plot and CSV. The other rows (protocol timings, grouping-only
// frontiers, the compressed FL loop) keep a body of their own; they run after
// the sweep, so no timing overlaps training.
//
// Flags: the uniform set of bench_common.hpp, plus --fig=NAME[,NAME...]
// (default all) and --model=mlp|resnet3|cnn5 for fig9/fig10's shared cells
// (their CSVs get a _<model> suffix when it is not mlp).
#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "compression/compressor.hpp"
#include "core/sweep_codec.hpp"
#include "cost/calibration.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "grouping/grouping.hpp"
#include "net/network_model.hpp"
#include "runtime/timer.hpp"
#include "secagg/secure_aggregator.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/stats.hpp"

using namespace groupfel;

namespace {

// ---------------------------------------------------------------- the rows

/// One curve of a training row: the cell that trains it (seed-expanded by
/// bench::seed_cells when the row is seed-averaged).
struct Variant {
  std::string label;  ///< series name
  core::ExperimentSpec spec;
  core::GroupFelConfig config;
  cost::GroupOp op = cost::GroupOp::kSecAgg;
  double budget = 0.0;  ///< Eq. 5 cost budget; 0 runs every round
};

/// A variant after the sweep: its (seed-averaged) history and whatever the
/// row's probe measured on it.
struct Outcome {
  const Variant& variant;
  core::TrainResult result;
  std::vector<double> probe;
};

using Text = std::function<std::string(const Outcome&)>;

struct Column {
  std::string header;
  Text cell;
};

struct Table {
  std::string title;
  std::vector<Column> columns;
};

/// The ASCII plot and the long-format series CSV written beside it.
struct Plot {
  std::string title, x_label, y_label;
  std::string csv_x, csv_y;
};

/// A one-line-per-variant numeric CSV (Table 1's layout).
struct Record {
  std::vector<std::string> columns;
  std::function<std::vector<double>(const Outcome&)> values;
};

struct Figure {
  std::string name{};  ///< --fig name and CSV stem
  std::vector<Variant> variants{};
  bool seed_averaged = false;
  /// The x axis: round_series or cost_series, or a row-specific curve.
  std::function<util::Series(const Outcome&)> series{};
  /// Post-processing on a trained variant (gradient norms, probe groups).
  std::function<std::vector<double>(const Variant&, const core::TrainResult&)>
      probe{};
  Text line{};  ///< printed per variant before the table
  std::optional<Table> table{};
  std::optional<Plot> plot{};
  std::optional<Record> record{};
  std::string csv{};  ///< series CSV file name; empty: name + ".csv"
  std::string expected{};
  /// A row that is not sweep-shaped: its whole body.
  std::function<void()> run{};
};

// --------------------------------------------------------- shared helpers

/// Shared budget for the cost-domain comparisons, scaled off the default
/// bench scale (the paper uses 1e6 at full scale). Override with --budget.
double bench_budget() {
  if (bench::options().budget >= 0.0) return bench::options().budget;
  return 4e5 * (bench::bench_scale() / 0.33);
}

/// Best accuracy reached within a cost budget (Fig. 10/11 protocol: every
/// method gets the SAME spend; history entries beyond it are ignored).
double accuracy_at_cost(const core::TrainResult& result, double budget) {
  double best = 0.0;
  for (const auto& m : result.history)
    if (m.cumulative_cost <= budget) best = std::max(best, m.accuracy);
  return best;
}

/// Instability metric: worst round-over-round accuracy drop.
double worst_drop(const core::TrainResult& result) {
  double worst = 0.0;
  for (std::size_t i = 1; i < result.history.size(); ++i)
    worst = std::max(worst, result.history[i - 1].accuracy -
                                result.history[i].accuracy);
  return worst;
}

util::Series round_series(const Outcome& o) {
  util::Series s;
  s.name = o.variant.label;
  for (const auto& m : o.result.history) {
    s.x.push_back(static_cast<double>(m.round));
    s.y.push_back(m.accuracy);
  }
  return s;
}

util::Series cost_series(const Outcome& o) {
  util::Series s;
  s.name = o.variant.label;
  for (const auto& m : o.result.history) {
    s.x.push_back(m.cumulative_cost);
    s.y.push_back(m.accuracy);
  }
  return s;
}

/// Writes a set of series as one long-format CSV (series,x,y).
void write_series_csv(const std::string& filename, const std::string& x_name,
                      const std::string& y_name,
                      const std::vector<util::Series>& series) {
  util::CsvWriter csv(bench::results_dir() + "/" + filename,
                      {"series", x_name, y_name});
  for (const auto& s : series)
    for (std::size_t i = 0; i < s.x.size(); ++i)
      csv.row_strings({s.name, util::format_double(s.x[i]),
                       util::format_double(s.y[i])});
  csv.flush();
  std::cout << "wrote " << bench::results_dir() << "/" << filename << "\n";
}

Column label_column(const std::string& header) {
  return {header, [](const Outcome& o) { return o.variant.label; }};
}
Column best_acc() {
  return {"best acc", [](const Outcome& o) {
            return util::fixed(o.result.best_accuracy, 4);
          }};
}
Column final_acc() {
  return {"final acc", [](const Outcome& o) {
            return util::fixed(o.result.final_accuracy, 4);
          }};
}
Column acc_at_budget() {
  return {"acc@budget", [](const Outcome& o) {
            return util::fixed(accuracy_at_cost(o.result, bench_budget()), 4);
          }};
}
Column total_cost(const std::string& header) {
  return {header,
          [](const Outcome& o) { return util::fixed(o.result.total_cost, 0); }};
}
Column worst_drop_column() {
  return {"worst drop", [](const Outcome& o) {
            return util::fixed(worst_drop(o.result), 4);
          }};
}

std::vector<core::Method> all_methods() {
  return {core::Method::kFedAvg,   core::Method::kFedProx,
          core::Method::kScaffold, core::Method::kGroupFel,
          core::Method::kOuea,     core::Method::kShare,
          core::Method::kFedClar};
}

/// One baseline (or Group-FEL) on `spec`. FedCLAR clusters a third of the
/// way in, so its post-clustering drop shows.
Variant method_variant(const core::ExperimentSpec& spec,
                       core::GroupFelConfig cfg, core::Method method) {
  if (method == core::Method::kFedClar)
    cfg.fedclar.cluster_round = std::max<std::size_t>(2, cfg.global_rounds / 3);
  core::apply_method(method, cfg);
  return {core::to_string(method), spec, cfg, core::cost_group_op(method)};
}

std::vector<Variant> method_variants(const core::ExperimentSpec& spec,
                                     const core::GroupFelConfig& cfg,
                                     const std::vector<core::Method>& methods) {
  std::vector<Variant> out;
  out.reserve(methods.size());
  for (const auto method : methods)
    out.push_back(method_variant(spec, cfg, method));
  return out;
}

/// Group-FEL (CoVG + ESRCoV) on `spec` with one knob set by `tweak`.
Variant groupfel_variant(
    std::string label, const core::ExperimentSpec& spec,
    const std::function<void(core::GroupFelConfig&)>& tweak,
    double budget = 0.0) {
  core::GroupFelConfig cfg = bench::base_config();
  core::apply_method(core::Method::kGroupFel, cfg);
  tweak(cfg);
  return {std::move(label), spec, cfg, cost::GroupOp::kSecAgg, budget};
}

core::ExperimentSpec cifar_spec() {
  return core::default_cifar_spec(bench::bench_scale());
}

core::ModelKind parse_model(const std::string& name) {
  if (name == "mlp") return core::ModelKind::kMlp;
  if (name == "resnet3") return core::ModelKind::kResNet3;
  if (name == "cnn5") return core::ModelKind::kCnn5;
  throw std::invalid_argument("unknown --model (mlp|resnet3|cnn5): " + name);
}

// ------------------------------------------- Figs. 2(a) and 8: measurements

/// The measured protocol curves behind Figs. 2(a) and 8, from THIS
/// repository's real implementations: one SGD epoch over data size, FLAME
/// and SecAgg over group size, and (with `scaffold`) SecAgg at twice the
/// dimension, since SCAFFOLD ships model + control variate. Seconds are
/// multiplied by `unit`.
std::vector<util::Series> measure_protocols(
    const std::string& prefix, const std::vector<std::size_t>& group_sizes,
    const std::vector<std::size_t>& data_sizes, std::size_t dim,
    std::size_t feature_dim, std::size_t classes, double unit, bool scaffold) {
  std::vector<util::Series> series;
  auto add = [&](const std::string& op,
                 const std::vector<cost::MeasurementPoint>& pts) {
    util::Series s;
    s.name = prefix + op;
    for (const auto& p : pts) {
      s.x.push_back(p.x);
      s.y.push_back(p.seconds * unit);
    }
    series.push_back(std::move(s));
  };
  add("Training", cost::measure_training(data_sizes, feature_dim, classes));
  add("Backdoor", cost::measure_backdoor(group_sizes, dim));
  add("SecAgg", cost::measure_secagg(group_sizes, dim));
  if (scaffold)
    add("SCAFFOLD SecAgg", cost::measure_secagg(group_sizes, dim * 2));
  return series;
}

/// Training is linear in data size and group operations quadratic in group
/// size; returns the model name, R^2 and the leading coefficient.
struct ShapeFit {
  std::string model;
  double r2 = 0.0;
  double lead = 0.0;
};
ShapeFit shape_fit(const util::Series& s) {
  if (s.name.find("Training") != std::string::npos) {
    const auto fit = util::fit_linear(s.x, s.y);
    return {"linear", fit.r2, fit.slope};
  }
  const auto fit = util::fit_quadratic(s.x, s.y);
  return {"quadratic", fit.r2, fit.a};
}

// Fig. 2(a): group overheads vs data/group size. The paper's Raspberry Pi
// measurements show secure aggregation and backdoor detection growing
// quadratically with group size while training grows linearly with data
// size. Plots the calibrated cost model over the paper's x-range and
// validates the SHAPES against measured fits.
void fig2a() {
  const cost::CostModel secagg =
      cost::default_cost_model(cost::Task::kCifar, cost::GroupOp::kSecAgg);
  const cost::CostModel backdoor = cost::default_cost_model(
      cost::Task::kCifar, cost::GroupOp::kBackdoorDetection);

  std::vector<util::Series> series(3);
  series[0].name = "Training";
  series[1].name = "SecureAggregation";
  series[2].name = "BackdoorDetection";
  for (double x = 2; x <= 50; x += 2) {
    const auto n = static_cast<std::size_t>(x);
    for (auto& s : series) s.x.push_back(x);
    series[0].y.push_back(secagg.training_cost(n));
    series[1].y.push_back(secagg.group_op_cost(n));
    series[2].y.push_back(backdoor.group_op_cost(n));
  }
  std::cout << util::ascii_plot(series,
                                "Fig 2(a): group overheads vs data/group size",
                                "data or group size", "time (s)");
  write_series_csv("fig2a_group_overheads.csv", "size", "seconds", series);

  const auto measured = measure_protocols(
      "", {2, 4, 8, 12, 16, 20}, {8, 16, 32, 64, 128}, 512, 32, 10, 1.0, false);
  const ShapeFit train = shape_fit(measured[0]);
  const ShapeFit flame = shape_fit(measured[1]);
  const ShapeFit sec = shape_fit(measured[2]);
  std::cout << "\nmeasured shape validation (this machine, real protocols):\n"
            << "  SecAgg per-client time quadratic fit:   R^2 = "
            << util::fixed(sec.r2, 4) << " (a=" << util::num(sec.lead, 3)
            << ")\n"
            << "  FLAME per-client time quadratic fit:    R^2 = "
            << util::fixed(flame.r2, 4) << " (a=" << util::num(flame.lead, 3)
            << ")\n"
            << "  SGD epoch time linear fit:              R^2 = "
            << util::fixed(train.r2, 4) << " (slope="
            << util::num(train.lead, 3) << ")\n"
            << "expected: quadratic R^2 high for group ops, linear R^2 high "
               "for training — matching the paper's Fig. 2(a)/Fig. 8.\n";
}

// Fig. 8: the Raspberry Pi overhead measurement, substituted with wall-clock
// measurement of this repository's protocols for CIFAR- and SC-sized models
// (DESIGN.md §2). Absolute seconds differ from RPi hardware; the SHAPES are
// the reproduced result.
void fig8() {
  struct TaskSpec {
    std::string name;
    std::size_t model_dim;  // flat parameter count scale
    std::size_t feature_dim;
    std::size_t classes;
  };
  // Model dims approximate our MLP surrogates for each task.
  const std::vector<TaskSpec> tasks{{"CIFAR", 2048, 32, 10},
                                    {"SC", 1024, 40, 35}};
  std::vector<util::Series> series;
  for (const auto& task : tasks) {
    auto measured = measure_protocols(
        task.name + " ", {2, 4, 6, 8, 12, 16, 20}, {8, 16, 32, 64, 96, 128},
        task.model_dim, task.feature_dim, task.classes, 1e3, true);
    for (auto& s : measured) series.push_back(std::move(s));
  }
  std::cout << util::ascii_plot(series,
                                "Fig 8: measured overheads (this host)",
                                "data / group size", "time (ms)");
  write_series_csv("fig8_overhead_measurement.csv", "size", "milliseconds",
                   series);

  std::vector<std::vector<std::string>> rows;
  for (const auto& s : series) {
    const ShapeFit fit = shape_fit(s);
    rows.push_back({s.name, fit.model, util::fixed(fit.r2, 4)});
  }
  std::cout << util::ascii_table("Fig 8 shape fits", {"series", "model", "R^2"},
                                 rows);
  std::cout << "expected: all R^2 near 1; SCAFFOLD SecAgg above SecAgg above "
               "Backdoor at every group size (paper Fig. 8).\n";
}

// --------------------------------------------- Figs. 5 and 6: grouping only

std::vector<grouping::GroupingMethod> grouping_methods() {
  return {grouping::GroupingMethod::kRandom, grouping::GroupingMethod::kCdg,
          grouping::GroupingMethod::kKldg, grouping::GroupingMethod::kCov};
}

data::LabelMatrix grouping_matrix(std::size_t clients, std::uint64_t seed) {
  runtime::Rng rng(seed);
  data::SyntheticSpec spec;
  spec.num_classes = 10;
  spec.sample_shape = {1};  // features irrelevant for grouping timing
  spec.label_noise = 0.0;
  auto pool = std::make_shared<data::DataSet>(
      data::make_synthetic(spec, clients * 40, rng));
  data::PartitionSpec part;
  part.num_clients = clients;
  part.alpha = 0.1;
  part.size_mean = 25;
  part.size_std = 8;
  part.size_min = 10;
  part.size_max = 40;
  auto shards = data::dirichlet_partition(pool, part, rng);
  return data::LabelMatrix::from_shards(shards);
}

// Fig. 5: running time of the grouping methods over the number of clients.
// Paper: RG and CDG group 1000 clients almost instantly; CoVG takes ~6 s
// (O(|K|^3), cheap arithmetic); KLDG is the slowest (O(|K|^4 |Y|) plus
// floating-point log()). Client counts 200..1000 scale with --scale.
void fig5() {
  std::vector<std::size_t> counts;
  for (std::size_t base : {200u, 400u, 600u, 800u, 1000u})
    counts.push_back(std::max<std::size_t>(
        20, static_cast<std::size_t>(static_cast<double>(base) *
                                     bench::bench_scale())));

  grouping::GroupingParams params;
  params.min_group_size = 5;
  params.max_cov = 0.5;
  params.kld_threshold = 0.05;

  std::vector<util::Series> series;
  for (const auto method : grouping_methods()) {
    util::Series s;
    s.name = grouping::to_string(method);
    for (const auto n : counts) {
      const data::LabelMatrix matrix = grouping_matrix(n, 7);
      runtime::Rng rng(13);
      runtime::Timer timer;
      const auto groups = grouping::form_groups(method, matrix, params, rng);
      const double secs = timer.seconds();
      grouping::validate_partition(groups, n);
      s.x.push_back(static_cast<double>(n));
      s.y.push_back(secs);
      std::cout << s.name << " n=" << n << ": " << util::fixed(secs * 1e3, 2)
                << " ms (" << groups.size() << " groups)\n";
    }
    series.push_back(std::move(s));
  }

  std::cout << util::ascii_plot(series, "Fig 5: grouping time vs #clients",
                                "#clients", "time (s)");
  write_series_csv("fig5_grouping_time.csv", "clients", "seconds", series);
  std::cout << "expected shape: RG ~ CDG (near-zero) < CoVG << KLDG, with "
               "KLDG's gap widening with client count.\n";
}

// Fig. 6: average group CoV vs average per-client group overhead. For any
// overhead level CoVG produces the lowest-CoV (most IID) groups; the
// frontier is traced by sweeping the minimum group size.
void fig6() {
  // One edge server population, heavily skewed.
  core::ExperimentSpec spec = cifar_spec();
  spec.num_edges = 1;
  const core::Experiment exp = core::build_experiment(spec);
  const data::LabelMatrix matrix = exp.topology.clients.label_matrix();
  const cost::CostModel cost_model =
      core::build_cost_model(spec.task, cost::GroupOp::kSecAgg);

  std::vector<util::Series> series;
  for (const auto method : grouping_methods()) {
    util::Series s;
    s.name = grouping::to_string(method);
    for (const std::size_t gs : {3u, 5u, 8u, 12u, 16u, 24u}) {
      grouping::GroupingParams params;
      params.min_group_size = gs;
      params.max_cov = 0.0;  // CoVG keeps improving until no gain remains
      runtime::Rng rng(29);
      const auto groups = grouping::form_groups(method, matrix, params, rng);
      const auto summary = grouping::summarize(matrix, groups);
      double overhead = 0.0;
      for (const auto& g : groups)
        overhead += static_cast<double>(g.size()) *
                    cost_model.group_op_cost(g.size());
      overhead /= static_cast<double>(matrix.num_clients());
      // Axes as in the paper: x = avg CoV, y = avg per-client overhead.
      s.x.push_back(summary.avg_cov);
      s.y.push_back(overhead);
    }
    std::cout << s.name << ": CoV range [" << util::fixed(util::min_of(s.x), 3)
              << ", " << util::fixed(util::max_of(s.x), 3) << "]\n";
    series.push_back(std::move(s));
  }

  std::cout << util::ascii_plot(series,
                                "Fig 6: avg CoV vs avg group overhead",
                                "avg CoV", "overhead per client (s)");
  write_series_csv("fig6_cov_vs_overhead.csv", "avg_cov",
                   "overhead_per_client", series);
  std::cout << "expected shape: CoVG's curve sits lowest/leftmost — least "
               "overhead for any CoV target (paper Fig. 6).\n";
}

// ------------------------------------------- Figs. 2(b), 7, 9-12, Table 1

// Fig. 2(b): shrinking the group alone does NOT reduce the cost to reach an
// accuracy — small random groups are more skewed. Random grouping with
// fixed GS, uniform sampling, same budget.
Figure fig2b() {
  Figure f{.name = "fig2b_group_size", .series = cost_series};
  for (const std::size_t gs : {5u, 10u, 15u, 20u}) {
    core::GroupFelConfig cfg = bench::base_config();
    core::apply_method(core::Method::kFedAvg, cfg);  // RG + uniform sampling
    cfg.grouping_params.min_group_size = gs;
    // Keep the number of participating CLIENTS per round roughly constant
    // so curves compare budgets fairly: S * GS ~= 30.
    cfg.sampled_groups = std::max<std::size_t>(1, 30 / gs);
    f.variants.push_back({"GS=" + std::to_string(gs), cifar_spec(), cfg});
  }
  f.line = [](const Outcome& o) {
    const core::TrainResult& r = o.result;
    return util::cat(o.variant.label, ": final acc ",
                     util::fixed(r.final_accuracy, 4), " at cost ",
                     util::fixed(r.total_cost, 0), " (", r.grouping.num_groups,
                     " groups, avg CoV ", util::fixed(r.grouping.avg_cov, 3),
                     ")");
  };
  f.plot = Plot{"Fig 2(b): accuracy vs cost by group size", "cost (s)",
                "accuracy", "cost", "accuracy"};
  f.expected =
      "expected shape: curves roughly overlap — shrinking GS alone does not "
      "buy accuracy-per-cost (the paper's motivation).";
  return f;
}

// Fig. 7: group-sampling rules with CoVG groups. Paper: the more the weight
// function emphasizes CoV, the smoother and faster the convergence.
Figure fig7() {
  Figure f{.name = "fig7_sampling_methods", .seed_averaged = true,
           .series = cost_series};
  for (const auto rule :
       {sampling::SamplingMethod::kRandom, sampling::SamplingMethod::kRCov,
        sampling::SamplingMethod::kSRCov, sampling::SamplingMethod::kESRCov})
    f.variants.push_back(groupfel_variant(
        sampling::to_string(rule), cifar_spec(),
        [rule](core::GroupFelConfig& c) { c.sampling = rule; }));
  f.table = Table{"Fig 7 summary",
                  {label_column("sampling"), acc_at_budget(), best_acc(),
                   total_cost("cost")}};
  f.plot = Plot{"Fig 7: sampling methods, accuracy vs cost", "cost (s)",
                "accuracy", "cost", "accuracy"};
  f.expected =
      "paper shape: ESRCoV >= SRCoV >= RCoV >= Random. In this substrate the "
      "four rules are statistically tied — the data-coverage loss from "
      "concentrating on the lowest-CoV groups offsets the prioritization "
      "gain (EXPERIMENTS.md, partial-reproduction notes).";
  return f;
}

/// fig9 and fig10's shared cell set: all seven methods on the CIFAR task.
std::vector<Variant> cifar_methods(core::ModelKind model) {
  core::ExperimentSpec spec = cifar_spec();
  spec.model = model;
  return method_variants(spec, bench::base_config(), all_methods());
}

std::string model_csv(const std::string& stem, const std::string& model) {
  return model == "mlp" ? stem + ".csv" : stem + "_" + model + ".csv";
}

// Fig. 9: accuracy vs global round. Paper: Group-FEL converges above every
// baseline; the baselines cluster; FedCLAR DROPS after its clustering round.
Figure fig9(const std::string& model) {
  Figure f{.name = "fig9_accuracy_vs_round",
           .variants = cifar_methods(parse_model(model)),
           .seed_averaged = true,
           .series = round_series};
  f.line = [](const Outcome& o) {
    return o.variant.label + " done: final " +
           util::fixed(o.result.final_accuracy, 4);
  };
  f.table = Table{"Fig 9 summary (CIFAR-like)",
                  {label_column("method"), final_acc(), best_acc()}};
  f.plot = Plot{"Fig 9: accuracy vs global round", "global round", "accuracy",
                "round", "accuracy"};
  f.csv = model_csv(f.name, model);
  f.expected =
      "expected shape: baselines clustered together; FedCLAR lags after its "
      "clustering round. Note: per ROUND the variance-reduced SCAFFOLD leads "
      "in this substrate; the paper's headline comparison is per COST (Fig. "
      "10), where Group-FEL ties OUEA for the lead (see EXPERIMENTS.md).";
  return f;
}

// Fig. 10: accuracy vs TOTAL COST (Eq. 5). FedProx/SCAFFOLD pay extra
// computation/communication per round, and OUEA/SHARE form some very large
// (costly) groups since they do not control group size.
Figure fig10(const std::string& model) {
  Figure f{.name = "fig10_accuracy_vs_cost_cifar",
           .variants = cifar_methods(parse_model(model)),
           .seed_averaged = true,
           .series = cost_series};
  f.table = Table{"Fig 10 summary (CIFAR-like)",
                  {label_column("method"), acc_at_budget(), best_acc(),
                   total_cost("total cost"),
                   {"avg group size", [](const Outcome& o) {
                      return util::fixed(o.result.grouping.avg_size, 2);
                    }}}};
  f.plot = Plot{"Fig 10: accuracy vs cost (CIFAR)", "cost (s)", "accuracy",
                "cost", "accuracy"};
  f.csv = model_csv(f.name, model);
  f.expected =
      "paper shape: Group-FEL best per unit cost. Here it spends the least "
      "total cost (smallest groups), but at budget it ties OUEA within seed "
      "noise; SCAFFOLD's double communication does not make it worst — "
      "FedAvg, FedProx, FedCLAR and SHARE sit below it at budget; SHARE's "
      "uncontrolled group sizes cost about twice the total (EXPERIMENTS.md).";
  return f;
}

Text done_line() {
  return [](const Outcome& o) { return o.variant.label + " done"; };
}

// Fig. 11: the SpeechCommands task (§7.3.2): 35 classes, alpha = 0.01,
// MinGS = 15, no MaxCoV constraint. Noisier, same ordering as CIFAR.
Figure fig11() {
  core::GroupFelConfig base = bench::base_config();
  base.grouping_params.min_group_size = 15;  // paper: MinGS = 15 for all
  base.grouping_params.max_cov = 1e9;        // no MaxCoV constraint
  base.sampled_groups = 4;
  Figure f{.name = "fig11_accuracy_vs_cost_sc",
           .variants = method_variants(
               core::default_sc_spec(bench::bench_scale()), base,
               all_methods()),
           .seed_averaged = true,
           .series = cost_series,
           .line = done_line()};
  f.table = Table{"Fig 11 summary (SC-like, alpha=0.01)",
                  {label_column("method"), acc_at_budget(), best_acc(),
                   total_cost("total cost")}};
  f.plot = Plot{"Fig 11: accuracy vs cost (SC)", "cost (s)", "accuracy",
                "cost", "accuracy"};
  f.expected =
      "expected shape: noisier curves (extreme skew), same ordering as CIFAR "
      "with Group-FEL best (paper Fig. 11).";
  return f;
}

// Fig. 12: the grouping x sampling factorial (CDG omitted as in the paper).
// The advantage only fully materializes when BOTH pieces are used.
Figure fig12() {
  using G = grouping::GroupingMethod;
  using S = sampling::SamplingMethod;
  Figure f{.name = "fig12_grouping_x_sampling", .seed_averaged = true,
           .series = cost_series, .line = done_line()};
  const std::vector<std::tuple<std::string, G, S>> combos{
      {"CoVG+RS", G::kCov, S::kRandom},     {"RG+CoVS", G::kRandom, S::kESRCov},
      {"CoVG+CoVS", G::kCov, S::kESRCov},   {"KLDG+RS", G::kKldg, S::kRandom},
      {"KLDG+CoVS", G::kKldg, S::kESRCov}};
  for (const auto& [name, grouping, rule] : combos) {
    core::GroupFelConfig cfg = bench::base_config();
    cfg.grouping = grouping;
    cfg.sampling = rule;
    f.variants.push_back({name, cifar_spec(), cfg});
  }
  f.table = Table{"Fig 12 summary",
                  {label_column("combo"), acc_at_budget(), best_acc(),
                   total_cost("total cost")}};
  f.plot = Plot{"Fig 12: grouping x sampling, accuracy vs cost", "cost (s)",
                "accuracy", "cost", "accuracy"};
  f.expected =
      "paper shape: CoVG+CoVS clearly best. Here the GROUPING dimension "
      "reproduces decisively (CoVG combos beat RG/KLDG combos by 2-4 points "
      "at equal budget); the sampling dimension is within noise "
      "(EXPERIMENTS.md).";
  return f;
}

// Table 1: Group-FEL over alpha x MaxCoV. Paper (300 clients, 3 edges, K=5,
// E=2, MinGS=5, budget 1e6): larger MaxCoV -> smaller groups with larger
// CoV; larger alpha -> higher accuracy overall.
Figure table1() {
  const double scale = bench::bench_scale();
  // Paper budget is 1e6 with 300 clients; scale the budget with the data.
  const double budget = 1e6 * scale * scale;
  Figure f{.name = "table1_alpha_maxcov", .line = done_line()};
  for (const double alpha : {0.1, 0.5, 1.0}) {
    core::ExperimentSpec spec = cifar_spec();
    spec.alpha = alpha;
    for (const double max_cov : {0.1, 0.5, 1.0})
      f.variants.push_back(groupfel_variant(
          util::cat("alpha=", alpha, " MaxCoV=", max_cov), spec,
          [max_cov](core::GroupFelConfig& c) {
            c.grouping_params.max_cov = max_cov;
          },
          budget));
  }
  f.table = Table{
      "Table 1: Group-FEL vs alpha and MaxCoV",
      {{"alpha",
        [](const Outcome& o) { return util::num(o.variant.spec.alpha, 2); }},
       {"MaxCoV",
        [](const Outcome& o) {
          return util::num(o.variant.config.grouping_params.max_cov, 2);
        }},
       {"GS [min,max](avg)",
        [](const Outcome& o) {
          const auto& g = o.result.grouping;
          return util::cat("[", g.min_size, ", ", g.max_size, "](",
                           util::fixed(g.avg_size, 2), ")");
        }},
       {"Avg CoV",
        [](const Outcome& o) {
          return util::fixed(o.result.grouping.avg_cov, 2);
        }},
       {"Accu", [](const Outcome& o) {
          return util::fixed(o.result.best_accuracy * 100.0, 2) + "%";
        }}}};
  f.record = Record{
      {"alpha", "max_cov", "gs_min", "gs_max", "gs_avg", "avg_cov",
       "accuracy"},
      [](const Outcome& o) {
        const auto& g = o.result.grouping;
        return std::vector<double>{o.variant.spec.alpha,
                                   o.variant.config.grouping_params.max_cov,
                                   static_cast<double>(g.min_size),
                                   static_cast<double>(g.max_size),
                                   g.avg_size, g.avg_cov,
                                   o.result.best_accuracy};
      }};
  f.expected =
      "expected trends: within each alpha block, larger MaxCoV -> smaller "
      "groups + larger CoV; larger alpha -> higher accuracy (paper Table 1).";
  return f;
}

// ------------------------------------------------- Theorem 1 (§4.3)

/// Full-batch squared gradient norm of the global loss at `params`.
double global_grad_norm_sq(const core::Experiment& exp,
                           const std::vector<float>& params) {
  nn::Model model = exp.topology.model_factory();
  runtime::Rng rng(1);
  model.init(rng);
  model.set_flat_parameters(params);
  model.zero_grad();

  // Pool every client's data: f(x) = sum_i (n_i/n) f_i(x) evaluated exactly.
  std::vector<std::size_t> all;
  for (const auto& shard : exp.topology.clients.shards())
    for (auto idx : shard.indices()) all.push_back(idx);

  const auto& dataset = exp.topology.clients.shards().front().dataset();
  const std::size_t batch = 512;
  const double inv_total = 1.0 / static_cast<double>(all.size());
  for (std::size_t start = 0; start < all.size(); start += batch) {
    const std::size_t end = std::min(all.size(), start + batch);
    const auto b = dataset.gather({all.data() + start, end - start});
    const nn::Tensor logits = model.forward(b.features, /*train=*/true);
    nn::LossResult lr = nn::softmax_cross_entropy(logits, b.labels);
    // Re-scale the mean-reduced batch gradient to the global mean.
    lr.grad *= static_cast<float>(static_cast<double>(end - start) * inv_total);
    model.backward(lr.grad);
  }
  double norm_sq = 0.0;
  for (float g : model.flat_gradients())
    norm_sq += static_cast<double>(g) * static_cast<double>(g);
  return norm_sq;
}

// Theorem 1 validation: the bound (Eq. 10) on (1/T) sum_t ||grad f(x_t)||^2
// carries a lambda_4 * zeta_g^2 term. zeta_g is not directly computable
// (§4.3); its proxy is the group-label CoV. Trains with RG (high CoV) and
// CoVG (low CoV) groups under IDENTICAL sampling, then measures
// ||grad f(x_t)||^2 on the pooled training data at every recorded iterate.
Figure theory_convergence() {
  // One edge server: grouping quality scales with the pool an edge can draw
  // from, and this row isolates the zeta_g effect, so give CoVG the full
  // population (the paper's edges hold 100 clients each).
  core::ExperimentSpec spec = cifar_spec();
  spec.num_edges = 1;
  Figure f{.name = "theory_convergence"};
  for (const auto method :
       {grouping::GroupingMethod::kRandom, grouping::GroupingMethod::kCov}) {
    core::GroupFelConfig cfg = bench::base_config();
    cfg.grouping = method;
    cfg.sampling = sampling::SamplingMethod::kRandom;  // isolate grouping
    cfg.grouping_params.max_cov = 0.3;  // drive zeta_g as low as possible
    cfg.record_param_history = true;
    f.variants.push_back({grouping::to_string(method), spec, cfg});
  }
  f.probe = [](const Variant& v, const core::TrainResult& result) {
    const core::Experiment exp = core::build_experiment(v.spec);
    std::vector<double> norms;
    norms.reserve(result.param_history.size());
    for (const auto& params : result.param_history)
      norms.push_back(global_grad_norm_sq(exp, params));
    return norms;
  };
  f.series = [](const Outcome& o) {
    util::Series s;
    s.name = o.variant.label;
    for (std::size_t t = 0; t < o.probe.size(); ++t) {
      s.x.push_back(static_cast<double>(t));
      s.y.push_back(o.probe[t]);
    }
    return s;
  };
  f.table = Table{
      "Theorem 1 validation: avg ||grad f(x_t)||^2 by grouping",
      {label_column("grouping"),
       {"mean ||grad||^2",
        [](const Outcome& o) { return util::num(util::mean(o.probe), 4); }},
       {"avg group CoV",
        [](const Outcome& o) {
          return util::fixed(o.result.grouping.avg_cov, 3);
        }},
       final_acc()}};
  f.plot = Plot{"||grad f(x_t)||^2 per round (lower = faster convergence)",
                "round", "||grad||^2", "round", "grad_norm_sq"};
  f.expected =
      "expected: CoVG (smaller group CoV, i.e. smaller zeta_g) yields smaller "
      "average gradient norms — the lambda_4 * zeta_g^2 term of Eq. 10 at "
      "work.";
  return f;
}

// ------------------------------------------------------------- ablations

// §6.2: biased vs unbiased (Eq. 4) vs stabilized (Eq. 35) aggregation under
// ESRCoV sampling. The unbiased factor 1/(p_g S) explodes when a
// low-probability group is drawn.
Figure ablation_aggregation() {
  Figure f{.name = "ablation_aggregation", .series = round_series};
  for (const auto mode : {sampling::AggregationMode::kBiased,
                          sampling::AggregationMode::kUnbiased,
                          sampling::AggregationMode::kStabilized})
    f.variants.push_back(groupfel_variant(
        sampling::to_string(mode), cifar_spec(),
        [mode](core::GroupFelConfig& c) { c.aggregation = mode; }));
  f.table = Table{"Aggregation-mode ablation (ESRCoV sampling)",
                  {label_column("mode"), best_acc(), final_acc(),
                   worst_drop_column()}};
  f.plot = Plot{"Ablation: aggregation mode, accuracy vs round", "round",
                "accuracy", "round", "accuracy"};
  f.expected =
      "expected: unbiased never recovers from 1/p_g amplification — it "
      "stays near chance, so its worst drop is small; stabilized learns "
      "with the largest worst drop and ends a few points below biased "
      "(§6.2).";
  return f;
}

// Client churn: per-round dropout probability of mobile clients; secure
// aggregation recovers dropped members through Shamir shares.
Figure ablation_client_churn() {
  Figure f{.name = "ablation_client_churn", .series = round_series};
  for (const double rate : {0.0, 0.1, 0.3, 0.5})
    f.variants.push_back(groupfel_variant(
        "drop=" + util::num(rate, 2), cifar_spec(),
        [rate](core::GroupFelConfig& c) { c.client_dropout_rate = rate; }));
  f.table = Table{"Client-churn ablation (Group-FEL)",
                  {{"dropout rate",
                    [](const Outcome& o) {
                      return util::num(o.variant.config.client_dropout_rate, 2);
                    }},
                   best_acc(), final_acc()}};
  f.plot = Plot{"Ablation: client churn", "round", "accuracy", "round",
                "accuracy"};
  f.expected =
      "expected: graceful degradation — moderate churn costs a few accuracy "
      "points; convergence never breaks.";
  return f;
}

struct CompressionRun {
  util::Series curve;  // accuracy vs cumulative MB uploaded
  double final_acc = 0.0;
  double total_mb = 0.0;
};

// FedAvg-style rounds where every client's delta passes through the
// compressor before averaging (error feedback is not captured by a post-hoc
// simulation over recorded parameters, so this row trains its own loop).
CompressionRun run_compressed_fl(const core::Experiment& exp,
                                 const compression::CompressorConfig& cc,
                                 const std::string& name, std::size_t rounds) {
  runtime::Rng rng(2024);
  nn::Model global = exp.topology.model_factory();
  global.init(rng);
  std::vector<float> params = global.flat_parameters();

  CompressionRun out;
  out.curve.name = name;
  double bytes = 0.0;
  const std::size_t clients_per_round = 20;
  algorithms::SgdRule rule;
  algorithms::LocalTrainConfig lcfg;
  lcfg.epochs = 2;
  lcfg.lr = 0.1f;
  lcfg.batch_size = 8;

  // One reconstruction buffer reused across every client and round: the
  // server decodes each upload in place (decompress_into).
  std::vector<float> recon(params.size());

  for (std::size_t t = 0; t < rounds; ++t) {
    const auto chosen = rng.sample_without_replacement(
        exp.topology.clients.num_clients(), clients_per_round);
    std::vector<std::vector<float>> updates;
    std::vector<double> weights;
    for (auto cid : chosen) {
      nn::Model local = global.clone();
      local.set_flat_parameters(params);
      runtime::Rng crng = rng.fork(t * 1000 + cid);
      (void)rule.train_client(local, exp.topology.clients.client(cid), params,
                              cid, lcfg, crng);
      std::vector<float> delta = local.flat_parameters();
      for (std::size_t i = 0; i < delta.size(); ++i) delta[i] -= params[i];

      // The client uploads the COMPRESSED delta; the server reconstructs.
      // SR payloads get a per-(round, client) stream so repeated uploads do
      // not share rounding decisions.
      compression::CompressorConfig client_cc = cc;
      client_cc.seed = cc.seed * 1000003ull + t * 131ull + cid;
      const auto compressed = compression::compress(delta, client_cc);
      bytes += static_cast<double>(compressed.wire_bytes());
      compression::decompress_into(compressed, recon);
      updates.emplace_back(recon.begin(), recon.end());
      weights.push_back(
          static_cast<double>(exp.topology.clients.data_count(cid)));
    }
    double wsum = 0.0;
    for (double w : weights) wsum += w;
    for (auto& w : weights) w /= wsum;
    const std::vector<float> mean_update =
        nn::weighted_average(updates, weights);
    for (std::size_t i = 0; i < params.size(); ++i) params[i] += mean_update[i];

    nn::Model eval_model = global.clone();
    eval_model.set_flat_parameters(params);
    const auto ev = core::evaluate(eval_model, *exp.topology.test_set);
    out.curve.x.push_back(bytes / 1e6);
    out.curve.y.push_back(ev.accuracy);
    out.final_acc = ev.accuracy;
  }
  out.total_mb = bytes / 1e6;
  return out;
}

// Update compression (§2.3's communication-bottleneck remedy): top-k
// sparsification composed with an int8 / int8-SR / fp16 payload codec;
// accuracy against CUMULATIVE UPLOAD BYTES ([26, 27] loss-over-traffic).
void ablation_compression() {
  const core::Experiment exp = core::build_experiment(cifar_spec());
  const std::size_t dim = exp.topology.model_factory().param_count();

  using compression::Codec;
  const std::vector<std::pair<std::string, compression::CompressorConfig>>
      levels{
          {"float32 (none)", {.top_k = 0, .codec = Codec::kFloat32}},
          {"fp16", {.top_k = 0, .codec = Codec::kFp16}},
          {"int8", {.top_k = 0, .codec = Codec::kInt8}},
          {"int8-SR", {.top_k = 0, .codec = Codec::kInt8Sr, .seed = 9}},
          {"int8 + top-25%", {.top_k = dim / 4, .codec = Codec::kInt8}},
          {"int8 + top-10%", {.top_k = dim / 10, .codec = Codec::kInt8}},
          {"int8-SR + top-10%",
           {.top_k = dim / 10, .codec = Codec::kInt8Sr, .seed = 9}},
          {"fp16 + top-10%", {.top_k = dim / 10, .codec = Codec::kFp16}},
      };

  std::vector<util::Series> series;
  std::vector<std::vector<std::string>> rows;
  for (const auto& [name, cfg] : levels) {
    const CompressionRun run =
        run_compressed_fl(exp, cfg, name, bench::bench_rounds());
    rows.push_back({name, util::fixed(run.final_acc, 4),
                    util::fixed(run.total_mb, 2)});
    series.push_back(run.curve);
    std::cout << name << " done\n";
  }

  std::cout << util::ascii_table(
      "Compression ablation", {"scheme", "final acc", "uploaded MB"}, rows);
  std::cout << util::ascii_plot(series,
                                "Ablation: accuracy vs uploaded megabytes",
                                "uploaded MB", "accuracy");
  write_series_csv("ablation_compression.csv", "uploaded_mb", "accuracy",
                   series);
  std::cout << "expected: fp16 matches float32 at 1/2 the traffic and int8 "
               "at 1/4; stochastic rounding tracks round-to-nearest (its "
               "win shows on biased accumulation, not single deltas); "
               "aggressive top-k trades a little accuracy for another "
               "large traffic cut ([26, 27] style loss-over-traffic).\n";
}

// Mixed precision (core::PrecisionConfig): the client GEMMs' storage width
// {fp32, bf16} crossed with the wire codec of every parameter exchange
// {fp32, fp16, int8-SR, int8} on the Group-FEL cell; accuracy against the
// exact communication volume the cost model charged.
Figure ablation_precision() {
  using compression::Codec;
  using nn::StoragePrecision;
  const std::vector<std::pair<std::string, core::PrecisionConfig>> cells{
      {"fp32/fp32", {StoragePrecision::kFp32, Codec::kFloat32}},
      {"bf16/fp32", {StoragePrecision::kBf16, Codec::kFloat32}},
      {"fp32/fp16", {StoragePrecision::kFp32, Codec::kFp16}},
      {"fp32/int8sr", {StoragePrecision::kFp32, Codec::kInt8Sr}},
      {"fp32/int8", {StoragePrecision::kFp32, Codec::kInt8}},
      {"bf16/fp16", {StoragePrecision::kBf16, Codec::kFp16}},
      {"bf16/int8sr", {StoragePrecision::kBf16, Codec::kInt8Sr}},
  };
  Figure f{.name = "ablation_precision", .seed_averaged = true};
  for (const auto& [label, precision] : cells)
    f.variants.push_back(groupfel_variant(
        label, cifar_spec(),
        [p = precision](core::GroupFelConfig& c) { c.precision = p; }));
  f.series = [](const Outcome& o) {
    util::Series s;
    s.name = o.variant.label;
    for (const auto& m : o.result.history) {
      s.x.push_back(m.cumulative_comm_bytes / 1e6);
      s.y.push_back(m.accuracy);
    }
    return s;
  };
  f.table = Table{"Precision ablation (compute/wire)",
                  {label_column("cell"), final_acc(), best_acc(),
                   {"comm MB", [](const Outcome& o) {
                      const auto& h = o.result.history;
                      const double bytes =
                          h.empty() ? 0.0 : h.back().cumulative_comm_bytes;
                      return util::fixed(bytes / 1e6, 2);
                    }}}};
  f.plot = Plot{"Ablation: precision, accuracy vs communicated MB",
                "comm MB", "accuracy", "comm_mb", "accuracy"};
  f.expected =
      "expected: bf16 compute tracks fp32 accuracy closely; the fp16 wire "
      "halves traffic (comm MB ratio fp32/fp16 : fp32/fp32 <= 0.51) at an "
      "accuracy delta >= -0.5 pp; int8-SR quarters it with a modest dip.";
  return f;
}

// §4.3, third observation: gamma - 1 = CoV^2 of the data-sample counts in a
// group, and smaller gamma should converge faster and smoother. Varies the
// client-size spread and reports the realized mean gamma of the groups a
// probe trainer forms (grouping is deterministic in the seed, so the probe
// forms exactly the trained cell's groups).
Figure ablation_gamma() {
  Figure f{.name = "ablation_gamma", .series = round_series};
  for (const double size_std : {2.0, 15.0, 30.0}) {
    core::ExperimentSpec spec = cifar_spec();
    spec.size_std = size_std;
    f.variants.push_back(groupfel_variant("size_std=" + util::num(size_std, 3),
                                          spec, [](core::GroupFelConfig&) {}));
  }
  f.probe = [](const Variant& v, const core::TrainResult&) {
    const core::Experiment exp = core::build_experiment(v.spec);
    const core::GroupFelTrainer probe(
        exp.topology, v.config, core::build_cost_model(v.spec.task, v.op));
    double gamma_sum = 0.0;
    for (const auto& g : probe.groups()) {
      std::vector<double> counts;
      for (auto cid : g.clients)
        counts.push_back(
            static_cast<double>(exp.topology.clients.data_count(cid)));
      const double cov_sizes = util::coefficient_of_variation(counts);
      gamma_sum += 1.0 + cov_sizes * cov_sizes;
    }
    return std::vector<double>{gamma_sum /
                               static_cast<double>(probe.groups().size())};
  };
  f.table = Table{"Gamma ablation (client-size spread)",
                  {label_column("config"),
                   {"mean gamma",
                    [](const Outcome& o) {
                      return util::fixed(o.probe[0], 3);
                    }},
                   best_acc(), worst_drop_column()}};
  f.plot = Plot{"Ablation: gamma (size imbalance)", "round", "accuracy",
                "round", "accuracy"};
  f.expected =
      "expected: larger size_std -> larger mean gamma -> rougher convergence "
      "(the paper's third key observation).";
  return f;
}

// §6.1: periodic regrouping rotates data from rarely-sampled high-CoV
// groups into the prioritized set (CoVG's random first client makes each
// regroup produce fresh groups).
Figure ablation_regroup() {
  Figure f{.name = "ablation_regroup", .series = round_series};
  for (const std::size_t interval : {0u, 5u, 10u})
    f.variants.push_back(groupfel_variant(
        interval == 0 ? "no regroup" : "every " + std::to_string(interval),
        cifar_spec(),
        [interval](core::GroupFelConfig& c) {
          c.regroup_interval = interval;
        }));
  f.table = Table{"Regrouping ablation",
                  {label_column("interval"), best_acc(), final_acc()}};
  f.plot = Plot{"Ablation: regroup interval", "round", "accuracy", "round",
                "accuracy"};
  return f;
}

// Secure-aggregation dropout resilience: each client that drops after
// masking forces a Shamir reconstruction plus PRG mask expansions, so the
// server's unmasking time grows with dropouts while the sum stays exact
// (checked on every timed call).
void ablation_secagg_dropout() {
  const std::size_t group = 12;
  const std::size_t dim = 256;
  std::vector<std::vector<std::string>> rows;
  for (const std::size_t dropouts : {0u, 2u, 4u, 6u}) {
    runtime::Rng rng(404);
    secagg::SecAggConfig cfg;
    cfg.threshold = group / 2;
    secagg::SecureAggregator agg(group, dim, cfg, rng);
    std::vector<std::vector<float>> inputs(group, std::vector<float>(dim));
    for (auto& v : inputs)
      for (auto& x : v) x = static_cast<float>(rng.normal());

    // Clients [0, dropouts) drop after masking; mask the survivors once and
    // time the SERVER side.
    std::vector<std::optional<std::vector<secagg::Fe>>> slots(group);
    double expected0 = 0.0;
    for (std::size_t i = dropouts; i < group; ++i) {
      slots[i] = agg.client_masked_input(i, inputs[i]);
      expected0 += static_cast<double>(inputs[i][0]);
    }
    const double secs = runtime::time_call([&] {
      const auto sum = agg.aggregate(slots);
      if (std::abs(static_cast<double>(sum[0]) - expected0) > 1e-2)
        throw std::runtime_error(
            "ablation_secagg_dropout: dropout recovery produced a wrong sum");
    });
    rows.push_back({"BM_SecAggWithDropouts/" + std::to_string(dropouts),
                    util::fixed(secs * 1e6, 2),
                    "dropouts=" + std::to_string(dropouts)});
  }
  for (const std::size_t size : {2u, 4u, 8u, 16u, 32u}) {
    runtime::Rng rng(505);
    secagg::SecureAggregator agg(size, dim, {}, rng);
    const std::vector<float> input(dim, 0.5f);
    std::size_t sink = 0;
    const double secs = runtime::time_call(
        [&] { sink += agg.client_masked_input(0, input).size(); });
    if (sink == 0) throw std::runtime_error("client masking produced nothing");
    rows.push_back({"BM_SecAggClientMasking/" + std::to_string(size),
                    util::fixed(secs * 1e6, 2),
                    "group=" + std::to_string(size)});
  }
  std::cout << util::ascii_table(
      "SecAgg dropout resilience (dim 256; dropouts: group of 12)",
      {"benchmark", "us/call", "counter"}, rows);
  std::cout << "expected: server aggregation time grows with dropouts "
               "(recovery work per dropped client); client masking grows "
               "linearly with group size (one pairwise mask per peer).\n";
}

/// Estimated wall-clock seconds for one global round of `v`: the network
/// model prices the S largest groups a probe trainer forms (the worst case
/// the scheduler waits for).
double estimate_round_seconds(const Variant& v) {
  const core::Experiment exp = core::build_experiment(v.spec);
  const core::GroupFelConfig& cfg = v.config;
  const cost::CostModel cost_model = core::build_cost_model(v.spec.task, v.op);
  const core::GroupFelTrainer probe(exp.topology, cfg, cost_model);
  const auto& groups = probe.groups();
  // SCAFFOLD ships model + control variate.
  const double comm = cfg.rule == core::LocalRule::kScaffold ? 2.0 : 1.0;
  const std::size_t model_params = exp.topology.model_factory().param_count();

  std::vector<net::GroupRoundTiming> timings;
  std::vector<std::vector<double>> computes(groups.size());
  for (std::size_t g = 0; g < std::min(cfg.sampled_groups, groups.size());
       ++g) {
    for (auto cid : groups[g].clients)
      computes[g].push_back(
          static_cast<double>(cfg.local_epochs) *
          cost_model.training_cost(exp.topology.clients.data_count(cid)));
    net::GroupRoundTiming t;
    t.member_compute_s = computes[g];
    t.group_op_s = cost_model.group_op_cost(groups[g].clients.size());
    t.k_rounds = cfg.group_rounds;
    t.model_bytes = net::model_bytes(model_params, comm);
    timings.push_back(t);
  }
  return net::NetworkModel().global_round_time(timings);
}

// §2.3: wall-clock time instead of abstract cost. Round counts mislead —
// SCAFFOLD ships twice the bytes per round. Prices each method's rounds
// through the client-edge-cloud network model.
Figure ablation_wallclock() {
  Figure f{.name = "ablation_wallclock",
           .variants = method_variants(cifar_spec(), bench::base_config(),
                                       {core::Method::kFedAvg,
                                        core::Method::kScaffold,
                                        core::Method::kGroupFel})};
  f.probe = [](const Variant& v, const core::TrainResult&) {
    return std::vector<double>{estimate_round_seconds(v)};
  };
  f.series = [](const Outcome& o) {
    util::Series s;
    s.name = o.variant.label;
    for (const auto& m : o.result.history) {
      s.x.push_back(static_cast<double>(m.round + 1) * o.probe[0]);
      s.y.push_back(m.accuracy);
    }
    return s;
  };
  f.table = Table{"Wall-clock ablation",
                  {label_column("method"),
                   {"est. s/round",
                    [](const Outcome& o) {
                      return util::fixed(o.probe[0], 1);
                    }},
                   best_acc()}};
  f.plot = Plot{"Ablation: accuracy vs estimated wall-clock", "wall-clock (s)",
                "accuracy", "wallclock_s", "accuracy"};
  f.expected =
      "observed: with RPi-scale compute, the slowest member's training "
      "dominates the round; SCAFFOLD's doubled payload adds well under 1% "
      "per round at 10 Mbps. Communication only becomes the bottleneck on "
      "much slower links — rerun with a tighter NetworkSpec to see the "
      "crossover (§2.3).";
  return f;
}

// ------------------------------------------------------------- the table

Figure body(std::string name, std::function<void()> run) {
  return Figure{.name = std::move(name), .run = std::move(run)};
}

/// Every row, in the README's order.
std::vector<Figure> figure_table(const std::string& model) {
  std::vector<Figure> table;
  table.push_back(body("fig2a_group_overheads", fig2a));
  table.push_back(fig2b());
  table.push_back(body("fig5_grouping_time", fig5));
  table.push_back(body("fig6_cov_vs_overhead", fig6));
  table.push_back(fig7());
  table.push_back(body("fig8_overhead_measurement", fig8));
  table.push_back(fig9(model));
  table.push_back(fig10(model));
  table.push_back(fig11());
  table.push_back(fig12());
  table.push_back(table1());
  table.push_back(theory_convergence());
  table.push_back(ablation_aggregation());
  table.push_back(ablation_client_churn());
  table.push_back(body("ablation_compression", ablation_compression));
  table.push_back(ablation_precision());
  table.push_back(ablation_gamma());
  table.push_back(ablation_regroup());
  table.push_back(body("ablation_secagg_dropout", ablation_secagg_dropout));
  table.push_back(ablation_wallclock());
  return table;
}

/// The rows `list` (comma-separated names, or "all") selects, in table order.
std::vector<Figure> select_figures(std::vector<Figure> table,
                                   const std::string& list) {
  std::vector<bool> chosen(table.size(), false);
  std::stringstream names(list);
  std::string name;
  while (std::getline(names, name, ',')) {
    if (name == "all") {
      chosen.assign(table.size(), true);
      continue;
    }
    const auto it =
        std::find_if(table.begin(), table.end(),
                     [&](const Figure& f) { return f.name == name; });
    if (it == table.end()) {
      std::string valid = "all";
      for (const auto& f : table) valid += ", " + f.name;
      throw std::invalid_argument("--fig: unknown figure '" + name +
                                  "' (valid: " + valid + ")");
    }
    chosen[static_cast<std::size_t>(it - table.begin())] = true;
  }
  std::vector<Figure> out;
  for (std::size_t i = 0; i < table.size(); ++i)
    if (chosen[i]) out.push_back(std::move(table[i]));
  if (out.empty()) throw std::invalid_argument("--fig: no figure named");
  return out;
}

void report(const Figure& f, const std::vector<Outcome>& outcomes) {
  if (f.line)
    for (const auto& o : outcomes) std::cout << f.line(o) << "\n";
  if (f.table) {
    std::vector<std::string> header;
    header.reserve(f.table->columns.size());
    for (const auto& c : f.table->columns) header.push_back(c.header);
    std::vector<std::vector<std::string>> rows;
    for (const auto& o : outcomes) {
      rows.emplace_back();
      for (const auto& c : f.table->columns) rows.back().push_back(c.cell(o));
    }
    std::cout << util::ascii_table(f.table->title, header, rows);
  }
  if (f.record) {
    util::CsvWriter csv(bench::results_dir() + "/" + f.name + ".csv",
                        f.record->columns);
    for (const auto& o : outcomes) csv.row(f.record->values(o));
    csv.flush();
  }
  if (f.plot) {
    std::vector<util::Series> series;
    series.reserve(outcomes.size());
    for (const auto& o : outcomes) series.push_back(f.series(o));
    std::cout << util::ascii_plot(series, f.plot->title, f.plot->x_label,
                                  f.plot->y_label);
    write_series_csv(f.csv.empty() ? f.name + ".csv" : f.csv, f.plot->csv_x,
                     f.plot->csv_y, series);
  }
  if (!f.expected.empty()) std::cout << f.expected << "\n";
}

/// Trains every training row's cells as one sweep, then reports (or runs)
/// each row in order.
void run_figures(const std::vector<Figure>& figures) {
  std::vector<core::SweepCell> cells;
  std::map<std::vector<std::byte>, std::size_t> index;  // cell sans label
  // cells_of[f][v]: the sweep cells (one per seed) of variant v of row f.
  std::vector<std::vector<std::vector<std::size_t>>> cells_of(figures.size());
  for (std::size_t fi = 0; fi < figures.size(); ++fi) {
    const Figure& f = figures[fi];
    for (const Variant& v : f.variants) {
      const core::SweepCell cell{f.name + "/" + v.label, v.spec, v.config,
                                 v.spec.task, v.op, v.budget};
      auto& ids = cells_of[fi].emplace_back();
      for (auto& c : f.seed_averaged ? bench::seed_cells(cell)
                                     : std::vector<core::SweepCell>{cell}) {
        core::SweepCell key = c;
        key.label.clear();
        const auto [it, fresh] =
            index.try_emplace(core::encode_cell(key), cells.size());
        if (fresh) cells.push_back(std::move(c));
        ids.push_back(it->second);
      }
    }
  }
  std::vector<core::SweepCellResult> results;
  if (!cells.empty()) {
    core::SweepRunResult sweep = core::run_sweep(cells, bench::sweep_options());
    // stderr, so stdout stays the figures alone.
    std::cerr << "sweep: " << cells.size() << " cells ("
              << sweep.cells_from_checkpoint << " from checkpoint), "
              << sweep.distinct_experiments << " federations, "
              << util::fixed(sweep.total_seconds, 2) << " s\n";
    results = std::move(sweep.cells);
  }

  for (std::size_t fi = 0; fi < figures.size(); ++fi) {
    const Figure& f = figures[fi];
    if (figures.size() > 1) std::cout << "\n== " << f.name << " ==\n";
    if (f.run) {
      f.run();
      continue;
    }
    std::vector<Outcome> outcomes;
    for (std::size_t v = 0; v < f.variants.size(); ++v) {
      std::vector<core::TrainResult> per_seed;
      for (const std::size_t id : cells_of[fi][v])
        per_seed.push_back(results[id].result);
      outcomes.push_back({f.variants[v],
                          f.seed_averaged ? bench::average_results(per_seed)
                                          : std::move(per_seed.front()),
                          {}});
      if (f.probe)
        outcomes.back().probe = f.probe(f.variants[v], outcomes.back().result);
    }
    report(f, outcomes);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Flags flags = bench::init(argc, argv);
    run_figures(select_figures(figure_table(flags.get_string("model", "mlp")),
                               flags.get_string("fig", "all")));
  } catch (const std::invalid_argument& e) {
    std::cerr << "figures: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
