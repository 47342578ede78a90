// Traced run: replays one experiment cell layer by layer.
//
// The replay re-executes build_experiment's descriptor path, the trainer
// constructor's grouping and train()'s round loop through each layer's
// public functions, with a span around every call (trace.hpp). To do so it
// copies the trainer's RNG fork tags — mix_tag, 0x5a3b (sampling), 0xd209
// (dropout), 0x317e (wire codec), 0x5ec466 (secagg), 0xf1a3e (FLAME),
// "grup" (grouping), "init" (model) — and build_experiment's 0xd15c
// (partition) and 0x7e57 (test set). Copied tags drift silently when the
// library changes, so every traced repeat is a hard gate: the set-up
// products must equal the real population, test set, initial model, groups
// and Eq. 34 probabilities, and the trained parameters, accuracy, Eq. 5
// cost and communication volume must equal an untraced train() of the same
// cell bit for bit. The replay is temporary: once the library emits its own
// round spans (ROADMAP.md, library-level round trace), this file is
// replaced by reading them.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "compression/compressor.hpp"
#include "core/evaluator.hpp"
#include "data/client_descriptor.hpp"
#include "data/lazy_shard.hpp"
#include "net/network_model.hpp"
#include "runtime/replica_cache.hpp"
#include "runtime/timer.hpp"
#include "secagg/secure_aggregator.hpp"
#include "trace.hpp"

namespace groupfel::benchmark {

namespace {

/// trainer.cpp's RNG tag mixer (see the file comment).
std::uint64_t mix_tag(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0) {
  return (a * 1000003ull + b) * 1000003ull + c;
}

/// The replay covers the trainer paths the workloads use; anything else
/// must fail loudly instead of being silently mis-replayed.
void check_replayable(const core::SweepCell& cell) {
  const core::GroupFelConfig& c = cell.config;
  if (c.rule != core::LocalRule::kSgd || c.fedclar.enabled ||
      c.regroup_interval != 0 || c.backdoor.attack ||
      !c.reuse_model_replicas || !c.parallel_aggregation ||
      !c.local.reuse_batch_buffers || cell.cost_budget > 0.0 ||
      cell.spec.client_state == core::ClientStateMode::kPoolResident)
    throw std::invalid_argument("traced replay: cell " + cell.label +
                                " uses a trainer path the replay does not "
                                "re-implement");
}

bool same_population(const data::ClientPopulation& a,
                     const data::ClientPopulation& b) {
  if (a.num_clients() != b.num_clients() || a.num_classes() != b.num_classes())
    return false;
  for (std::size_t c = 0; c < a.num_clients(); ++c) {
    const auto ra = a.label_counts(c), rb = b.label_counts(c);
    if (a.data_count(c) != b.data_count(c) || a.seed(c) != b.seed(c) ||
        !std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
      return false;
  }
  return true;
}

bool same_dataset(const data::DataSet& a, const data::DataSet& b) {
  const auto fa = a.features().data(), fb = b.features().data();
  return a.num_classes() == b.num_classes() &&
         std::ranges::equal(a.labels(), b.labels()) && fa.size() == fb.size() &&
         std::memcmp(fa.data(), fb.data(), fa.size() * sizeof(float)) == 0;
}

bool same_groups(const std::vector<core::FormedGroup>& a,
                 const std::vector<core::FormedGroup>& b) {
  return std::ranges::equal(a, b, [](const auto& x, const auto& y) {
    return x.edge_id == y.edge_id && x.clients == y.clients &&
           x.data_count == y.data_count && x.cov == y.cov;
  });
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// ---- Set-up replay --------------------------------------------------------

/// Re-runs build_experiment's descriptor path and the trainer constructor's
/// grouping stage by stage, checking each product against the real one.
/// Leaves the replayed groups and Eq. 34 probabilities in `cloud`.
void replay_setup(const core::SweepCell& cell, const core::Experiment& exp,
                  const core::GroupFelTrainer& trainer,
                  const std::vector<float>& init, core::Cloud& cloud,
                  runtime::ThreadPool* pool, Tracer& tr, Outcome& out) {
  const core::ExperimentSpec& spec = cell.spec;
  const runtime::Rng root(spec.seed);
  data::PartitionSpec part;
  part.num_clients = spec.num_clients;
  part.alpha = spec.alpha;
  part.size_mean = spec.size_mean;
  part.size_std = spec.size_std;
  part.size_min = spec.size_min;
  part.size_max = spec.size_max;

  data::ClientPopulation pop;
  {
    ScopedSpan s(tr, "data.partition", 0, -1);
    runtime::Rng part_rng = root.fork(0xd15cull);
    pop = data::descriptor_partition(part, exp.data_spec.num_classes, part_rng,
                                     pool);
  }
  const data::ClientPopulation* real = exp.topology.clients.population();
  if (real == nullptr || !same_population(pop, *real))
    out.fail("set-up replay: descriptor_partition != clients.population()");

  data::ClientDataStore store;
  std::vector<std::vector<std::size_t>> edges;
  {
    ScopedSpan s(tr, "data.shards", 0, -1);
    if (spec.client_state == core::ClientStateMode::kLazy) {
      store = data::ClientDataStore::lazy(
          std::make_shared<const data::LazyShardSource>(exp.data_spec,
                                                        std::move(pop)));
    } else {
      const data::LazyShardSource source(exp.data_spec, std::move(pop));
      data::MaterializedPopulation mat = data::materialize_population(source);
      store = data::ClientDataStore::resident(std::move(mat.shards),
                                              source.population());
    }
    edges = data::assign_to_edges(spec.num_clients, spec.num_edges);
  }

  {
    std::optional<data::DataSet> test;
    {
      ScopedSpan s(tr, "data.test_set", 0, -1);
      runtime::Rng test_rng = root.fork(0x7e57ull);
      test = data::make_synthetic(exp.data_spec, spec.test_size, test_rng);
    }
    if (!same_dataset(*test, *exp.topology.test_set))
      out.fail("set-up replay: test set != build_experiment's");
  }

  data::LabelMatrix matrix;
  {
    ScopedSpan s(tr, "data.label_matrix", 0, -1);
    matrix = store.label_matrix(pool);
  }

  {
    // The prototype model and the replica cache seeded from it.
    std::optional<nn::Model> proto;
    {
      ScopedSpan s(tr, "nn.model_init", 0, -1);
      proto = exp.topology.model_factory();
      runtime::Rng init_rng =
          runtime::Rng(cell.config.seed).fork(0x696e6974ull /*"init"*/);
      proto->init(init_rng);
      proto->set_compute_precision(cell.config.precision.compute);
      runtime::ModelReplicaCache<nn::Model> replicas(*proto);
    }
    if (proto->flat_parameters() != init)
      out.fail("set-up replay: initial model != the zero-round trainer's");
  }

  std::vector<core::FormedGroup> groups;
  {
    // Edges group concurrently from per-edge forks of the "grup" stream,
    // concatenated in edge order (GroupFelTrainer::form_groups).
    ScopedSpan s(tr, "grouping.form", 0, -1);
    std::vector<core::EdgeServer> servers;
    for (std::size_t e = 0; e < edges.size(); ++e)
      servers.emplace_back(e, edges[e]);
    const runtime::Rng group_rng =
        runtime::Rng(cell.config.seed).fork(0x67727570ull);
    std::vector<std::vector<core::FormedGroup>> per_edge(servers.size());
    const auto run_edge = [&](std::size_t e) {
      runtime::Rng edge_rng = group_rng.fork(servers[e].id());
      per_edge[e] =
          servers[e].form_groups(matrix, cell.config.grouping,
                                 cell.config.grouping_params, edge_rng, pool);
    };
    if (pool->size() > 1 && servers.size() > 1) {
      pool->parallel_for(servers.size(), run_edge);
    } else {
      for (std::size_t e = 0; e < servers.size(); ++e) run_edge(e);
    }
    for (auto& edge_groups : per_edge)
      for (auto& g : edge_groups) groups.push_back(std::move(g));
  }
  if (!same_groups(groups, trainer.groups()))
    out.fail("set-up replay: EdgeServer::form_groups != trainer.groups()");

  {
    ScopedSpan s(tr, "sampling.probabilities", 0, -1);
    cloud.set_groups(std::move(groups), pool);
  }
  if (cloud.probabilities() != trainer.sampling_probabilities())
    out.fail("set-up replay: Cloud::set_groups probabilities != "
             "trainer.sampling_probabilities()");
}

// ---- Training replay ------------------------------------------------------

struct SgdScratch {
  std::vector<std::size_t> order;
  data::DataSet::Batch batch;
  nn::LossResult loss;
};

/// algorithms::run_local_sgd (reuse path) with every call timed into the
/// client span's counters. `n` is the client's sample count.
void local_sgd(nn::Model& model, data::ClientDataRef data, std::size_t n,
               const algorithms::LocalTrainConfig& cfg, runtime::Rng& rng,
               const Tracer& tr, ScopedSpan& span) {
  if (n == 0) return;
  nn::SgdOptimizer opt({.lr = cfg.lr,
                        .momentum = cfg.momentum,
                        .weight_decay = cfg.weight_decay});
  const nn::SgdOptimizer::GradAdjust no_adjust;
  thread_local SgdScratch scratch;
  std::vector<std::size_t>& order = scratch.order;
  order.resize(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::int64_t t = tr.now_ns();
  model.zero_grad();
  span.counter(kOptimizerNs) += tr.now_ns() - t;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < order.size();
         start += cfg.batch_size) {
      const std::size_t end = std::min(order.size(), start + cfg.batch_size);
      const std::span<const std::size_t> idx(order.data() + start,
                                             end - start);
      const std::int64_t t0 = tr.now_ns();
      data.batch_into(idx, scratch.batch);
      const std::int64_t t1 = tr.now_ns();
      const nn::Tensor& logits =
          model.forward(scratch.batch.features, /*train=*/true);
      const std::int64_t t2 = tr.now_ns();
      nn::softmax_cross_entropy_into(logits, scratch.batch.labels,
                                     scratch.loss);
      const std::int64_t t3 = tr.now_ns();
      model.backward(scratch.loss.grad);
      const std::int64_t t4 = tr.now_ns();
      opt.step(model, no_adjust, /*zero_grads=*/true);
      const std::int64_t t5 = tr.now_ns();
      span.counter(kBatchNs) += t1 - t0;
      span.counter(kForwardNs) += t2 - t1;
      span.counter(kLossNs) += t3 - t2;
      span.counter(kBackwardNs) += t4 - t3;
      span.counter(kOptimizerNs) += t5 - t4;
      span.counter(kSamples) += static_cast<std::int64_t>(end - start);
      ++span.counter(kSteps);
    }
  }
}

/// Event counts of one training replay.
struct Tallies {
  double dropped = 0.0;             ///< members dropped before training
  double quorum_skips = 0.0;        ///< group rounds below quorum
  double flame_rejections = 0.0;    ///< updates FLAME rejected
  double updates_trained = 0.0;     ///< client updates trained
  double updates_aggregated = 0.0;  ///< ... that reached a finished aggregation
  double mask_elements = 0.0;       ///< secagg mask elements expanded

  Tallies& operator+=(const Tallies& o) {
    dropped += o.dropped;
    quorum_skips += o.quorum_skips;
    flame_rejections += o.flame_rejections;
    updates_trained += o.updates_trained;
    updates_aggregated += o.updates_aggregated;
    mask_elements += o.mask_elements;
    return *this;
  }
};

class TrainingReplay {
 public:
  TrainingReplay(const core::SweepCell& cell,
                 const core::FederationTopology& topo, const core::Cloud& cloud,
                 const std::vector<float>& init, runtime::ThreadPool* pool,
                 Tracer& tr)
      : cell_(cell),
        cfg_(cell.config),
        topo_(topo),
        cloud_(cloud),
        pool_(pool),
        tr_(tr),
        run_rng_(cfg_.seed) {
    nn::Model proto = topo_.model_factory();
    proto.set_flat_parameters(init);
    proto.set_compute_precision(cfg_.precision.compute);
    replicas_.set_prototype(proto);
    local_cfg_ = cfg_.local;
    local_cfg_.epochs = cfg_.local_epochs;
  }

  struct Result {
    std::vector<float> params;
    double accuracy = 0.0;
    double cost = 0.0;
    double comm_bytes = 0.0;
  };

  /// train()'s round loop (no FedCLAR, no regrouping).
  Result run(std::vector<float> params) {
    Result res;
    cost::CostAccumulator eq5(core::build_cost_model(cell_.task, cell_.op));
    // SgdRule's communication factor is 1 (check_replayable).
    const double model_b = net::model_bytes(
        params.size(), 1.0, core::wire_bytes_per_param(cfg_.precision.wire));
    for (std::size_t t = 0; t < cfg_.global_rounds; ++t) {
      const auto round = static_cast<std::int64_t>(t);
      ScopedSpan round_span(tr_, "core.round", 0, round);
      std::vector<std::size_t> sampled;
      {
        ScopedSpan s(tr_, "sampling.sample", round_span.id(), round);
        runtime::Rng sample_rng = run_rng_.fork(mix_tag(0x5a3bull, t));
        sampled = cloud_.sample(cfg_.sampled_groups, sample_rng);
      }
      std::vector<std::vector<float>> group_models(sampled.size());
      {
        ScopedSpan phase(tr_, "core.group_phase", round_span.id(), round);
        pool_->parallel_for(sampled.size(), [&](std::size_t i) {
          group_models[i] = run_group(cloud_.groups()[sampled[i]], params, t,
                                      sampled[i], phase.id());
        });
      }
      {
        ScopedSpan s(tr_, "core.cloud_aggregate", round_span.id(), round);
        const std::vector<std::span<const float>> views(group_models.begin(),
                                                        group_models.end());
        cloud_.aggregate_into(params, sampled, views, pool_);
      }
      for (const std::size_t gi : sampled) {
        const core::FormedGroup& group = cloud_.groups()[gi];
        std::vector<std::size_t> counts;
        for (const std::size_t cid : group.clients)
          counts.push_back(topo_.clients.data_count(cid));
        eq5.charge_group(counts, cfg_.group_rounds, cfg_.local_epochs);
        res.comm_bytes += static_cast<double>(cfg_.group_rounds) *
                              static_cast<double>(group.clients.size()) *
                              2.0 * model_b +
                          2.0 * model_b;
      }
      if (t % cfg_.eval_every == 0 || t + 1 == cfg_.global_rounds) {
        ScopedSpan s(tr_, "core.eval", round_span.id(), round);
        nn::Model& model = replicas_.local();
        model.set_flat_parameters(params);
        res.accuracy =
            core::evaluate(model, *topo_.test_set, 256, pool_, &replicas_)
                .accuracy;
      }
    }
    res.params = std::move(params);
    res.cost = eq5.total();
    return res;
  }

  [[nodiscard]] Tallies tallies() const {
    Tallies t;
    t.dropped = static_cast<double>(dropped_);
    t.quorum_skips = static_cast<double>(quorum_skips_);
    t.flame_rejections = static_cast<double>(flame_rejections_);
    t.updates_trained = static_cast<double>(updates_trained_);
    t.updates_aggregated = static_cast<double>(updates_aggregated_);
    t.mask_elements = static_cast<double>(mask_elements_);
    return t;
  }

 private:
  /// GroupFelTrainer::run_group.
  std::vector<float> run_group(const core::FormedGroup& group,
                               const std::vector<float>& start,
                               std::size_t round, std::size_t group_tag,
                               std::uint64_t parent) {
    const auto round_id = static_cast<std::int64_t>(round);
    ScopedSpan group_span(tr_, "core.group", parent, round_id);
    std::vector<float> params = start;
    if (group.data_count == 0) return params;
    const std::size_t members = group.clients.size();
    const std::size_t dim = params.size();
    std::vector<std::vector<float>> locals(members, std::vector<float>(dim));
    std::vector<char> dropped(members, 0);
    std::vector<std::size_t> survivors;

    for (std::size_t k = 0; k < cfg_.group_rounds; ++k) {
      const std::uint64_t tag = group_tag * 131 + k;
      std::fill(dropped.begin(), dropped.end(), 0);
      survivors.clear();
      if (cfg_.client_dropout_rate > 0.0) {
        runtime::Rng drop_rng = run_rng_.fork(mix_tag(0xd209ull, round, tag));
        for (std::size_t m = 0; m < members; ++m)
          if (drop_rng.next_double() < cfg_.client_dropout_rate)
            dropped[m] = 1;
      }
      for (std::size_t m = 0; m < members; ++m)
        if (dropped[m] == 0) survivors.push_back(m);
      dropped_ += members - survivors.size();
      if (survivors.size() < (2 * members + 2) / 3) {
        ++quorum_skips_;
        continue;
      }

      pool_->parallel_for(members, [&](std::size_t m) {
        if (dropped[m] != 0) return;
        const std::size_t cid = group.clients[m];
        ScopedSpan span(tr_, "algorithms.client_update", group_span.id(),
                        round_id);
        runtime::Rng client_rng = run_rng_.fork(mix_tag(round, tag, cid));
        std::int64_t t0 = tr_.now_ns();
        nn::Model& model = replicas_.local();
        model.set_flat_parameters(params);
        span.counter(kExchangeNs) += tr_.now_ns() - t0;
        local_sgd(model, topo_.clients.client(cid),
                  topo_.clients.data_count(cid), local_cfg_, client_rng, tr_,
                  span);
        t0 = tr_.now_ns();
        model.flat_parameters_into(locals[m]);
        span.counter(kExchangeNs) += tr_.now_ns() - t0;
      });
      updates_trained_ += survivors.size();

      if (cfg_.precision.wire != compression::Codec::kFloat32) {
        ScopedSpan s(tr_, "compression.wire", group_span.id(), round_id);
        for (const std::size_t m : survivors) {
          const std::uint64_t wire_seed =
              mix_tag(0x317eull, round, tag) * 1000003ull + group.clients[m];
          for (std::size_t i = 0; i < dim; ++i) locals[m][i] -= params[i];
          compression::wire_round_trip(locals[m], cfg_.precision.wire,
                                       wire_seed);
          for (std::size_t i = 0; i < dim; ++i) locals[m][i] += params[i];
        }
      }

      ScopedSpan agg(tr_, "core.group_aggregate", group_span.id(), round_id);
      if (cfg_.backdoor.defense) {
        ScopedSpan s(tr_, "backdoor.flame", agg.id(), round_id);
        std::vector<std::vector<float>> updates;
        for (const std::size_t m : survivors) {
          for (std::size_t i = 0; i < dim; ++i) locals[m][i] -= params[i];
          updates.push_back(std::move(locals[m]));
        }
        runtime::Rng flame_rng = run_rng_.fork(mix_tag(0xf1a3eull, round, tag));
        const backdoor::FlameResult filtered =
            backdoor::flame_filter(updates, cfg_.backdoor.flame, flame_rng);
        flame_rejections_ += filtered.num_rejected;
        for (std::size_t i = 0; i < dim; ++i)
          params[i] += filtered.aggregated[i];
        for (std::size_t s2 = 0; s2 < survivors.size(); ++s2)
          locals[survivors[s2]] = std::move(updates[s2]);
        updates_aggregated_ += survivors.size();
        continue;
      }

      double surviving_data = 0.0;
      for (const std::size_t m : survivors)
        surviving_data +=
            static_cast<double>(topo_.clients.data_count(group.clients[m]));
      if (surviving_data <= 0.0) continue;
      const auto weight = [&](std::size_t m) {
        return static_cast<double>(topo_.clients.data_count(group.clients[m])) /
               surviving_data;
      };

      if (cfg_.use_real_secagg) {
        runtime::Rng secagg_rng =
            run_rng_.fork(mix_tag(0x5ec466ull, round, tag));
        secagg::SecAggConfig sa_cfg;
        sa_cfg.round_tag = mix_tag(round, k) & 0xFFFFFFFFull;
        sa_cfg.frac_bits = core::secagg_frac_bits(cfg_.precision.wire);
        std::optional<secagg::SecureAggregator> sa;
        {
          ScopedSpan s(tr_, "secagg.keysetup", agg.id(), round_id);
          sa.emplace(members, dim, sa_cfg, secagg_rng);
        }
        std::vector<std::optional<std::vector<secagg::Fe>>> slots(members);
        {
          ScopedSpan s(tr_, "secagg.mask", agg.id(), round_id);
          for (const std::size_t m : survivors) {
            const auto w = static_cast<float>(weight(m));
            for (auto& v : locals[m]) v *= w;
            slots[m] = sa->client_masked_input(m, locals[m]);
          }
        }
        mask_elements_ += survivors.size() * members * dim;
        ScopedSpan s(tr_, "secagg.unmask", agg.id(), round_id);
        try {
          params = sa->aggregate(slots);
          updates_aggregated_ += survivors.size();
        } catch (const std::runtime_error&) {
          // Below threshold: the group model carries over, as in train().
        }
      } else {
        std::vector<std::span<const float>> views;
        std::vector<double> weights;
        for (const std::size_t m : survivors) {
          views.emplace_back(locals[m]);
          weights.push_back(weight(m));
        }
        nn::weighted_average_into(params, views, weights, pool_);
        updates_aggregated_ += survivors.size();
      }
    }
    return params;
  }

  const core::SweepCell& cell_;
  const core::GroupFelConfig& cfg_;
  const core::FederationTopology& topo_;
  const core::Cloud& cloud_;
  runtime::ThreadPool* pool_;
  Tracer& tr_;
  runtime::Rng run_rng_;
  runtime::ModelReplicaCache<nn::Model> replicas_;
  algorithms::LocalTrainConfig local_cfg_;
  // Groups run concurrently, so the tallies are atomic.
  std::atomic<std::size_t> dropped_{0};
  std::atomic<std::size_t> quorum_skips_{0};
  std::atomic<std::size_t> flame_rejections_{0};
  std::atomic<std::size_t> updates_trained_{0};
  std::atomic<std::size_t> updates_aggregated_{0};
  std::atomic<std::uint64_t> mask_elements_{0};
};

// ---- One traced repeat ------------------------------------------------------

struct TracedRepeat {
  std::vector<Span> spans;
  Tallies tallies;
  double cost = 0.0, comm_bytes = 0.0, flops_per_sample = 0.0;
  std::size_t groups = 0;
  double avg_size = 0.0, avg_cov = 0.0, resident_mb = 0.0;
};

/// Training FLOPs per sample: 2 x weights x output positions per parametric
/// layer for the forward pass (probed on a one-sample batch), times 3 for
/// forward + backward.
double train_flops_per_sample(const nn::Model& model,
                              std::span<const std::size_t> sample_shape) {
  std::vector<std::size_t> shape{1};
  shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
  nn::Tensor x(shape);
  double flops = 0.0;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    const std::unique_ptr<nn::Layer> layer = model.layer(i).clone();
    nn::Tensor y = layer->forward(x, /*train=*/false);
    if (layer->param_count() > 0) {
      const double channels = static_cast<double>(y.dim(1));
      const double positions = static_cast<double>(y.size()) / channels;
      flops += 2.0 * (static_cast<double>(layer->param_count()) - channels) *
               positions;
    }
    x = std::move(y);
  }
  return 3.0 * flops;
}

/// Public set-up (build_experiment + trainer constructor) followed by the
/// staged set-up replay and, with `train`, the training replay checked
/// against `reference` (an untraced train() of the same cell).
TracedRepeat traced_repeat(const core::SweepCell& cell,
                           const core::TrainResult* reference,
                           runtime::ThreadPool* pool, Tracer& tr,
                           Outcome& out) {
  TracedRepeat rep;
  std::optional<core::Experiment> exp;
  {
    ScopedSpan s(tr, "core.build_experiment", 0, -1);
    exp = core::build_experiment(cell.spec, pool);
  }
  // A zero-round trainer runs the same constructor (same grouping) and its
  // final_params are the initial global model.
  core::GroupFelConfig init_cfg = cell.config;
  init_cfg.global_rounds = 0;
  std::optional<core::GroupFelTrainer> trainer;
  {
    ScopedSpan s(tr, "core.trainer_ctor", 0, -1);
    trainer.emplace(exp->topology, init_cfg,
                    core::build_cost_model(cell.task, cell.op), pool);
  }
  const std::vector<float> init = trainer->train().final_params;
  core::Cloud cloud(cell.config.sampling, cell.config.aggregation);
  replay_setup(cell, *exp, *trainer, init, cloud, pool, tr, out);

  rep.groups = cloud.groups().size();
  for (const auto& g : cloud.groups()) {
    rep.avg_size += static_cast<double>(g.clients.size());
    rep.avg_cov += g.cov;
  }
  rep.avg_size /= static_cast<double>(rep.groups);
  rep.avg_cov /= static_cast<double>(rep.groups);
  rep.resident_mb =
      static_cast<double>(exp->topology.clients.resident_bytes()) / 1048576.0;

  if (reference != nullptr) {
    TrainingReplay replay(cell, exp->topology, cloud, init, pool, tr);
    const TrainingReplay::Result r = replay.run(init);
    if (!same_bits(r.params, reference->final_params))
      out.fail("traced replay: final params " + fnv1a_hex(r.params) +
               " != train() " + fnv1a_hex(reference->final_params));
    if (r.accuracy != reference->final_accuracy)
      out.fail("traced replay: accuracy differs from train()");
    if (r.cost != reference->total_cost)
      out.fail("traced replay: Eq. 5 cost differs from train()");
    if (reference->history.empty() ||
        r.comm_bytes != reference->history.back().cumulative_comm_bytes)
      out.fail("traced replay: communication volume differs from train()");
    rep.tallies = replay.tallies();
    rep.cost = r.cost;
    rep.comm_bytes = r.comm_bytes;
    rep.flops_per_sample =
        train_flops_per_sample(exp->topology.model_factory(),
                               exp->data_spec.sample_shape);
  }
  note_threads();
  rep.spans = tr.spans();
  return rep;
}

// ---- Metrics from spans -----------------------------------------------------

struct Pooled {
  std::map<std::string, std::vector<double>> setup;  ///< stage -> samples
  std::vector<double> round_s, sample_s, phase_s, cloud_s, eval_s;
  double covered_s = 0.0, rounds_total_s = 0.0, phase_total_s = 0.0;
  std::map<std::string, double> busy;  ///< group-phase span name -> seconds
  std::array<double, kNumCounters> counters{};
  std::vector<double> traced_train_s;
  Tallies tallies;
  double cost = 0.0, comm_bytes = 0.0, train_flop = 0.0;
  std::size_t groups = 0;
  double avg_size = 0.0, avg_cov = 0.0, resident_mb = 0.0;
};

double safe_ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// The replayed set-up stages; their sum over the public build_experiment +
/// constructor time of the same repeat is core.setup_coverage.
constexpr const char* kSetupStages[] = {
    "data.partition",    "data.shards",    "data.test_set",
    "data.label_matrix", "nn.model_init",  "grouping.form",
    "sampling.probabilities"};

void add_setup(Pooled& p, const TracedRepeat& rep) {
  for (const Span& s : rep.spans)
    if (s.round < 0) p.setup[s.name].push_back(s.seconds());
  double stages = 0.0;
  for (const char* stage : kSetupStages) stages += p.setup[stage].back();
  const double public_s = p.setup["core.build_experiment"].back() +
                          p.setup["core.trainer_ctor"].back();
  p.setup["public"].push_back(public_s);
  // Paired per repeat, so host drift between repeats cancels.
  p.setup["coverage"].push_back(safe_ratio(stages, public_s));
  p.groups = rep.groups;
  p.avg_size = rep.avg_size;
  p.avg_cov = rep.avg_cov;
  p.resident_mb = rep.resident_mb;
}

void add_training(Pooled& p, const TracedRepeat& rep) {
  std::int64_t first = -1, last = -1;
  double samples = 0.0;
  for (const Span& s : rep.spans) {
    samples += static_cast<double>(s.counters[kSamples]);
    if (s.round < 0) continue;
    const std::string name = s.name;
    if (name == "core.round") {
      p.round_s.push_back(s.seconds());
      p.rounds_total_s += s.seconds();
      if (first < 0 || s.start_ns < first) first = s.start_ns;
      last = std::max(last, s.end_ns);
    } else if (name == "sampling.sample" || name == "core.group_phase" ||
               name == "core.cloud_aggregate" || name == "core.eval") {
      p.covered_s += s.seconds();
      if (name == "sampling.sample") p.sample_s.push_back(s.seconds());
      if (name == "core.group_phase") {
        p.phase_s.push_back(s.seconds());
        p.phase_total_s += s.seconds();
      }
      if (name == "core.cloud_aggregate") p.cloud_s.push_back(s.seconds());
      if (name == "core.eval") p.eval_s.push_back(s.seconds());
    } else if (name != "core.group") {
      p.busy[name] += s.seconds();
    }
    for (std::size_t c = 0; c < kNumCounters; ++c)
      p.counters[c] += static_cast<double>(s.counters[c]);
  }
  p.traced_train_s.push_back(static_cast<double>(last - first) * 1e-9);
  p.train_flop += samples * rep.flops_per_sample;
  p.tallies += rep.tallies;
  p.cost += rep.cost;
  p.comm_bytes += rep.comm_bytes;
}

double busy(const Pooled& p, const char* name) {
  const auto it = p.busy.find(name);
  return it == p.busy.end() ? 0.0 : it->second;
}

}  // namespace

Outcome run_traced(const Workload& w, const RunOptions& opts) {
  Outcome out;
  const core::SweepCell& cell = w.cells[w.traced_cell];
  check_replayable(cell);
  runtime::ThreadPool* pool = opts.pool;

  std::optional<core::TrainResult> reference;
  try {
    reference = run_repeat(w, cell, pool).result;
  } catch (const std::exception& e) {
    out.attempted = out.failed = 1;
    out.fail(std::string("warm-up repeat threw: ") + e.what());
    return out;
  }
  const std::string digest = fnv1a_hex(reference->final_params);
  out.params_digest = digest;

  // run_sweep's distinct federations, built in series before any cell runs.
  std::vector<core::ExperimentSpec> specs;
  for (const core::SweepCell& c : w.cells)
    if (std::ranges::find(specs, c.spec) == specs.end()) specs.push_back(c.spec);

  Pooled pooled;
  std::vector<double> untraced_train_s, cell_s, concurrency, distinct,
      sweep_build_s;
  std::map<std::string, double> method_s;
  std::unique_ptr<Tracer> last_trace;
  runtime::Timer window;
  std::size_t repeats = 0;
  while (repeats < opts.min_repeats || window.seconds() < opts.seconds) {
    ++repeats;
    out.attempted += 2;
    const std::size_t failures_before = out.failures.size();
    try {
      const RepeatResult r = run_repeat(w, cell, pool);
      if (fnv1a_hex(r.result.final_params) != digest)
        out.fail("untraced repeat diverged from the warm-up repeat");
      double trained_s = 0.0;
      for (const double t : r.train_s) {
        untraced_train_s.push_back(t);
        trained_s += t;
        if (!w.sweep) cell_s.push_back(t);
      }
      if (!w.sweep) {
        concurrency.push_back(trained_s / (r.build_s + r.ctor_s + trained_s));
        method_s[cell_method(cell)] += trained_s;
        distinct.push_back(1.0);
      }
      auto tr = std::make_unique<Tracer>();
      const TracedRepeat rep = traced_repeat(cell, &*reference, pool, *tr, out);
      add_setup(pooled, rep);
      add_training(pooled, rep);
      last_trace = std::move(tr);
      if (w.sweep) {
        // The build phase as run_sweep runs it: no pool.
        runtime::Timer build_t;
        for (const core::ExperimentSpec& spec : specs)
          static_cast<void>(core::build_experiment(spec));
        sweep_build_s.push_back(build_t.seconds());
        out.attempted += w.cells.size();
        const core::SweepRunResult s = run_sweep_repeat(w, pool);
        if (fnv1a_hex(s.cells[w.traced_cell].result.final_params) != digest)
          out.fail("run_sweep cell " + cell.label +
                   " diverged from the standalone trainer");
        double sum = 0.0;
        for (std::size_t i = 0; i < s.cells.size(); ++i) {
          cell_s.push_back(s.cells[i].seconds);
          method_s[cell_method(w.cells[i])] += s.cells[i].seconds;
          sum += s.cells[i].seconds;
        }
        concurrency.push_back(sum / s.total_seconds);
        distinct.push_back(static_cast<double>(s.distinct_experiments));
      }
    } catch (const std::exception& e) {
      out.fail(std::string("traced repeat threw: ") + e.what());
    }
    if (out.failures.size() > failures_before) ++out.failed;
  }

  // Top up with set-up-only traced repeats: to kSetupSamples when builds
  // are short, and always to kMinSetupReplays, because core.setup_coverage
  // divides two medians measured seconds apart on a drifting host.
  constexpr std::size_t kMinSetupReplays = 5;
  const auto want_setup = [&pooled] {
    const std::vector<double>& xs = pooled.setup["public"];
    return xs.size() < kMinSetupReplays ||
           (xs.size() < kSetupSamples && median(xs) < kSetupExtraBelow);
  };
  while (want_setup()) {
    Tracer scratch;
    try {
      add_setup(pooled, traced_repeat(cell, nullptr, pool, scratch, out));
    } catch (const std::exception& e) {
      out.fail(std::string("set-up replay threw: ") + e.what());
      break;
    }
  }

  if (last_trace != nullptr && !opts.trace_path.empty() &&
      !last_trace->write_chrome_trace(opts.trace_path))
    out.fail("could not write " + opts.trace_path);

  Metrics& m = out.metrics;
  const auto put = [&m](const std::string& name, double value,
                        const char* unit, std::size_t n) {
    m[name] = Metric(value, unit, n);
  };
  for (const char* stage : kSetupStages) {
    const auto& xs = pooled.setup[stage];
    put(std::string(stage) + "_s", median(xs), "s", xs.size());
  }
  for (const char* stage : {"core.build_experiment", "core.trainer_ctor"}) {
    const auto& xs = pooled.setup[stage];
    put(std::string(stage) + "_s", median(xs), "s", xs.size());
  }
  const double setup_coverage = median(pooled.setup["coverage"]);
  put("core.setup_coverage", setup_coverage, "share",
      pooled.setup["public"].size());
  put("grouping.groups", static_cast<double>(pooled.groups), "count", 1);
  put("grouping.avg_size", pooled.avg_size, "count", 1);
  put("grouping.avg_cov", pooled.avg_cov, "ratio", 1);
  put("data.resident_mb", pooled.resident_mb, "MiB", 1);

  const std::size_t n = pooled.round_s.size();
  // The highest percentile with at least ten rounds beyond it; below 20
  // rounds no percentile above the median has, so the maximum is reported.
  const double tail_pct =
      n >= 20 ? std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(n)))
              : 100.0;
  put("core.round_s_p50", median(pooled.round_s), "s", n);
  put("core.round_s_tail", percentile(pooled.round_s, tail_pct), "s", n);
  put("core.round_tail_pct", tail_pct, "%", n);
  put("core.rounds_traced", static_cast<double>(n), "count", 1);
  put("sampling.sample_s", median(pooled.sample_s), "s", n);
  put("core.group_phase_s", median(pooled.phase_s), "s", n);
  put("core.cloud_aggregate_s", median(pooled.cloud_s), "s", n);
  put("core.eval_s", median(pooled.eval_s), "s", pooled.eval_s.size());
  const double round_coverage =
      safe_ratio(pooled.covered_s, pooled.rounds_total_s);
  put("core.round_coverage", round_coverage, "share", n);
  put("core.trace_overhead",
      safe_ratio(median(pooled.traced_train_s), median(untraced_train_s)) -
          1.0,
      "share", untraced_train_s.size());

  // Busy times and counts per round; shares of the group phase's busy time.
  const double per_round = 1.0 / std::max<double>(1.0, static_cast<double>(n));
  const auto& c = pooled.counters;
  const auto busy_s = [&](Counter k) { return c[k] * 1e-9 * per_round; };
  const double client_s = busy(pooled, "algorithms.client_update");
  const double wire_s = busy(pooled, "compression.wire");
  const double aggregate_s = busy(pooled, "core.group_aggregate");
  const double phase_busy_s = client_s + wire_s + aggregate_s;
  const auto share = [&](const char* span) {
    return safe_ratio(busy(pooled, span), phase_busy_s);
  };
  const Tallies& t = pooled.tallies;
  put("data.batch_busy_s", busy_s(kBatchNs), "s", n);
  put("data.samples", c[kSamples] * per_round, "count", n);
  put("data.batch_ns_per_sample", safe_ratio(c[kBatchNs], c[kSamples]), "ns",
      n);
  put("nn.forward_busy_s", busy_s(kForwardNs), "s", n);
  put("nn.backward_busy_s", busy_s(kBackwardNs), "s", n);
  put("nn.loss_busy_s", busy_s(kLossNs), "s", n);
  put("nn.optimizer_busy_s", busy_s(kOptimizerNs), "s", n);
  put("nn.model_exchange_busy_s", busy_s(kExchangeNs), "s", n);
  put("nn.sgd_steps", c[kSteps] * per_round, "count", n);
  put("nn.train_gflop", pooled.train_flop * 1e-9 * per_round, "GFLOP", n);
  put("nn.train_gflops",
      safe_ratio(pooled.train_flop,
                 c[kForwardNs] + c[kBackwardNs]),  // flop/ns = GFLOP/s
      "GFLOP/s", n);
  put("algorithms.client_update_busy_s", client_s * per_round, "s", n);
  put("algorithms.client_updates", t.updates_trained * per_round, "count", n);
  put("core.group_aggregate_busy_s", aggregate_s * per_round, "s", n);
  const double threads = static_cast<double>(pool->size() + 1);
  put("runtime.group_phase_idle_share",
      1.0 - safe_ratio(phase_busy_s, threads * pooled.phase_total_s), "share",
      n);
  put("compression.wire_busy_share", share("compression.wire"), "share", n);
  put("secagg.keysetup_busy_share", share("secagg.keysetup"), "share", n);
  put("secagg.mask_busy_share", share("secagg.mask"), "share", n);
  put("secagg.unmask_busy_share", share("secagg.unmask"), "share", n);
  put("secagg.mask_gelem_per_s",
      safe_ratio(t.mask_elements * 1e-9, busy(pooled, "secagg.mask")),
      "Gelem/s", n);
  put("secagg.dropped_clients", t.dropped * per_round, "count", n);
  put("secagg.quorum_skips", t.quorum_skips * per_round, "count", n);
  put("backdoor.flame_busy_share", share("backdoor.flame"), "share", n);
  put("backdoor.flame_rejections", t.flame_rejections * per_round, "count",
      n);
  put("core.useful_update_share",
      safe_ratio(t.updates_aggregated, t.updates_trained), "share", n);
  put("cost.eq5_per_round", pooled.cost * per_round, "sim_s", n);
  put("net.comm_mb_per_round", pooled.comm_bytes * per_round * 1e-6, "MB", n);
  put("core.final_accuracy", reference->final_accuracy, "fraction", 1);

  // A round workload's sweep would build its one federation.
  const auto& builds =
      w.sweep ? sweep_build_s : pooled.setup["core.build_experiment"];
  put("core.sweep_build_s", median(builds), "s", builds.size());
  put("core.cell_s_p50", median(cell_s), "s", cell_s.size());
  put("core.cell_s_p90", percentile(cell_s, 90.0), "s", cell_s.size());
  put("core.sweep_distinct_experiments", median(distinct), "count",
      distinct.size());
  put("runtime.sweep_concurrency", median(concurrency), "x",
      concurrency.size());
  double all_cells_s = 0.0;
  for (const auto& [method, secs] : method_s) all_cells_s += secs;
  for (const std::string& method : sweep_methods())
    put("core.cell_share." + method, safe_ratio(method_s[method], all_cells_s),
        "share", cell_s.size());

  // Smoke set-ups take a few milliseconds, where fixed overheads outside the
  // replayed stages swing the ratio by 10%; the gate applies to full runs.
  if (!opts.smoke && setup_coverage < 0.95)
    out.fail("core.setup_coverage " + std::to_string(setup_coverage) +
             " < 0.95: the set-up replay misses part of the set-up");
  if (round_coverage < 0.95)
    out.fail("core.round_coverage " + std::to_string(round_coverage) +
             " < 0.95: the round spans miss part of the round");
  return out;
}

}  // namespace groupfel::benchmark
