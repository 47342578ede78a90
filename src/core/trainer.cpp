#include "core/trainer.hpp"

#include <algorithm>
#include <stdexcept>

#include "algorithms/fedclar.hpp"
#include "algorithms/fedprox.hpp"
#include "algorithms/scaffold.hpp"
#include "compression/compressor.hpp"
#include "runtime/thread_pool.hpp"
#include "net/network_model.hpp"
#include "secagg/secure_aggregator.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace groupfel::core {

namespace {
std::uint64_t mix_tag(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0) {
  return (a * 1000003ull + b) * 1000003ull + c;
}

std::unique_ptr<algorithms::LocalUpdateRule> make_rule(
    const GroupFelConfig& cfg, std::size_t num_clients) {
  switch (cfg.rule) {
    case LocalRule::kSgd:
      return std::make_unique<algorithms::SgdRule>();
    case LocalRule::kFedProx:
      return std::make_unique<algorithms::FedProxRule>(kFedProxMu);
    case LocalRule::kScaffold:
      return std::make_unique<algorithms::ScaffoldRule>(num_clients);
  }
  throw std::invalid_argument("make_rule: unknown rule");
}
}  // namespace

GroupFelTrainer::GroupFelTrainer(FederationTopology topology,
                                 GroupFelConfig config,
                                 cost::CostModel cost_model,
                                 runtime::ThreadPool* pool)
    : topo_(std::move(topology)),
      cfg_(config),
      cost_(std::move(cost_model)),
      cloud_(cfg_.sampling, cfg_.aggregation),
      pool_(pool != nullptr ? pool : &runtime::ThreadPool::global()),
      run_rng_(cfg_.seed) {
  if (cfg_.local.batch_size == 0)
    throw std::invalid_argument(
        "GroupFelTrainer: local.batch_size must be > 0");
  if (cfg_.eval_every == 0)
    throw std::invalid_argument("GroupFelTrainer: eval_every must be > 0");
  if (!(cfg_.client_dropout_rate >= 0.0 && cfg_.client_dropout_rate <= 1.0))
    throw std::invalid_argument(
        "GroupFelTrainer: client_dropout_rate must be in [0, 1]");
  if (topo_.clients.num_clients() == 0)
    throw std::invalid_argument("GroupFelTrainer: no clients");
  if (!topo_.model_factory)
    throw std::invalid_argument("GroupFelTrainer: no model factory");
  if (topo_.edges.empty())
    throw std::invalid_argument("GroupFelTrainer: no edge servers");

  label_matrix_ = topo_.clients.label_matrix(pool_);
  // The edge servers take the client lists over: one copy of the edge
  // assignment, not two.
  for (std::size_t e = 0; e < topo_.edges.size(); ++e)
    edge_servers_.emplace_back(e, std::move(topo_.edges[e]));
  topo_.edges.clear();

  rule_ = make_rule(cfg_, topo_.clients.num_clients());
  prototype_ = topo_.model_factory();
  runtime::Rng init_rng = run_rng_.fork(0x696e6974ull /*"init"*/);
  prototype_.init(init_rng);
  // Compute-width selection: the prototype carries the storage precision, so
  // every per-thread replica inherits it. kFp32 leaves the fp32 kernels
  // untouched.
  prototype_.set_compute_precision(cfg_.precision.compute);
  replicas_.set_prototype(prototype_);

  runtime::Rng group_rng = run_rng_.fork(0x67727570ull /*"grup"*/);
  form_groups(group_rng);
}

void GroupFelTrainer::form_groups(runtime::Rng& rng) {
  // Edges group concurrently into per-edge slots: each edge's stream is
  // forked by its id (fork is const — the parent never advances), so the
  // result is identical to the historical serial loop for any pool size.
  // The deterministic edge-order concatenation keeps group indices stable.
  const std::size_t num_edges = edge_servers_.size();
  std::vector<std::vector<FormedGroup>> per_edge(num_edges);
  const auto run_edge = [&](std::size_t e) {
    auto edge_rng = rng.fork(edge_servers_[e].id());
    per_edge[e] =
        edge_servers_[e].form_groups(label_matrix_, cfg_.grouping,
                                     cfg_.grouping_params, edge_rng, pool_);
  };
  if (pool_->size() > 0 && num_edges > 1) {
    pool_->parallel_for(num_edges, run_edge);
  } else {
    for (std::size_t e = 0; e < num_edges; ++e) run_edge(e);
  }
  std::vector<FormedGroup> all;
  for (auto& groups : per_edge)
    for (auto& g : groups) all.push_back(std::move(g));
  cloud_.set_groups(std::move(all), pool_);
}

GroupFelTrainer::GroupRun GroupFelTrainer::run_group(
    const FormedGroup& group, const std::vector<float>& start,
    std::size_t round, std::size_t group_tag) {
  GroupRun run;
  run.params = start;
  const double n_g = static_cast<double>(group.data_count);
  if (n_g <= 0.0) return run;

  const std::size_t members = group.clients.size();
  const std::size_t dim = run.params.size();
  // Persistent per-member parameter buffers: sized once here, refilled in
  // place every group round, so the K-round loop performs no per-client
  // vector allocations.
  std::vector<std::vector<float>> locals(members, std::vector<float>(dim));
  std::vector<double> losses(members, 0.0);
  std::vector<bool> dropped(members, false);
  std::vector<std::size_t> survivors;

  algorithms::LocalTrainConfig local_cfg = cfg_.local;
  local_cfg.epochs = cfg_.local_epochs;

  for (std::size_t k = 0; k < cfg_.group_rounds; ++k) {
    // A member dropped this round would otherwise carry a stale loss from
    // the round it last survived; only this round's survivors may
    // contribute to the group's loss average.
    std::fill(losses.begin(), losses.end(), 0.0);
    // Mobile churn: decide up front which members fail to report this
    // group round. Their training result is lost; if nobody survives, the
    // group model simply carries over.
    std::fill(dropped.begin(), dropped.end(), false);
    survivors.clear();
    if (cfg_.client_dropout_rate > 0.0) {
      runtime::Rng drop_rng =
          run_rng_.fork(mix_tag(0xd209ull, round, group_tag * 131 + k));
      for (std::size_t m = 0; m < members; ++m)
        if (drop_rng.next_double() < cfg_.client_dropout_rate)
          dropped[m] = true;
    }
    for (std::size_t m = 0; m < members; ++m)
      if (!dropped[m]) survivors.push_back(m);
    // Quorum: the secure-aggregation protocol aborts below its Shamir
    // threshold (ceil(2n/3)); the plaintext path applies the SAME policy so
    // use_real_secagg is a pure fidelity switch, not a semantics change.
    if (survivors.size() < (2 * members + 2) / 3) continue;

    // Algorithm 1 lines 10-13: members train in parallel from the group
    // model. Determinism: each client's RNG is keyed by (round, group, k,
    // client), never by thread identity.
    pool_->parallel_for(members, [&](std::size_t m) {
      if (dropped[m]) return;
      const std::size_t cid = group.clients[m];
      runtime::Rng client_rng =
          run_rng_.fork(mix_tag(round, group_tag * 131 + k, cid));
      // O(1) model constructions per worker thread: reset this thread's
      // persistent replica to the group model instead of cloning the
      // prototype, and read the result into the member's reused buffer.
      nn::Model& model = replicas_.local();
      model.set_flat_parameters(run.params);
      losses[m] = rule_->train_client(model, topo_.clients.client(cid),
                                      run.params, cid, local_cfg, client_rng);
      model.flat_parameters_into(locals[m]);
    });

    // Threat model: malicious clients submit sign-flipped, scaled updates
    // (a model-replacement backdoor attempt).
    if (cfg_.backdoor.attack && !topo_.malicious.empty()) {
      for (auto m : survivors) {
        if (!topo_.malicious[group.clients[m]]) continue;
        const float scale = static_cast<float>(kBackdoorAttackScale);
        for (std::size_t i = 0; i < locals[m].size(); ++i)
          locals[m][i] =
              run.params[i] - scale * (locals[m][i] - run.params[i]);
      }
    }

    // Uplink wire codec: each surviving member's DELTA against the group
    // model passes through the lossy round-trip before any aggregation path
    // (FLAME, secagg, or plain averaging) sees it — exactly the values a
    // receiver would reconstruct from the narrowed payload. The SR stream is
    // keyed by (round, group, k, client, coefficient), so the result is
    // independent of thread count and member iteration order. kFloat32 is
    // the exact identity and skips the pass entirely.
    if (cfg_.precision.wire != compression::Codec::kFloat32) {
      for (auto m : survivors) {
        const std::uint64_t wire_seed =
            mix_tag(0x317eull, round, group_tag * 131 + k) * 1000003ull +
            group.clients[m];
        for (std::size_t i = 0; i < dim; ++i) locals[m][i] -= run.params[i];
        compression::wire_round_trip(locals[m], cfg_.precision.wire,
                                     wire_seed);
        for (std::size_t i = 0; i < dim; ++i) locals[m][i] += run.params[i];
      }
    }

    auto accumulate_losses = [&] {
      for (auto m : survivors) {
        run.loss_sum += losses[m];
        ++run.loss_count;
      }
    };

    if (cfg_.backdoor.defense) {
      // FLAME filtering replaces plain averaging: cluster updates by
      // cosine distance, drop the outlier minority, clip to the median
      // norm, and apply the (unweighted) mean of the accepted survivors.
      std::vector<std::vector<float>> updates;
      updates.reserve(survivors.size());
      for (auto m : survivors) {
        // Turn the local model into its update in place and lend the buffer
        // to the filter (moved back below, so the next group round refills
        // it without reallocating).
        for (std::size_t i = 0; i < dim; ++i) locals[m][i] -= run.params[i];
        updates.push_back(std::move(locals[m]));
      }
      runtime::Rng flame_rng =
          run_rng_.fork(mix_tag(0xf1a3eull, round, group_tag * 131 + k));
      const backdoor::FlameResult filtered =
          backdoor::flame_filter(updates, cfg_.backdoor.flame, flame_rng);
      defense_rejections_.fetch_add(filtered.num_rejected,
                                    std::memory_order_relaxed);
      for (std::size_t i = 0; i < run.params.size(); ++i)
        run.params[i] += filtered.aggregated[i];
      for (std::size_t s = 0; s < survivors.size(); ++s)
        locals[survivors[s]] = std::move(updates[s]);
      accumulate_losses();
      continue;
    }

    // Line 14: group aggregation weighted by n_i / n_g, renormalized over
    // the surviving members.
    double surviving_data = 0.0;
    for (auto m : survivors)
      surviving_data +=
          static_cast<double>(topo_.clients.data_count(group.clients[m]));
    if (surviving_data <= 0.0) continue;

    if (cfg_.use_real_secagg) {
      // Clients pre-scale by their weight; the protocol sums the masked
      // vectors, which equals the weighted average. Dropped members never
      // submit — the server reconstructs their masks from Shamir shares.
      // If too few members survive the protocol aborts and the group model
      // carries over (the real protocol's failure mode).
      runtime::Rng secagg_rng =
          run_rng_.fork(mix_tag(0x5ec466ull, round, group_tag * 131 + k));
      secagg::SecAggConfig sa_cfg;
      sa_cfg.round_tag = mix_tag(round, k) & 0xFFFFFFFFull;
      // Narrow the fixed-point fraction to match the wire codec (16 bits for
      // fp32 — the protocol's legacy width — so defaults stay bit-exact).
      sa_cfg.frac_bits = secagg_frac_bits(cfg_.precision.wire);
      secagg::SecureAggregator agg(members, run.params.size(), sa_cfg,
                                   secagg_rng);
      // Survivors mask concurrently, like they trained: the session is
      // read-only and each task writes only its own locals[m] and slots[m].
      std::vector<std::optional<std::vector<secagg::Fe>>> slots(members);
      pool_->parallel_for(survivors.size(), [&](std::size_t s) {
        const std::size_t m = survivors[s];
        const float w = static_cast<float>(
            static_cast<double>(topo_.clients.data_count(group.clients[m])) /
            surviving_data);
        // The protocol quantizes the scaled vector into field elements
        // anyway; scale the member's buffer in place instead of copying the
        // full model (it is refilled next round).
        for (auto& v : locals[m]) v *= w;
        slots[m] = agg.client_masked_input(m, locals[m]);
      });
      try {
        run.params = agg.aggregate(slots);
      } catch (const secagg::QuorumNotMet&) {
        // Below threshold: aggregation aborts, model carries over. Any
        // other failure propagates.
      }
    } else {
      // Fixed-shape reduction straight out of the members' buffers into
      // run.params (pure output — the reduction reads only `locals`).
      // Bit-identical for any pool size.
      std::vector<std::span<const float>> views;
      std::vector<double> weights;
      views.reserve(survivors.size());
      weights.reserve(survivors.size());
      for (auto m : survivors) {
        GF_CHECK_EQ(locals[m].size(), run.params.size(),
                    "group aggregation: client ", group.clients[m],
                    " returned a flat vector of the wrong length");
        views.emplace_back(locals[m]);
        weights.push_back(
            static_cast<double>(topo_.clients.data_count(group.clients[m])) /
            surviving_data);
      }
      nn::weighted_average_into(run.params, views, weights, pool_);
    }
    accumulate_losses();
  }
  return run;
}

void GroupFelTrainer::fedclar_clusterize(const std::vector<float>& global_params,
                                         std::size_t round) {
  const std::size_t n = topo_.clients.num_clients();
  std::vector<std::vector<float>> deltas(n);
  algorithms::LocalTrainConfig probe_cfg = cfg_.local;
  probe_cfg.epochs = 1;

  pool_->parallel_for(n, [&](std::size_t cid) {
    runtime::Rng rng = run_rng_.fork(mix_tag(0xfedc1a5ull, round, cid));
    algorithms::SgdRule probe;  // clustering probes use plain SGD
    nn::Model& model = replicas_.local();
    model.set_flat_parameters(global_params);
    (void)probe.train_client(model, topo_.clients.client(cid), global_params,
                             cid, probe_cfg, rng);
    deltas[cid].resize(global_params.size());
    model.flat_parameters_into(deltas[cid]);
    for (std::size_t i = 0; i < deltas[cid].size(); ++i)
      deltas[cid][i] -= global_params[i];
  });

  cluster_of_ =
      algorithms::fedclar_cluster(deltas, kFedClarMergeThreshold);
  std::size_t num_clusters = 0;
  for (auto c : cluster_of_) num_clusters = std::max(num_clusters, c + 1);
  cluster_params_.assign(num_clusters, global_params);
  clustered_ = true;
  util::log_debug("FedCLAR: formed ", num_clusters, " clusters at round ",
                  round);
}

TrainResult GroupFelTrainer::train(double cost_budget) {
  TrainResult result;
  result.grouping = [&] {
    grouping::GroupingSummary s;
    s.num_groups = cloud_.groups().size();
    if (s.num_groups == 0) return s;
    s.min_size = cloud_.groups()[0].clients.size();
    double size_sum = 0.0, cov_sum = 0.0;
    for (const auto& g : cloud_.groups()) {
      s.min_size = std::min(s.min_size, g.clients.size());
      s.max_size = std::max(s.max_size, g.clients.size());
      size_sum += static_cast<double>(g.clients.size());
      cov_sum += g.cov;
      s.max_group_cov = std::max(s.max_group_cov, g.cov);
    }
    s.avg_size = size_sum / static_cast<double>(s.num_groups);
    s.avg_cov = cov_sum / static_cast<double>(s.num_groups);
    return s;
  }();

  std::vector<float> params = prototype_.flat_parameters();

  auto eval_params = [&]() -> std::vector<float> {
    if (!clustered_) return params;
    // FedCLAR's "global" model: data-weighted merge of cluster models —
    // exactly the operation personalization makes lossy.
    std::vector<double> weights(cluster_params_.size(), 0.0);
    for (std::size_t cid = 0; cid < cluster_of_.size(); ++cid)
      weights[cluster_of_[cid]] +=
          static_cast<double>(topo_.clients.data_count(cid));
    double total = 0.0;
    for (double w : weights) total += w;
    for (auto& w : weights) w /= total;
    return nn::weighted_average(cluster_params_, weights);
  };

  double comm_bytes = 0.0;
  const double model_b =
      net::model_bytes(prototype_.param_count(), rule_->communication_factor(),
                       wire_bytes_per_param(cfg_.precision.wire));

  auto record = [&](std::size_t round, double train_loss) {
    // Evaluate on the calling thread's persistent replica; the parallel
    // batch path inside evaluate() draws worker replicas from the same cache
    // instead of cloning per chunk.
    nn::Model& eval_model = replicas_.local();
    eval_model.set_flat_parameters(eval_params());
    const EvalResult ev =
        evaluate(eval_model, *topo_.test_set, 256, pool_, &replicas_);
    result.history.push_back(RoundMetrics{round, ev.accuracy, ev.loss,
                                          train_loss, cost_.total(),
                                          comm_bytes});
    result.best_accuracy = std::max(result.best_accuracy, ev.accuracy);
  };

  for (std::size_t t = 0; t < cfg_.global_rounds; ++t) {
    // Optional periodic regrouping (§6.1): random first clients make the
    // re-run produce genuinely fresh groups.
    if (cfg_.regroup_interval > 0 && t > 0 &&
        t % cfg_.regroup_interval == 0) {
      runtime::Rng rng = run_rng_.fork(mix_tag(0x7e6e0ull, t));
      form_groups(rng);
    }
    if (cfg_.fedclar.enabled && !clustered_ &&
        t == cfg_.fedclar.cluster_round) {
      fedclar_clusterize(params, t);
    }

    runtime::Rng sample_rng = run_rng_.fork(mix_tag(0x5a3bull, t));
    const std::vector<std::size_t> sampled =
        cloud_.sample(cfg_.sampled_groups, sample_rng);

    double round_loss = 0.0;
    std::size_t round_batches = 0;

    if (!clustered_) {
      std::vector<std::vector<float>> group_models(sampled.size());
      std::vector<GroupRun> runs(sampled.size());
      pool_->parallel_for(sampled.size(), [&](std::size_t i) {
        runs[i] = run_group(cloud_.groups()[sampled[i]], params, t, sampled[i]);
      });
      for (std::size_t i = 0; i < sampled.size(); ++i) {
        group_models[i] = std::move(runs[i].params);
        round_loss += runs[i].loss_sum;
        round_batches += runs[i].loss_count;
      }
      // Fixed-shape parallel reduction into the existing global buffer (the
      // reduction reads only group_models, so writing params is safe);
      // bit-identical for any pool size.
      const std::vector<std::span<const float>> views(group_models.begin(),
                                                      group_models.end());
      cloud_.aggregate_into(params, sampled, views, pool_);
    } else {
      // FedCLAR path: each cluster aggregates its own members.
      std::vector<std::vector<float>> cluster_acc(cluster_params_.size());
      std::vector<double> cluster_weight(cluster_params_.size(), 0.0);
      for (auto gi : sampled) {
        const FormedGroup& group = cloud_.groups()[gi];
        // Partition the group's members by cluster.
        std::vector<std::vector<std::size_t>> by_cluster(
            cluster_params_.size());
        for (auto cid : group.clients) by_cluster[cluster_of_[cid]].push_back(cid);
        for (std::size_t c = 0; c < by_cluster.size(); ++c) {
          if (by_cluster[c].empty()) continue;
          FormedGroup sub;
          sub.edge_id = group.edge_id;
          sub.clients = by_cluster[c];
          for (auto cid : sub.clients) sub.data_count += topo_.clients.data_count(cid);
          GroupRun run = run_group(sub, cluster_params_[c], t, gi * 31 + c);
          round_loss += run.loss_sum;
          round_batches += run.loss_count;
          const double w = static_cast<double>(sub.data_count);
          if (cluster_acc[c].empty())
            cluster_acc[c].assign(run.params.size(), 0.0f);
          for (std::size_t i = 0; i < run.params.size(); ++i)
            cluster_acc[c][i] += static_cast<float>(w) * run.params[i];
          cluster_weight[c] += w;
        }
      }
      for (std::size_t c = 0; c < cluster_params_.size(); ++c) {
        if (cluster_weight[c] <= 0.0) continue;
        const float inv = 1.0f / static_cast<float>(cluster_weight[c]);
        for (std::size_t i = 0; i < cluster_acc[c].size(); ++i)
          cluster_params_[c][i] = cluster_acc[c][i] * inv;
      }
    }

    // Eq. 5 cost: every sampled group charges K rounds of group ops plus
    // E local epochs per member. Communication: every member exchanges the
    // model with its edge twice per group round; each group exchanges it
    // with the cloud once per global round.
    for (auto gi : sampled) {
      const FormedGroup& group = cloud_.groups()[gi];
      std::vector<std::size_t> counts;
      counts.reserve(group.clients.size());
      for (auto cid : group.clients) counts.push_back(topo_.clients.data_count(cid));
      cost_.charge_group(counts, cfg_.group_rounds, cfg_.local_epochs);
      comm_bytes += static_cast<double>(cfg_.group_rounds) *
                        static_cast<double>(group.clients.size()) * 2.0 *
                        model_b +
                    2.0 * model_b;
    }

    rule_->on_global_round_end();

    if (cfg_.record_param_history) result.param_history.push_back(params);

    const double mean_loss =
        round_batches > 0 ? round_loss / static_cast<double>(round_batches)
                          : 0.0;
    const bool last = (t + 1 == cfg_.global_rounds);
    const bool over_budget = cost_budget > 0.0 && cost_.total() >= cost_budget;
    if (t % cfg_.eval_every == 0 || last || over_budget)
      record(t, mean_loss);
    if (over_budget) break;
  }

  result.final_params = eval_params();
  result.total_cost = cost_.total();
  result.defense_rejections = defense_rejections_.load();
  result.final_accuracy =
      result.history.empty() ? 0.0 : result.history.back().accuracy;
  return result;
}

}  // namespace groupfel::core
