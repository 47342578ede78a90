// Common grouping interface.
//
// A grouping is a partition of the clients of ONE edge server (identified by
// their row index in that edge's LabelMatrix) into mutually exclusive
// groups, per §3.1. Four algorithms are provided:
//   - CoVG  : the paper's CoV-Grouping greedy (Algorithm 2)
//   - RG    : random grouping (FedAvg/FedProx/SCAFFOLD baseline)
//   - CDG   : clustering-then-distribution, ported from OUEA [13]
//   - KLDG  : KL-divergence grouping, ported from SHARE [14]
#pragma once

#include <string>
#include <vector>

#include "data/label_matrix.hpp"
#include "grouping/cov.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"

namespace groupfel::grouping {

/// Groups are lists of client indices (rows of the edge's LabelMatrix).
using Grouping = std::vector<std::vector<std::size_t>>;

struct GroupingParams {
  std::size_t min_group_size = 5;  ///< MinGS anonymity constraint (Eq. 31)
  double max_cov = 1.0;            ///< MaxCoV soft constraint (CoVG only)
  double kld_threshold = 0.01;     ///< KLDG: target KLD to global dist
  /// Windowed greedy (CoVG and KLDG): 0 runs the classic whole-pool greedy.
  /// A value w > 0 shuffles the pool once and runs the greedy inside
  /// consecutive windows of w clients, cutting candidate scans from
  /// O(n^2 m) to O(n w m) so an edge with 10^6 clients forms groups in
  /// seconds. Window i draws from its own stream rng.fork(i), the windows run
  /// concurrently on the caller's ThreadPool and groups are emitted in window
  /// order, so the result is bit-identical for any pool size. Within a window
  /// the algorithm is EXACTLY Algorithm 2; the paper's guarantees are local
  /// to a group, so windowing trades only cross-window candidate choice.
  /// 0 < w < min_group_size is rejected: such a window cannot close a group
  /// of MinGS clients.
  /// Eq. 31 holds per window, not per edge: each window's last group is
  /// closed when the window runs out of candidates and may hold fewer than
  /// MinGS clients, so a windowed grouping can carry one undersized group
  /// per window (the whole-pool greedy at most one). On a 10k-client edge
  /// (Dirichlet α 0.1, 200 samples per client, MinGS 100) window 256 leaves
  /// 40 of 118 groups (2,200 clients) below MinGS at average CoV 0.2030,
  /// window 2560 4 of 102 (200 clients) at 0.0816, and window 0 none of 100
  /// at 0.0453. ROADMAP item 4 lists the fix as a re-baseline candidate.
  std::size_t greedy_window = 0;
  /// Retired: windowed grouping has one stream mode. `false` with
  /// greedy_window > 0 is rejected (std::invalid_argument). The field stays
  /// only because benchmark/src/workloads.cpp assigns it; ROADMAP item 1b
  /// deletes it together with those two lines.
  bool parallel_windows = true;

  friend bool operator==(const GroupingParams&,
                         const GroupingParams&) = default;
};

/// The paper's Algorithm 2 (greedy CoV grouping). `pool` runs the windows
/// of the windowed mode (see GroupingParams::greedy_window).
[[nodiscard]] Grouping cov_grouping(const data::LabelMatrix& matrix,
                                    const GroupingParams& params,
                                    runtime::Rng& rng,
                                    runtime::ThreadPool* pool = nullptr);

/// Uniform random partition into groups of ~min_group_size clients.
[[nodiscard]] Grouping random_grouping(const data::LabelMatrix& matrix,
                                       const GroupingParams& params,
                                       runtime::Rng& rng,
                                       runtime::ThreadPool* pool = nullptr);

/// OUEA's clustering-then-distribution: k-means over normalized label
/// distributions, then members of each cluster are dealt round-robin across
/// groups so each group mixes all client types. `pool` parallelizes the
/// feature build, the k-means inner loops, and the cluster bucketing;
/// bit-identical for any pool size.
[[nodiscard]] Grouping cdg_grouping(const data::LabelMatrix& matrix,
                                    const GroupingParams& params,
                                    runtime::Rng& rng,
                                    runtime::ThreadPool* pool = nullptr);

/// SHARE's KLD-based greedy: like Algorithm 2 but the criterion is the
/// Kullback–Leibler divergence between the group's label distribution and
/// the global one, recomputed from scratch per candidate (hence the
/// O(|K|^4 |Y|) complexity the paper measures in Fig. 5).
[[nodiscard]] Grouping kldg_grouping(const data::LabelMatrix& matrix,
                                     const GroupingParams& params,
                                     runtime::Rng& rng,
                                     runtime::ThreadPool* pool = nullptr);

// ---- Registry (grouping/registry.cpp) ----

enum class GroupingMethod { kRandom, kCdg, kKldg, kCov };

[[nodiscard]] Grouping form_groups(GroupingMethod method,
                                   const data::LabelMatrix& matrix,
                                   const GroupingParams& params,
                                   runtime::Rng& rng,
                                   runtime::ThreadPool* pool = nullptr);

[[nodiscard]] std::string to_string(GroupingMethod method);
[[nodiscard]] GroupingMethod grouping_method_from_string(const std::string& name);

/// Validates that `grouping` is a partition of [0, num_clients); throws
/// std::invalid_argument otherwise. core::EdgeServer::form_groups calls it
/// on every formation.
void validate_partition(const Grouping& grouping, std::size_t num_clients);

/// Summary statistics used by Table 1 and Fig. 6.
struct GroupingSummary {
  std::size_t num_groups = 0;
  std::size_t min_size = 0;
  std::size_t max_size = 0;
  double avg_size = 0.0;
  double avg_cov = 0.0;   ///< unweighted mean of group CoVs
  double max_group_cov = 0.0;
};

[[nodiscard]] GroupingSummary summarize(const data::LabelMatrix& matrix,
                                        const Grouping& grouping);

}  // namespace groupfel::grouping
