// Pairwise-masking secure aggregation (Bonawitz et al., CCS'17) — the group
// operation whose quadratic cost motivates the paper's entire grouping
// study (Fig. 2a / Fig. 8).
//
// Protocol shape (simulation executes all roles faithfully):
//   Round 0  every client generates a DH keypair (pairwise seeds) and a
//            random self-mask seed; public keys are "broadcast".
//   Round 1  every client Shamir-shares its DH private key and self-mask
//            seed to all group members (threshold t).
//   Round 2  client i submits  y_i = Enc(x_i) + PRG(b_i)
//                              + sum_{j>i} PRG(s_ij) - sum_{j<i} PRG(s_ij)
//            where s_ij is the DH-derived pairwise seed.
//   Round 3  the server sums surviving y_i, reconstructs dropped clients'
//            pairwise masks and survivors' self-masks from shares, removes
//            them, and decodes sum_i x_i.
//
// The per-client cost is Theta(|g| * d) mask expansions, i.e. Theta(|g|^2 d)
// per group — exactly the quadratic O_g(|g|) the cost model calibrates.
#pragma once

#include <cstddef>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "runtime/rng.hpp"
#include "secagg/field.hpp"
#include "secagg/key_agreement.hpp"
#include "secagg/prg.hpp"
#include "secagg/shamir.hpp"

namespace groupfel::secagg {

struct SecAggConfig {
  unsigned frac_bits = 16;
  /// Shamir reconstruction threshold; 0 means ceil(2n/3).
  std::size_t threshold = 0;
  /// Domain separator mixed into every PRG nonce (e.g. global round id) so
  /// masks never repeat across rounds.
  std::uint64_t round_tag = 0;
};

/// The protocol's abort: fewer clients survived to round 3 than the Shamir
/// threshold, so the masks cannot be removed and the session yields nothing.
/// Callers that model "the group model carries over" catch exactly this.
class QuorumNotMet : public std::runtime_error {
 public:
  QuorumNotMet(std::size_t survivors, std::size_t threshold);

  [[nodiscard]] std::size_t survivors() const noexcept { return survivors_; }
  [[nodiscard]] std::size_t threshold() const noexcept { return threshold_; }

 private:
  std::size_t survivors_;
  std::size_t threshold_;
};

/// One aggregation session for a fixed group of `n` clients.
class SecureAggregator {
 public:
  SecureAggregator(std::size_t num_clients, std::size_t vector_size,
                   SecAggConfig config, runtime::Rng& rng);

  [[nodiscard]] std::size_t num_clients() const noexcept { return n_; }
  [[nodiscard]] std::size_t vector_size() const noexcept { return dim_; }
  [[nodiscard]] std::size_t threshold() const noexcept { return t_; }

  /// Round 2 (client side): the masked contribution of client `i` for input
  /// `x` (|x| == vector_size). Cost: Theta(n * d) PRG expansions.
  [[nodiscard]] std::vector<Fe> client_masked_input(
      std::size_t i, std::span<const float> x) const;

  /// Round 3 (server side): aggregates the masked inputs of `survivors`
  /// (client id -> masked vector). Clients absent from the map are treated
  /// as dropped; their pairwise masks are reconstructed from Shamir shares.
  /// Throws QuorumNotMet if fewer than `threshold` clients survive.
  [[nodiscard]] std::vector<float> aggregate(
      const std::vector<std::optional<std::vector<Fe>>>& survivor_inputs) const;

  /// Convenience for tests/benches: run the full protocol for the given
  /// client inputs, with `dropped` clients never submitting.
  [[nodiscard]] std::vector<float> run(
      const std::vector<std::vector<float>>& inputs,
      const std::set<std::size_t>& dropped = {}) const;

 private:
  [[nodiscard]] std::uint64_t pair_nonce(std::size_t lo, std::size_t hi) const;
  [[nodiscard]] std::uint64_t self_nonce(std::size_t i) const;
  /// Pairwise seed between clients i and j (i != j), as client i derives it.
  [[nodiscard]] std::uint64_t pair_seed(std::size_t i, std::size_t j) const;

  std::size_t n_;
  std::size_t dim_;
  SecAggConfig cfg_;
  std::size_t t_;
  FixedPointCodec codec_;

  // Per-client protocol state (round 0/1 outputs).
  std::vector<DhKeyPair> dh_;
  std::vector<std::uint64_t> self_seed_;
  // shares_of_priv_[i][j] = share of client i's DH private key held by j.
  std::vector<std::vector<Share>> shares_of_priv_;
  std::vector<std::vector<Share>> shares_of_self_;
};

}  // namespace groupfel::secagg
