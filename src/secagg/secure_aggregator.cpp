#include "secagg/secure_aggregator.hpp"

#include <stdexcept>
#include <string>

#include "util/check.hpp"

namespace groupfel::secagg {

QuorumNotMet::QuorumNotMet(std::size_t survivors, std::size_t threshold)
    : std::runtime_error("secagg: " + std::to_string(survivors) +
                         " survivors is below the Shamir threshold of " +
                         std::to_string(threshold)),
      survivors_(survivors),
      threshold_(threshold) {}

SecureAggregator::SecureAggregator(std::size_t num_clients,
                                   std::size_t vector_size, SecAggConfig config,
                                   runtime::Rng& rng)
    : n_(num_clients), dim_(vector_size), cfg_(config) {
  GF_CHECK(n_ != 0, "SecureAggregator: no clients");
  t_ = cfg_.threshold != 0 ? cfg_.threshold : (2 * n_ + 2) / 3;
  GF_CHECK(t_ <= n_, "SecureAggregator: threshold ", t_, " exceeds group of ",
           n_);
  GF_CHECK(t_ >= 1, "SecureAggregator: threshold must be >= 1");
  codec_.frac_bits = cfg_.frac_bits;

  // Round 0: key generation. Each client draws from its own forked stream.
  dh_.resize(n_);
  self_seed_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    auto client_rng = rng.fork(0x6b657967ull /*"keyg"*/ + i);
    dh_[i] = dh_generate(client_rng);
    self_seed_[i] = client_rng.next_u64();
  }

  // Round 1: Shamir sharing of private keys and self-mask seeds.
  shares_of_priv_.resize(n_);
  shares_of_self_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    auto share_rng = rng.fork(0x73686172ull /*"shar"*/ + i);
    // A 61-bit private key fits one field element.
    shares_of_priv_[i] = shamir_share(Fe(dh_[i].private_key), n_, t_, share_rng);
    // Only the low 61 bits of the self seed are shared, and only those bits
    // key the self mask: the stored seed is truncated to match, so the
    // server's reconstruction expands the same stream.
    shares_of_self_[i] =
        shamir_share(Fe(self_seed_[i] & kFieldPrime), n_, t_, share_rng);
    self_seed_[i] &= kFieldPrime;
  }
}

std::uint64_t SecureAggregator::pair_nonce(std::size_t lo,
                                           std::size_t hi) const {
  return (cfg_.round_tag << 20) ^ (static_cast<std::uint64_t>(lo) << 10) ^
         static_cast<std::uint64_t>(hi) ^ 0xA5A5ull;
}

std::uint64_t SecureAggregator::self_nonce(std::size_t i) const {
  return (cfg_.round_tag << 20) ^ static_cast<std::uint64_t>(i) ^ 0x5A5A0000ull;
}

std::uint64_t SecureAggregator::pair_seed(std::size_t i, std::size_t j) const {
  const Fe shared = dh_shared(dh_[i].private_key, dh_[j].public_key);
  return seed_from_shared(shared);
}

std::vector<Fe> SecureAggregator::client_masked_input(
    std::size_t i, std::span<const float> x) const {
  if (i >= n_) throw std::out_of_range("client_masked_input: bad client id");
  GF_CHECK_EQ(x.size(), dim_, "client_masked_input: input length for client ",
              i, " disagrees with mask length");

  std::vector<Fe> y(dim_);
  for (std::size_t k = 0; k < dim_; ++k) y[k] = codec_.encode(x[k]);

  // Self mask.
  ChaChaPrg(self_seed_[i], self_nonce(i)).add_to(y);

  // Pairwise masks: + for j > i, - for j < i, so they cancel in the sum.
  for (std::size_t j = 0; j < n_; ++j) {
    if (j == i) continue;
    const std::size_t lo = std::min(i, j), hi = std::max(i, j);
    ChaChaPrg pair_prg(pair_seed(i, j), pair_nonce(lo, hi));
    if (j > i) {
      pair_prg.add_to(y);
    } else {
      pair_prg.sub_from(y);
    }
  }
  return y;
}

std::vector<float> SecureAggregator::aggregate(
    const std::vector<std::optional<std::vector<Fe>>>& survivor_inputs) const {
  GF_CHECK_EQ(survivor_inputs.size(), n_,
              "aggregate: expected one slot per client");

  std::vector<std::size_t> survivors, dropped;
  for (std::size_t i = 0; i < n_; ++i)
    (survivor_inputs[i] ? survivors : dropped).push_back(i);
  if (survivors.size() < t_) throw QuorumNotMet(survivors.size(), t_);

  std::vector<Fe> sum(dim_);
  for (auto i : survivors) {
    const auto& y = *survivor_inputs[i];
    GF_CHECK_EQ(y.size(), dim_, "aggregate: masked vector length for client ",
                i, " disagrees with mask length");
    for (std::size_t k = 0; k < dim_; ++k) sum[k] += y[k];
  }

  // Remove survivors' self masks. The server gathers t shares of b_i from
  // the first t survivors (any t work).
  for (auto i : survivors) {
    std::vector<Share> shares;
    for (std::size_t s = 0; s < t_; ++s)
      shares.push_back(shares_of_self_[i][survivors[s]]);
    const Fe seed = shamir_reconstruct(shares);
    ChaChaPrg(seed.value(), self_nonce(i)).sub_from(sum);
  }

  // Remove dropped clients' pairwise masks. Reconstructing a_j lets the
  // server recompute s_ij with every survivor's PUBLIC key.
  for (auto j : dropped) {
    std::vector<Share> shares;
    for (std::size_t s = 0; s < t_; ++s)
      shares.push_back(shares_of_priv_[j][survivors[s]]);
    const std::uint64_t priv_j = shamir_reconstruct(shares).value();
    for (auto i : survivors) {
      const Fe shared = dh_shared(priv_j, dh_[i].public_key);
      const std::uint64_t seed = seed_from_shared(shared);
      const std::size_t lo = std::min(i, j), hi = std::max(i, j);
      ChaChaPrg pair_prg(seed, pair_nonce(lo, hi));
      // Survivor i added sign(i relative to j): + if j > i else -.
      if (j > i) {
        pair_prg.sub_from(sum);
      } else {
        pair_prg.add_to(sum);
      }
    }
  }

  std::vector<float> out(dim_);
  for (std::size_t k = 0; k < dim_; ++k)
    out[k] = static_cast<float>(codec_.decode(sum[k]));
  return out;
}

std::vector<float> SecureAggregator::run(
    const std::vector<std::vector<float>>& inputs,
    const std::set<std::size_t>& dropped) const {
  GF_CHECK_EQ(inputs.size(), n_, "run: expected one input per client");
  std::vector<std::optional<std::vector<Fe>>> slots(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    if (dropped.count(i)) continue;
    slots[i] = client_masked_input(i, inputs[i]);
  }
  return aggregate(slots);
}

}  // namespace groupfel::secagg
