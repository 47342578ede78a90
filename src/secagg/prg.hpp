// Keyed pseudorandom generator for secure-aggregation mask expansion.
//
// Implements the ChaCha20 block function (RFC 8439) from scratch. Both a
// client and the server (during dropout recovery) must expand the same seed
// to the same mask stream, so the PRG is part of the protocol definition —
// unlike the simulation RNG in runtime/rng.hpp, which is free to change.
//
// Two implementations produce that one stream. The scalar single-block path
// behind next_u64()/next_fe() is the reference. The bulk path behind
// add_to()/sub_from()/mask() runs 16 blocks at a time in SIMD lanes and must
// reproduce the scalar stream exactly, from any stream position.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "secagg/field.hpp"

namespace groupfel::secagg {

namespace detail {

/// One ChaCha20 state / key-stream block: 16 little-endian 32-bit words.
using ChaChaBlock = std::array<std::uint32_t, 16>;

/// Number of blocks the bulk block function computes per call.
inline constexpr std::size_t kLanes = 16;

/// RFC 8439 §2.3 block function: 20 rounds over `in` plus the feed-forward
/// add. Words 12/13 of `in` hold the (64-bit) block counter.
[[nodiscard]] ChaChaBlock chacha20_block(const ChaChaBlock& in) noexcept;

/// The block function for kLanes consecutive counters at once: `out[l]` is
/// chacha20_block(in with counter + l), the counter carrying from word 12
/// into word 13. Each SIMD lane runs one block.
void chacha20_blocks16(const ChaChaBlock& in,
                       std::array<ChaChaBlock, kLanes>& out) noexcept;

/// Result of accept_field_elements().
struct Accepted {
  std::size_t written = 0;   ///< field values written to `out`
  std::size_t consumed = 0;  ///< raw words read from `raw`
};

/// Order-preserving rejection sampling over a run of raw 64-bit PRG words:
/// writes the top 61 bits of each word whose value is below p into `out`,
/// in stream order, and stops once `out` is full or `raw` is exhausted.
/// `consumed` counts the raw words read up to and including the last one
/// accepted (all of `raw` if `out` did not fill) — the position the scalar
/// next_fe() loop would stop at.
Accepted accept_field_elements(std::span<const std::uint64_t> raw,
                               std::span<std::uint64_t> out) noexcept;

}  // namespace detail

class ChaChaPrg {
 public:
  /// Keys the stream from a 64-bit seed (expanded into the 256-bit ChaCha
  /// key deterministically) and a 64-bit nonce (protocol round / pair tag).
  ChaChaPrg(std::uint64_t seed, std::uint64_t nonce);

  /// Next 64 pseudorandom bits.
  [[nodiscard]] std::uint64_t next_u64();

  /// Next field element, uniform in [0, p) via rejection sampling.
  [[nodiscard]] Fe next_fe();

  /// y[k] += next_fe() for every k, in order, via the 16-lane kernel.
  void add_to(std::span<Fe> y);

  /// y[k] -= next_fe() for every k, in order, via the 16-lane kernel.
  void sub_from(std::span<Fe> y);

  /// Expands `n` field elements (the mask vector for an n-parameter model).
  [[nodiscard]] std::vector<Fe> mask(std::size_t n);

 private:
  void refill();
  template <bool kSubtract>
  void apply(std::span<Fe> y);

  detail::ChaChaBlock state_{};
  detail::ChaChaBlock block_{};
  std::size_t cursor_ = 16;  // forces refill on first use
};

}  // namespace groupfel::secagg
