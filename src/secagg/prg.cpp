#include "secagg/prg.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace groupfel::secagg {

namespace {
constexpr std::uint32_t rotl32(std::uint32_t x, int k) noexcept {
  return (x << k) | (x >> (32 - k));
}

void quarter_round(detail::ChaChaBlock& s, int a, int b, int c,
                   int d) noexcept {
  s[a] += s[b]; s[d] ^= s[a]; s[d] = rotl32(s[d], 16);
  s[c] += s[d]; s[b] ^= s[c]; s[b] = rotl32(s[b], 12);
  s[a] += s[b]; s[d] ^= s[a]; s[d] = rotl32(s[d], 8);
  s[c] += s[d]; s[b] ^= s[c]; s[b] = rotl32(s[b], 7);
}

// Expands a 64-bit seed into 8 key words via splitmix64 (both sides of the
// protocol derive the key identically from the shared seed).
std::array<std::uint32_t, 8> expand_key(std::uint64_t seed) noexcept {
  std::array<std::uint32_t, 8> key{};
  std::uint64_t sm = seed;
  for (int i = 0; i < 4; ++i) {
    std::uint64_t z = (sm += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    key[2 * i] = static_cast<std::uint32_t>(z);
    key[2 * i + 1] = static_cast<std::uint32_t>(z >> 32);
  }
  return key;
}

// Adds `blocks` to the 64-bit block counter in words 12/13.
void advance_counter(detail::ChaChaBlock& s, std::uint64_t blocks) noexcept {
  const std::uint64_t c =
      (static_cast<std::uint64_t>(s[13]) << 32 | s[12]) + blocks;
  s[12] = static_cast<std::uint32_t>(c);
  s[13] = static_cast<std::uint32_t>(c >> 32);
}

// --- 16-block function ----------------------------------------------------
//
// Word w of kVec consecutive blocks lives in one vector (lane l = block l),
// so every quarter-round step is one vector op per word, and a 16-block
// chunk takes 16 / kVec passes. Every width computes the same blocks; the
// target ISA picks the fastest (measured against the scalar stream on one
// Xeon): AVX-512 keeps 16 lanes in 16 of its 32 zmm registers (7.7x); AVX2
// has only 16 ymm, so two 8-lane passes avoid spilling on every quarter
// round (3.7x vs 2.0x at 16 lanes); baseline SSE2 is best left to the
// compiler's 16-lane splitting (2.1x vs 1.5x at 4 lanes).
#if defined(__AVX2__) && !defined(__AVX512F__)
constexpr std::size_t kVec = 8;
#else
constexpr std::size_t kVec = 16;
#endif
typedef std::uint32_t vec_u32
    __attribute__((vector_size(kVec * sizeof(std::uint32_t))));
typedef std::uint32_t half_u32
    __attribute__((vector_size(kVec / 2 * sizeof(std::uint32_t))));
typedef std::uint64_t half_u64
    __attribute__((vector_size(kVec / 2 * sizeof(std::uint64_t))));
using LaneIndex = std::make_index_sequence<kVec>;
using PairIndex = std::make_index_sequence<kVec / 2>;

// In place (by reference): returning a vector wider than the target ISA's
// registers by value would trip -Wpsabi in portable builds.
template <int K>
inline void rotl_vec(vec_u32& x) noexcept {
  x = (x << K) | (x >> (32 - K));
}

inline void quarter_round_vec(vec_u32& a, vec_u32& b, vec_u32& c,
                              vec_u32& d) noexcept {
  a += b; d ^= a; rotl_vec<16>(d);
  c += d; b ^= c; rotl_vec<12>(b);
  a += b; d ^= a; rotl_vec<8>(d);
  c += d; b ^= c; rotl_vec<7>(b);
}

// One level of a kVec x kVec transpose: exchanges bit H of the row index
// with bit H of the column index between rows i and i + H. Applying it for
// every power of two H < kVec swaps all index bits, turning word-major lanes
// into block-major rows.
template <std::size_t H>
constexpr int lo_index(std::size_t j) {
  return static_cast<int>((j & H) != 0 ? kVec + j - H : j);
}
template <std::size_t H>
constexpr int hi_index(std::size_t j) {
  return static_cast<int>((j & H) != 0 ? kVec + j : j + H);
}

template <std::size_t H, std::size_t... J>
inline void exchange_bit(vec_u32* r, std::index_sequence<J...>) noexcept {
  for (std::size_t i = 0; i < kVec; ++i) {
    if ((i & H) != 0) continue;
    const vec_u32 a = r[i];
    const vec_u32 b = r[i + H];
    r[i] = __builtin_shufflevector(a, b, lo_index<H>(J)...);
    r[i + H] = __builtin_shufflevector(a, b, hi_index<H>(J)...);
  }
}

template <std::size_t H = 1>
inline void transpose(vec_u32* r) noexcept {
  if constexpr (H < kVec) {
    exchange_bit<H>(r, LaneIndex{});
    transpose<2 * H>(r);
  }
}

// Raw words whose top 61 bits equal p (= 2^61 - 1) are rejected.
constexpr std::uint64_t kRejectFloor = kFieldPrime << 3;
// 64-bit PRG words per block and per 16-block chunk.
constexpr std::size_t kWordsPerBlock = 8;
constexpr std::size_t kChunk = detail::kLanes * kWordsPerBlock;

// One pass: blocks counter + first .. counter + first + kVec - 1. Afterwards
// x[g * kVec + j] holds words g * kVec .. g * kVec + kVec - 1 of block
// first + j.
void chacha20_pass(const detail::ChaChaBlock& in, std::size_t first,
                   vec_u32 (&x)[16]) noexcept {
  vec_u32 init[16]{};
  for (std::size_t w = 0; w < 16; ++w) init[w] = vec_u32{} + in[w];
  // Lane l runs counter + first + l; a wrapped low word carries into word 13
  // (the all-ones compare mask subtracts as +1).
  vec_u32 lane{};
  for (std::size_t l = 0; l < kVec; ++l)
    lane[l] = static_cast<std::uint32_t>(first + l);
  init[12] += lane;
  init[13] -= reinterpret_cast<vec_u32>(init[12] < (vec_u32{} + in[12]));

  for (std::size_t w = 0; w < 16; ++w) x[w] = init[w];
  for (int round = 0; round < 10; ++round) {
    quarter_round_vec(x[0], x[4], x[8], x[12]);
    quarter_round_vec(x[1], x[5], x[9], x[13]);
    quarter_round_vec(x[2], x[6], x[10], x[14]);
    quarter_round_vec(x[3], x[7], x[11], x[15]);
    quarter_round_vec(x[0], x[5], x[10], x[15]);
    quarter_round_vec(x[1], x[6], x[11], x[12]);
    quarter_round_vec(x[2], x[7], x[8], x[13]);
    quarter_round_vec(x[3], x[4], x[9], x[14]);
  }
  for (std::size_t w = 0; w < 16; ++w) x[w] += init[w];
  for (std::size_t g = 0; g < 16; g += kVec) transpose(&x[g]);
}

// Stores kVec consecutive words of one block as the kVec / 2 64-bit stream
// words next_u64() would return (word 2p low, word 2p + 1 high).
template <std::size_t... P>
inline void store_stream_words(const vec_u32& r, std::uint64_t* dst,
                               std::index_sequence<P...>) noexcept {
  const half_u32 lo = __builtin_shufflevector(r, r, static_cast<int>(2 * P)...);
  const half_u32 hi =
      __builtin_shufflevector(r, r, static_cast<int>(2 * P + 1)...);
  const half_u64 words = __builtin_convertvector(lo, half_u64) |
                         __builtin_convertvector(hi, half_u64) << 32;
  std::memcpy(dst, &words, sizeof(words));
}

// One 16-block chunk as its 128 64-bit stream words, in stream order.
void chacha20_chunk(const detail::ChaChaBlock& in,
                    std::array<std::uint64_t, kChunk>& raw) noexcept {
  for (std::size_t first = 0; first < detail::kLanes; first += kVec) {
    vec_u32 x[16]{};
    chacha20_pass(in, first, x);
    for (std::size_t g = 0; g < 16; g += kVec)
      for (std::size_t j = 0; j < kVec; ++j)
        store_stream_words(x[g + j],
                           &raw[(first + j) * kWordsPerBlock + g / 2],
                           PairIndex{});
  }
}
}  // namespace

namespace detail {

ChaChaBlock chacha20_block(const ChaChaBlock& in) noexcept {
  ChaChaBlock x = in;
  for (int round = 0; round < 10; ++round) {  // 20 rounds = 10 double rounds
    quarter_round(x, 0, 4, 8, 12);
    quarter_round(x, 1, 5, 9, 13);
    quarter_round(x, 2, 6, 10, 14);
    quarter_round(x, 3, 7, 11, 15);
    quarter_round(x, 0, 5, 10, 15);
    quarter_round(x, 1, 6, 11, 12);
    quarter_round(x, 2, 7, 8, 13);
    quarter_round(x, 3, 4, 9, 14);
  }
  for (std::size_t i = 0; i < 16; ++i) x[i] += in[i];
  return x;
}

void chacha20_blocks16(const ChaChaBlock& in,
                       std::array<ChaChaBlock, kLanes>& out) noexcept {
  for (std::size_t first = 0; first < kLanes; first += kVec) {
    vec_u32 x[16]{};
    chacha20_pass(in, first, x);
    for (std::size_t g = 0; g < 16; g += kVec)
      for (std::size_t j = 0; j < kVec; ++j)
        std::memcpy(&out[first + j][g], &x[g + j], sizeof(vec_u32));
  }
}

Accepted accept_field_elements(std::span<const std::uint64_t> raw,
                               std::span<std::uint64_t> out) noexcept {
  Accepted acc;
  while (acc.written < out.size() && acc.consumed < raw.size()) {
    const std::uint64_t v = raw[acc.consumed++] >> 3;  // 61 bits
    if (v < kFieldPrime) out[acc.written++] = v;
  }
  return acc;
}

}  // namespace detail

ChaChaPrg::ChaChaPrg(std::uint64_t seed, std::uint64_t nonce) {
  // RFC 8439 constants "expand 32-byte k".
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  const auto key = expand_key(seed);
  for (int i = 0; i < 8; ++i) state_[4 + i] = key[static_cast<std::size_t>(i)];
  state_[12] = 0;  // block counter
  state_[13] = 0;
  state_[14] = static_cast<std::uint32_t>(nonce);
  state_[15] = static_cast<std::uint32_t>(nonce >> 32);
}

void ChaChaPrg::refill() {
  block_ = detail::chacha20_block(state_);
  advance_counter(state_, 1);
  cursor_ = 0;
}

std::uint64_t ChaChaPrg::next_u64() {
  if (cursor_ + 2 > 16) refill();
  const std::uint64_t lo = block_[cursor_];
  const std::uint64_t hi = block_[cursor_ + 1];
  cursor_ += 2;
  return lo | (hi << 32);
}

Fe ChaChaPrg::next_fe() {
  // Rejection sampling on the top 61 bits keeps the distribution uniform.
  for (;;) {
    const std::uint64_t v = next_u64() >> 3;  // 61 bits
    if (v < kFieldPrime) return Fe(v);
  }
}

template <bool kSubtract>
void ChaChaPrg::apply(std::span<Fe> y) {
  const auto combine = [](Fe& dst, std::uint64_t v) {
    if constexpr (kSubtract) {
      dst -= Fe(v);
    } else {
      dst += Fe(v);
    }
  };
  const std::size_t n = y.size();
  std::size_t k = 0;
  // Drain the words left in a partly consumed block, as next_fe() would.
  while (k < n && cursor_ + 2 <= 16) {
    const std::uint64_t v = next_u64() >> 3;
    if (v < kFieldPrime) combine(y[k++], v);
  }

  // Invariant from here on: cursor_ == 16, so the stream continues at the
  // first word of block `state_` counter.
  std::array<std::uint64_t, kChunk> raw{};
  std::array<std::uint64_t, kChunk> accepted{};
  while (k < n) {
    chacha20_chunk(state_, raw);
    bool rejected = false;
    for (const std::uint64_t r : raw) rejected |= r >= kRejectFloor;
    const std::size_t want = std::min(kChunk, n - k);
    if (want == kChunk && !rejected) {
      Fe* dst = y.data() + k;
      for (std::size_t e = 0; e < kChunk; ++e) combine(dst[e], raw[e] >> 3);
      k += kChunk;
      advance_counter(state_, detail::kLanes);
      continue;
    }
    // Tail or a rejected word (probability ~2^-54 per chunk): compact the
    // accepted values in order, then leave block_/cursor_/counter exactly
    // where the scalar path would stop, so next_u64() continues the stream.
    const detail::Accepted acc = detail::accept_field_elements(
        raw, std::span<std::uint64_t>(accepted).first(want));
    for (std::size_t i = 0; i < acc.written; ++i)
      combine(y[k + i], accepted[i]);
    k += acc.written;
    const std::size_t used_blocks =
        (acc.consumed + kWordsPerBlock - 1) / kWordsPerBlock;
    advance_counter(state_, used_blocks);
    for (std::size_t p = 0; p < kWordsPerBlock; ++p) {
      const std::uint64_t r = raw[(used_blocks - 1) * kWordsPerBlock + p];
      block_[2 * p] = static_cast<std::uint32_t>(r);
      block_[2 * p + 1] = static_cast<std::uint32_t>(r >> 32);
    }
    cursor_ = 2 * (acc.consumed - kWordsPerBlock * (used_blocks - 1));
  }
}

void ChaChaPrg::add_to(std::span<Fe> y) { apply<false>(y); }

void ChaChaPrg::sub_from(std::span<Fe> y) { apply<true>(y); }

std::vector<Fe> ChaChaPrg::mask(std::size_t n) {
  std::vector<Fe> out(n);
  add_to(out);
  return out;
}

}  // namespace groupfel::secagg
