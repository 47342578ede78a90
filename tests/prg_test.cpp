#include "secagg/prg.hpp"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <vector>

namespace groupfel::secagg {
namespace {

TEST(Prg, DeterministicForSameKeyAndNonce) {
  ChaChaPrg a(42, 7), b(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Prg, KeySensitivity) {
  ChaChaPrg a(42, 7), b(43, 7);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Prg, NonceSensitivity) {
  ChaChaPrg a(42, 7), b(42, 8);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Prg, FieldElementsInRange) {
  ChaChaPrg prg(5, 1);
  for (int i = 0; i < 5000; ++i) EXPECT_LT(prg.next_fe().value(), kFieldPrime);
}

TEST(Prg, FieldElementsRoughlyUniform) {
  // Chi-square over 8 buckets; bound is very loose but catches gross bias.
  ChaChaPrg prg(6, 2);
  const int n = 80000;
  std::array<int, 8> buckets{};
  for (int i = 0; i < n; ++i)
    ++buckets[static_cast<std::size_t>(
        prg.next_fe().value() / ((kFieldPrime / 8) + 1))];
  const double expected = n / 8.0;
  double chi2 = 0.0;
  for (int b : buckets) chi2 += (b - expected) * (b - expected) / expected;
  EXPECT_LT(chi2, 40.0);  // df=7; 40 is far beyond any sane p-value cut
}

TEST(Prg, MaskVectorLength) {
  ChaChaPrg prg(7, 3);
  const auto mask = prg.mask(257);
  EXPECT_EQ(mask.size(), 257u);
  std::set<std::uint64_t> uniq;
  for (const auto& m : mask) uniq.insert(m.value());
  EXPECT_GT(uniq.size(), 250u);  // no obvious repetition
}

TEST(Prg, StreamDoesNotCycleEarly) {
  ChaChaPrg prg(8, 4);
  std::vector<std::uint64_t> first(64);
  for (auto& v : first) v = prg.next_u64();
  // The next 64 outputs (second ChaCha block onward) must differ.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (prg.next_u64() == first[i]);
  EXPECT_EQ(same, 0);
}

TEST(Prg, BitBalance) {
  ChaChaPrg prg(9, 5);
  std::int64_t pop = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) pop += __builtin_popcountll(prg.next_u64());
  const double mean_bits = static_cast<double>(pop) / n;
  EXPECT_NEAR(mean_bits, 32.0, 0.5);
}

// RFC 8439 §2.3.2 test vector: key 00..1f, nonce 00:00:00:09:00:00:00:4a:
// 00:00:00:00, block counter 1.
constexpr detail::ChaChaBlock kRfcInput = {
    0x61707865, 0x3320646e, 0x79622d32, 0x6b206574, 0x03020100, 0x07060504,
    0x0b0a0908, 0x0f0e0d0c, 0x13121110, 0x17161514, 0x1b1a1918, 0x1f1e1d1c,
    0x00000001, 0x09000000, 0x4a000000, 0x00000000};
constexpr detail::ChaChaBlock kRfcOutput = {
    0xe4e7f110, 0x15593bd1, 0x1fdd0f50, 0xc47120a3, 0xc7f4d1c7, 0x0368c033,
    0x9aaa2204, 0x4e6cd4c3, 0x466482d2, 0x09aa9f07, 0x05d7c214, 0xa2028bd9,
    0xd19c12b5, 0xb94e16de, 0xe883d0cb, 0x4e3c50a2};

// The PRG's block counter is 64-bit over words 12/13 (RFC 8439 keeps word 13
// for the nonce; the known answer only needs word 12).
std::uint64_t counter_of(const detail::ChaChaBlock& s) {
  return static_cast<std::uint64_t>(s[13]) << 32 | s[12];
}

detail::ChaChaBlock with_counter(detail::ChaChaBlock s, std::uint64_t c) {
  s[12] = static_cast<std::uint32_t>(c);
  s[13] = static_cast<std::uint32_t>(c >> 32);
  return s;
}

TEST(PrgKernel, ScalarBlockMatchesRfc8439) {
  EXPECT_EQ(detail::chacha20_block(kRfcInput), kRfcOutput);
}

TEST(PrgKernel, SixteenLaneBlockMatchesRfc8439AndScalar) {
  std::array<detail::ChaChaBlock, detail::kLanes> out{};
  detail::chacha20_blocks16(kRfcInput, out);
  EXPECT_EQ(out[0], kRfcOutput);
  for (std::size_t l = 0; l < detail::kLanes; ++l)
    EXPECT_EQ(out[l], detail::chacha20_block(
                          with_counter(kRfcInput, counter_of(kRfcInput) + l)))
        << "lane " << l;
}

TEST(PrgKernel, SixteenLaneCounterCarriesIntoHighWord) {
  // Lanes straddle the 2^32 wrap of word 12: the carry must reach word 13
  // exactly as the scalar 64-bit counter does.
  const std::uint64_t base = 0xFFFFFFF8ull | (7ull << 32);
  const detail::ChaChaBlock in = with_counter(kRfcInput, base);
  std::array<detail::ChaChaBlock, detail::kLanes> out{};
  detail::chacha20_blocks16(in, out);
  for (std::size_t l = 0; l < detail::kLanes; ++l)
    EXPECT_EQ(out[l], detail::chacha20_block(with_counter(in, base + l)))
        << "lane " << l;
}

TEST(PrgKernel, AcceptFieldElementsRejectsTopValueInOrder) {
  // Words whose top 61 bits equal p = 2^61 - 1 (>= 0xFFFFFFFFFFFFFFF8) are
  // rejected; everything below is kept, in stream order.
  const std::vector<std::uint64_t> raw{
      (1ull << 3) | 5,       0xFFFFFFFFFFFFFFF8ull, 5ull << 3,
      0xFFFFFFFFFFFFFFFFull, 0xFFFFFFFFFFFFFFF7ull, 0xFFFFFFFFFFFFFFFCull,
      0,                     9ull << 3};
  const std::vector<std::uint64_t> kept{1, 5, kFieldPrime - 1, 0, 9};

  std::vector<std::uint64_t> out(raw.size());
  detail::Accepted acc = detail::accept_field_elements(raw, out);
  EXPECT_EQ(acc.written, kept.size());
  EXPECT_EQ(acc.consumed, raw.size());
  out.resize(acc.written);
  EXPECT_EQ(out, kept);

  // A short output stops right after the last accepted word, where the
  // scalar next_fe() loop would stop.
  const std::vector<std::size_t> stop_after{0, 1, 3, 5, 7, 8};
  for (std::size_t want = 0; want <= kept.size(); ++want) {
    std::vector<std::uint64_t> part(want);
    acc = detail::accept_field_elements(raw, part);
    EXPECT_EQ(acc.written, want);
    EXPECT_EQ(acc.consumed, stop_after[want]) << "want " << want;
    for (std::size_t i = 0; i < want; ++i) EXPECT_EQ(part[i], kept[i]);
  }

  // Nothing but rejected words: all of them are consumed, none written.
  const std::vector<std::uint64_t> all_bad{0xFFFFFFFFFFFFFFF8ull,
                                           0xFFFFFFFFFFFFFFF9ull,
                                           0xFFFFFFFFFFFFFFFFull};
  std::vector<std::uint64_t> none(2);
  acc = detail::accept_field_elements(all_bad, none);
  EXPECT_EQ(acc.written, 0u);
  EXPECT_EQ(acc.consumed, all_bad.size());
}

std::vector<Fe> ramp(std::size_t n) {
  std::vector<Fe> y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = Fe(0x9e3779b97f4a7c15ull * (i + 1));
  return y;
}

constexpr std::array<std::size_t, 8> kLengths{0, 1, 7, 8, 127, 128, 129, 8794};
constexpr std::array<int, 3> kPriorCalls{0, 1, 9};

// Runs `bulk` on one PRG and `scalar` on a twin, both first advanced by
// `prior` next_u64() calls, then checks the outputs and that both streams
// continue identically afterwards.
template <typename Bulk, typename Scalar>
void expect_bulk_matches_scalar(Bulk bulk, Scalar scalar) {
  for (const std::size_t n : kLengths) {
    for (const int prior : kPriorCalls) {
      ChaChaPrg fast(0x5eed0000ull + n, 0x90511ull), ref(0x5eed0000ull + n,
                                                          0x90511ull);
      for (int c = 0; c < prior; ++c)
        ASSERT_EQ(fast.next_u64(), ref.next_u64());
      const std::vector<Fe> got = bulk(fast, n);
      const std::vector<Fe> want = scalar(ref, n);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(got[i], want[i]) << "n " << n << " prior " << prior
                                   << " element " << i;
      for (int c = 0; c < 20; ++c)
        ASSERT_EQ(fast.next_u64(), ref.next_u64())
            << "stream diverges after n " << n << " prior " << prior;
    }
  }
}

TEST(PrgKernel, AddToMatchesScalarStream) {
  expect_bulk_matches_scalar(
      [](ChaChaPrg& p, std::size_t n) {
        auto y = ramp(n);
        p.add_to(y);
        return y;
      },
      [](ChaChaPrg& p, std::size_t n) {
        auto y = ramp(n);
        for (auto& v : y) v += p.next_fe();
        return y;
      });
}

TEST(PrgKernel, SubFromMatchesScalarStream) {
  expect_bulk_matches_scalar(
      [](ChaChaPrg& p, std::size_t n) {
        auto y = ramp(n);
        p.sub_from(y);
        return y;
      },
      [](ChaChaPrg& p, std::size_t n) {
        auto y = ramp(n);
        for (auto& v : y) v -= p.next_fe();
        return y;
      });
}

TEST(PrgKernel, MaskMatchesScalarStream) {
  expect_bulk_matches_scalar(
      [](ChaChaPrg& p, std::size_t n) { return p.mask(n); },
      [](ChaChaPrg& p, std::size_t n) {
        std::vector<Fe> y(n);
        for (auto& v : y) v = p.next_fe();
        return y;
      });
}

TEST(PrgKernel, ConsecutiveBulkCallsContinueTheStream) {
  // Uneven pieces leave the stream mid-block and mid-chunk in turn.
  ChaChaPrg fast(11, 12), ref(11, 12);
  auto y = ramp(1000);
  auto want = y;
  std::size_t at = 0;
  for (const std::size_t piece : {3, 130, 5, 256, 1, 127, 478}) {
    fast.add_to(std::span<Fe>(y).subspan(at, piece));
    at += piece;
  }
  ASSERT_EQ(at, y.size());
  for (auto& v : want) v += ref.next_fe();
  EXPECT_EQ(y, want);
  EXPECT_EQ(fast.next_u64(), ref.next_u64());
}

}  // namespace
}  // namespace groupfel::secagg
