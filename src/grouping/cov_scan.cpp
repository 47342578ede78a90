#include "grouping/cov_scan.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

#include "util/check.hpp"

namespace groupfel::grouping {

namespace {

// One register of candidates per step. GCC lowers the compares of a
// generic vector wider than the target's registers to scalar code, so the
// width follows the ISA this TU is built for: 8 lanes on AVX-512, 4 on AVX,
// 2 on baseline SSE2. The slot stride stays a multiple of kCovLanes, and so
// of every width.
#if defined(__AVX512F__)
constexpr std::size_t kVecBytes = 64;
#elif defined(__AVX__)
constexpr std::size_t kVecBytes = 32;
#else
constexpr std::size_t kVecBytes = 16;
#endif
constexpr std::size_t kWidth = kVecBytes / sizeof(double);
static_assert(kCovLanes % kWidth == 0);
typedef double vec_f64 __attribute__((vector_size(kVecBytes)));
typedef std::int64_t vec_i64 __attribute__((vector_size(kVecBytes)));

vec_f64 load(const double* p) {
  vec_f64 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store(double* p, vec_f64 v) { std::memcpy(p, &v, sizeof v); }

vec_f64 splat(double x) {
  vec_f64 v;
  for (std::size_t l = 0; l < kWidth; ++l) v[l] = x;
  return v;
}

// a * b + c. Pass one's operands and results are integers or halves below
// 2^53, so the fused and the separately rounded forms are the same exact
// value; the fused one is used where the ISA has it.
vec_f64 mul_add(vec_f64 a, vec_f64 b, vec_f64 c) {
#if defined(__AVX512F__)
  return (vec_f64)_mm512_fmadd_pd((__m512d)a, (__m512d)b, (__m512d)c);
#elif defined(__FMA__) && defined(__AVX__)
  return (vec_f64)_mm256_fmadd_pd((__m256d)a, (__m256d)b, (__m256d)c);
#else
  return a * b + c;
#endif
}

// Bit l set iff a[l] <= b[l].
unsigned le_mask(vec_f64 a, vec_f64 b) {
#if defined(__AVX512F__)
  return _mm512_cmp_pd_mask((__m512d)a, (__m512d)b, _CMP_LE_OQ);
#elif defined(__AVX__)
  return static_cast<unsigned>(
      _mm256_movemask_pd(_mm256_cmp_pd((__m256d)a, (__m256d)b, _CMP_LE_OQ)));
#elif defined(__SSE2__)
  return static_cast<unsigned>(
      _mm_movemask_pd(_mm_cmple_pd((__m128d)a, (__m128d)b)));
#else
  const vec_i64 le = a <= b;
  unsigned mask = 0;
  for (std::size_t l = 0; l < kWidth; ++l)
    mask |= static_cast<unsigned>(le[l] != 0) << l;
  return mask;
#endif
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kExactBound = 0x1p52;  // m·T² below this keeps V exact
constexpr double kUlp = 0x1p-53;        // u, the unit roundoff

}  // namespace

CovCandidateLanes::CovCandidateLanes(const data::LabelMatrix& matrix,
                                     std::vector<std::size_t> clients)
    : labels_(matrix.num_labels()),
      slots_(clients.size()),
      live_(clients.size()),
      stride_((clients.size() + kCovLanes - 1) / kCovLanes * kCovLanes),
      clients_(std::move(clients)),
      buffer_((labels_ + 4) * stride_ + kCovLanes, 0.0),
      group_(labels_, 0.0) {
  // Start the rows on a 64-byte boundary; the stride keeps every row there.
  const auto address = reinterpret_cast<std::uintptr_t>(buffer_.data());
  offset_ = (64 - address % 64) % 64 / sizeof(double);
  double* const tot = totals();
  double* const half_sq = half_squares();
  for (std::size_t s = 0; s < stride_; ++s) half_sq[s] = kInf;
  for (std::size_t s = 0; s < slots_; ++s) {
    const auto counts = matrix.row(clients_[s]);
    std::size_t total = 0;
    double square = 0.0;
    for (std::size_t j = 0; j < labels_; ++j) {
      const double c = static_cast<double>(counts[j]);
      row(j)[s] = c;
      square += c * c;
      total += counts[j];
    }
    tot[s] = static_cast<double>(total);
    half_sq[s] = square / 2.0;
    max_total_ = std::max(max_total_, total);
  }
  // key_limit_ = max{T : m·T² < 2^52}; m ≤ kMaxKeyedLabels keeps the
  // products below 2^63.
  if (labels_ > 0 && labels_ <= kMaxKeyedLabels) {
    const auto m = static_cast<std::uint64_t>(labels_);
    const auto bound = static_cast<std::uint64_t>(kExactBound);
    auto t = static_cast<std::uint64_t>(
        std::sqrt(kExactBound / static_cast<double>(labels_)));
    while (t > 0 && m * t * t >= bound) --t;
    while (m * (t + 1) * (t + 1) < bound) ++t;
    key_limit_ = t;
  }
  const double delta = (static_cast<double>(labels_) / 2.0 + 5.0) * kUlp;
  const double widen = (1.0 + delta) / (1.0 - delta);
  band_scale_ = widen * widen * (1.0 + 0x1p-40);
}

double CovCandidateLanes::value_at(std::size_t slot,
                                   double group_total) const {
  const double total = group_total + totals()[slot];
  if (total == 0.0) return 0.0;
  const double m = static_cast<double>(labels_);
  const double mu = total / m;
  double s = 0.0;
  for (std::size_t j = 0; j < labels_; ++j) {
    const double d = mu - (group_[j] + row(j)[slot]);
    s += d * d;
  }
  return std::sqrt(s / m) / mu;
}

CovCandidateLanes::Best CovCandidateLanes::argmin(
    std::span<const std::size_t> group_counts, std::size_t group_total) {
  GF_CHECK_EQ(group_counts.size(), labels_,
              "CovCandidateLanes::argmin: label count mismatch");
  double p = 0.0;  // P = Σ g_j²
  for (std::size_t j = 0; j < labels_; ++j) {
    group_[j] = static_cast<double>(group_counts[j]);
    p += group_[j] * group_[j];
  }
  const double g = static_cast<double>(group_total);
  Best out;
  const auto consider = [&](std::size_t s) {
    const double cov = value_at(s, g);
    if (cov < out.cov) out = {s, cov};  // strict: the first minimum stays
  };

  const bool keyed = key_limit_ > 0 && group_total <= key_limit_ &&
                     max_total_ <= key_limit_ - group_total;
  if (!keyed) {
    for (std::size_t s = 0; s < slots_; ++s)
      if (half_squares()[s] != kInf) consider(s);
    return out;
  }

  // Pass one: the exact key (V, T²) of every slot, and per lane the slot
  // with the least V / T². key_v_ first accumulates (P + Q_c) / 2 + D_c,
  // four labels per pass over the slots (every partial sum is an exact
  // half-integer), then becomes V = 2m·key_v_ − T². A masked slot's
  // Q_c / 2 = +inf makes V = +inf, which never wins a lane and never enters
  // the band. T = 0 gives V = T² = 0: it never wins a lane either, but
  // always passes the band test, and value_at returns value_with's 0 for it.
  const std::size_t n = slots_;
  double* const acc = key_v();
  double* const t2s = key_t2();
  const double* const half_sq = half_squares();
  const double* const tot = totals();
  const vec_f64 half_p = splat(p / 2.0);
  for (std::size_t s0 = 0; s0 < n; s0 += kWidth)
    store(acc + s0, load(half_sq + s0) + half_p);
  std::size_t j = 0;
  for (; j + 4 <= labels_; j += 4) {
    const vec_f64 g0 = splat(group_[j]), g1 = splat(group_[j + 1]);
    const vec_f64 g2 = splat(group_[j + 2]), g3 = splat(group_[j + 3]);
    const double* const c0 = row(j);
    const double* const c1 = row(j + 1);
    const double* const c2 = row(j + 2);
    const double* const c3 = row(j + 3);
    for (std::size_t s0 = 0; s0 < n; s0 += kWidth) {
      vec_f64 a = mul_add(load(c0 + s0), g0, load(acc + s0));
      a = mul_add(load(c1 + s0), g1, a);
      a = mul_add(load(c2 + s0), g2, a);
      store(acc + s0, mul_add(load(c3 + s0), g3, a));
    }
  }
  for (; j < labels_; ++j) {
    const vec_f64 gj = splat(group_[j]);
    const double* const c = row(j);
    for (std::size_t s0 = 0; s0 < n; s0 += kWidth)
      store(acc + s0, mul_add(load(c + s0), gj, load(acc + s0)));
  }
  const double m = static_cast<double>(labels_);
  const vec_f64 two_m = splat(2.0 * m);
  const vec_f64 gt = splat(g);
  vec_f64 best_v = splat(1.0);  // key 1/0 = +inf until a slot scores
  vec_f64 best_t2{};
  for (std::size_t s0 = 0; s0 < n; s0 += kWidth) {
    const vec_f64 t = load(tot + s0) + gt;
    const vec_f64 t2 = t * t;
    const vec_f64 v = mul_add(two_m, load(acc + s0), -t2);
    store(acc + s0, v);
    store(t2s + s0, t2);
    const vec_i64 lower = v * best_t2 < best_v * t2;  // strict: first wins
    best_v = lower ? v : best_v;
    best_t2 = lower ? t2 : best_t2;
  }
  // The least key k_b = V_b / T_b² over the lanes; a lane that scored no
  // slot with T > 0 holds 1/0 = +inf. Rounding in the cross products may
  // leave a near-minimum in a lane; the band below is sound for any b.
  const vec_f64 lane_key = best_v / best_t2;
  double k_b = lane_key[0];
  for (std::size_t l = 1; l < kWidth; ++l) k_b = std::min(k_b, lane_key[l]);

  // Pass two: the band E_c ≤ R = (E_b + u)(1 + δ)/(1 − δ), tested as
  // V_c ≤ R²·T_c² with R² bounded above without a sqrt: 2u·E_b ≤
  // 2^-26·E_b² + 2^26·u², so (E_b + u)² ≤ k_b·(1 + 2^-26) + 2^-79. The
  // 2^-40 slack in band_scale_ covers the ~10 roundings (each ≤ u) of the
  // division, this bound and the test's product many times over; a wider
  // band only costs value_at calls. With no b (every live T is 0) R² = 0
  // flags just the V = 0 slots, which include every live one.
  const double r2 =
      k_b < kInf ? (k_b * (1.0 + 0x1p-26) + 0x1p-79) * band_scale_ : 0.0;
  const vec_f64 band = splat(r2);
  for (std::size_t s0 = 0; s0 < n; s0 += kWidth) {
    for (unsigned in = le_mask(load(acc + s0), band * load(t2s + s0));
         in != 0; in &= in - 1)
      consider(s0 + static_cast<std::size_t>(__builtin_ctz(in)));
  }
  return out;
}

std::size_t CovCandidateLanes::nth_live_slot(std::size_t pos) const {
  GF_CHECK(pos < live_, "CovCandidateLanes: nth_live_slot(", pos,
           ") with only ", live_, " live candidates");
  const double* const half_sq = half_squares();
  for (std::size_t s = 0;; ++s) {
    if (half_sq[s] == kInf) continue;
    if (pos == 0) return s;
    --pos;
  }
}

void CovCandidateLanes::take(std::size_t slot) {
  GF_CHECK(slot < slots_ && half_squares()[slot] != kInf,
           "CovCandidateLanes: take of a dead slot ", slot);
  half_squares()[slot] = kInf;
  --live_;
  if (live_ * 2 < slots_) compact();
}

void CovCandidateLanes::compact() {
  double* const tot = totals();
  double* const half_sq = half_squares();
  std::size_t w = 0;
  for (std::size_t s = 0; s < slots_; ++s) {
    if (half_sq[s] == kInf) continue;
    for (std::size_t j = 0; j < labels_; ++j) row(j)[w] = row(j)[s];
    clients_[w] = clients_[s];
    tot[w] = tot[s];
    const double half_square = half_sq[s];
    half_sq[s] = kInf;
    half_sq[w++] = half_square;
  }
  slots_ = w;
  clients_.resize(w);
}

}  // namespace groupfel::grouping
