#include "metric/levenshtein.h"

#include <algorithm>
#include <limits>

#include "metric/metric.h"

namespace dd {

namespace lev {

std::size_t ReferenceDp(std::string_view a, std::string_view b) {
  if (a == b) return 0;
  if (a.empty()) return b.size();
  if (b.empty()) return a.size();
  // Keep the shorter string as the row to bound memory by
  // min(|a|, |b|) + 1.
  if (a.size() < b.size()) std::swap(a, b);
  std::vector<std::uint32_t> prev(b.size() + 1);
  std::vector<std::uint32_t> cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) {
    prev[j] = static_cast<std::uint32_t>(j);
  }
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = static_cast<std::uint32_t>(i);
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::uint32_t sub = prev[j - 1] + (a[i - 1] != b[j - 1] ? 1 : 0);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

namespace {

constexpr std::uint64_t kHighBit = std::uint64_t{1} << 63;

// Clamps *cap to the largest possible distance, max(m, n), and decides
// the pairs whose answer needs no column step: the length difference
// exceeds the cap, or the pattern is empty. Returns true with *result
// set when it decided.
bool DecidedByLengths(std::size_t m, std::size_t n, std::size_t* cap,
                      std::size_t* result) {
  *cap = std::min(*cap, std::max(m, n));
  const std::size_t diff = m > n ? m - n : n - m;
  if (diff > *cap) {
    *result = *cap + 1;
    return true;
  }
  if (m == 0) {
    *result = n;
    return true;
  }
  return false;
}

// Single-word kernel, 1 <= m <= 64. Bits of vp above m stay set and
// never reach the score bit: additions carry and shifts move upward.
std::size_t OneWord(const std::uint64_t* peq, std::size_t m,
                    std::string_view text, std::size_t cap) {
  const std::uint64_t last = std::uint64_t{1} << (m - 1);
  const std::size_t limit = cap + text.size();
  std::uint64_t vp = ~std::uint64_t{0};
  std::uint64_t vn = 0;
  std::size_t score = m;
  std::size_t j = 0;
  for (const char c : text) {
    const std::uint64_t eq = peq[static_cast<unsigned char>(c)];
    const std::uint64_t d0 = (((eq & vp) + vp) ^ vp) | eq | vn;
    std::uint64_t hp = vn | ~(d0 | vp);
    std::uint64_t hn = d0 & vp;
    score += (hp & last) != 0;
    score -= (hn & last) != 0;
    hp = (hp << 1) | 1;
    hn <<= 1;
    vp = hn | ~(d0 | hp);
    vn = d0 & hp;
    if (score + ++j > limit) return cap + 1;
  }
  return score;
}

// Block kernel, m > 64: the pattern's rows are split into `words`
// 64-row blocks, and each block passes its bottom horizontal delta to
// the block below as the carry-in of its top row.
std::size_t Blocks(const std::uint64_t* peq, std::size_t m, std::size_t words,
                   std::string_view text, std::size_t cap, std::uint64_t* vp,
                   std::uint64_t* vn) {
  std::fill(vp, vp + words, ~std::uint64_t{0});
  std::fill(vn, vn + words, std::uint64_t{0});
  const std::uint64_t last = std::uint64_t{1} << ((m - 1) % 64);
  const std::size_t limit = cap + text.size();
  std::size_t score = m;
  std::size_t j = 0;
  for (const char c : text) {
    const std::uint64_t* eqs = peq + static_cast<unsigned char>(c) * words;
    // Row 0 of the DP rises by one per column: carry-in +1.
    std::uint64_t hp_in = 1;
    std::uint64_t hn_in = 0;
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t pv = vp[w];
      const std::uint64_t mv = vn[w];
      const std::uint64_t xv = eqs[w] | mv;
      const std::uint64_t eq = eqs[w] | hn_in;
      const std::uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
      std::uint64_t ph = mv | ~(xh | pv);
      std::uint64_t mh = pv & xh;
      const std::uint64_t out_bit = w + 1 == words ? last : kHighBit;
      const std::uint64_t hp_out = (ph & out_bit) != 0;
      const std::uint64_t hn_out = (mh & out_bit) != 0;
      ph = (ph << 1) | hp_in;
      mh = (mh << 1) | hn_in;
      vp[w] = mh | ~(xv | ph);
      vn[w] = ph & xv;
      hp_in = hp_out;
      hn_in = hn_out;
    }
    score += hp_in;
    score -= hn_in;
    if (score + ++j > limit) return cap + 1;
  }
  return score;
}

}  // namespace

Pattern::Pattern(std::string_view pattern)
    : m_(pattern.size()), words_(std::max<std::size_t>(1, (m_ + 63) / 64)) {
  peq_.assign(256 * words_, 0);
  for (std::size_t i = 0; i < m_; ++i) {
    peq_[static_cast<unsigned char>(pattern[i]) * words_ + i / 64] |=
        std::uint64_t{1} << (i % 64);
  }
  if (words_ > 1) {
    vp_.resize(words_);
    vn_.resize(words_);
  }
}

std::size_t Pattern::BoundedDistance(std::string_view text, std::size_t cap) {
  std::size_t result = 0;
  if (DecidedByLengths(m_, text.size(), &cap, &result)) return result;
  if (words_ == 1) return OneWord(peq_.data(), m_, text, cap);
  return Blocks(peq_.data(), m_, words_, text, cap, vp_.data(), vn_.data());
}

std::size_t BoundedDistance(std::string_view a, std::string_view b,
                            std::size_t cap) {
  if (a == b) return 0;
  if (a.size() > b.size()) std::swap(a, b);
  if (a.size() > 64) return Pattern(a).BoundedDistance(b, cap);
  std::size_t result = 0;
  if (DecidedByLengths(a.size(), b.size(), &cap, &result)) return result;
  std::uint64_t peq[256] = {};
  for (std::size_t i = 0; i < a.size(); ++i) {
    peq[static_cast<unsigned char>(a[i])] |= std::uint64_t{1} << i;
  }
  return OneWord(peq, a.size(), b, cap);
}

}  // namespace lev

namespace {

// The kernels' integer cap for a real cap >= 0: floor(cap), because an
// integer distance d satisfies d <= cap exactly when d <= floor(cap).
// Caps at or above the longer length cannot be exceeded; they map to
// that length, which also keeps the double -> size_t conversion in
// range.
std::size_t KernelCap(double cap, std::size_t max_len) {
  if (cap >= static_cast<double>(max_len)) return max_len;
  return static_cast<std::size_t>(cap);
}

// A NaN or negative cap acts as 0.
double SanitizeCap(double cap) { return cap >= 0.0 ? cap : 0.0; }

double FromKernel(std::size_t d, std::size_t kernel_cap, double cap) {
  return d > kernel_cap ? cap + 1.0 : static_cast<double>(d);
}

}  // namespace

double LevenshteinMetric::Distance(std::string_view a,
                                   std::string_view b) const {
  return static_cast<double>(
      lev::BoundedDistance(a, b, std::numeric_limits<std::size_t>::max()));
}

double LevenshteinMetric::BoundedDistance(std::string_view a,
                                          std::string_view b,
                                          double cap) const {
  cap = SanitizeCap(cap);
  const std::size_t kernel_cap = KernelCap(cap, std::max(a.size(), b.size()));
  return FromKernel(lev::BoundedDistance(a, b, kernel_cap), kernel_cap, cap);
}

void LevenshteinMetric::BoundedDistanceMany(
    std::string_view a, std::span<const std::string_view> bs, double cap,
    std::span<double> out) const {
  cap = SanitizeCap(cap);
  lev::Pattern pattern(a);
  for (std::size_t k = 0; k < bs.size(); ++k) {
    const std::size_t kernel_cap =
        KernelCap(cap, std::max(a.size(), bs[k].size()));
    out[k] = FromKernel(pattern.BoundedDistance(bs[k], kernel_cap),
                        kernel_cap, cap);
  }
}

}  // namespace dd
