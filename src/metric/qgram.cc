#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "metric/metric.h"

namespace dd {

QGramMetric::QGramMetric(std::size_t q) : q_(q) {
  DD_CHECK_GE(q, 1u);
  DD_CHECK_LE(q, 8u);  // A gram packs into one 64-bit word.
}

namespace {

// Sets *grams to the sorted q-grams of `s` padded with q-1 leading '#'
// and trailing '$' sentinels (the standard construction from Gravano et
// al.), each gram's bytes packed into one word. A rolling window over
// the padded sequence replaces materialising it.
void BuildProfile(std::string_view s, std::size_t q,
                  std::vector<std::uint64_t>* grams) {
  grams->clear();
  const std::uint64_t mask =
      q == 8 ? ~std::uint64_t{0} : (std::uint64_t{1} << (8 * q)) - 1;
  std::uint64_t window = 0;
  std::size_t fed = 0;
  auto feed = [&](unsigned char c) {
    window = ((window << 8) | c) & mask;
    if (++fed >= q) grams->push_back(window);
  };
  for (std::size_t i = 1; i < q; ++i) feed('#');
  for (const char c : s) feed(static_cast<unsigned char>(c));
  for (std::size_t i = 1; i < q; ++i) feed('$');
  std::sort(grams->begin(), grams->end());
}

// Multiset symmetric difference of two sorted profiles:
// |A| + |B| - 2 |A ∩ B|, with the intersection counted by one merge.
double ProfileDistance(const std::vector<std::uint64_t>& x,
                       const std::vector<std::uint64_t>& y) {
  std::size_t shared = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < x.size() && j < y.size()) {
    if (x[i] < y[j]) {
      ++i;
    } else if (y[j] < x[i]) {
      ++j;
    } else {
      ++shared;
      ++i;
      ++j;
    }
  }
  return static_cast<double>(x.size() + y.size() - 2 * shared);
}

}  // namespace

double QGramMetric::Distance(std::string_view a, std::string_view b) const {
  if (a == b) return 0.0;
  std::vector<std::uint64_t> ga;
  std::vector<std::uint64_t> gb;
  BuildProfile(a, q_, &ga);
  BuildProfile(b, q_, &gb);
  return ProfileDistance(ga, gb);
}

void QGramMetric::BoundedDistanceMany(std::string_view a,
                                      std::span<const std::string_view> bs,
                                      double cap,
                                      std::span<double> out) const {
  (void)cap;
  std::vector<std::uint64_t> ga;
  std::vector<std::uint64_t> gb;
  BuildProfile(a, q_, &ga);
  for (std::size_t k = 0; k < bs.size(); ++k) {
    BuildProfile(bs[k], q_, &gb);
    out[k] = ProfileDistance(ga, gb);
  }
}

}  // namespace dd
