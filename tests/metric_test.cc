#include "metric/metric.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "metric/levenshtein.h"

namespace dd {
namespace {

TEST(LevenshteinTest, KnownDistances) {
  LevenshteinMetric lev;
  EXPECT_DOUBLE_EQ(lev.Distance("", ""), 0.0);
  EXPECT_DOUBLE_EQ(lev.Distance("abc", "abc"), 0.0);
  EXPECT_DOUBLE_EQ(lev.Distance("kitten", "sitting"), 3.0);
  EXPECT_DOUBLE_EQ(lev.Distance("flaw", "lawn"), 2.0);
  EXPECT_DOUBLE_EQ(lev.Distance("", "abc"), 3.0);
  EXPECT_DOUBLE_EQ(lev.Distance("abc", ""), 3.0);
}

TEST(LevenshteinTest, PaperRegionValues) {
  // "Chicago" vs "Chicago, IL": 4 inserts.
  LevenshteinMetric lev;
  EXPECT_DOUBLE_EQ(lev.Distance("Chicago", "Chicago, IL"), 4.0);
  EXPECT_DOUBLE_EQ(lev.Distance("Boston, MA", "Chicago, MA"), 7.0);
}

TEST(LevenshteinTest, BoundedMatchesExactWithinCap) {
  LevenshteinMetric lev;
  Rng rng(5);
  auto random_string = [&](std::size_t max_len) {
    std::string s(rng.NextBounded(max_len + 1), 'a');
    for (char& c : s) c = static_cast<char>('a' + rng.NextBounded(5));
    return s;
  };
  for (int trial = 0; trial < 300; ++trial) {
    std::string a = random_string(14);
    std::string b = random_string(14);
    double exact = lev.Distance(a, b);
    for (double cap : {0.0, 1.0, 3.0, 8.0, 20.0}) {
      double bounded = lev.BoundedDistance(a, b, cap);
      if (exact <= cap) {
        EXPECT_DOUBLE_EQ(bounded, exact) << a << " vs " << b;
      } else {
        EXPECT_GT(bounded, cap) << a << " vs " << b;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Differential kernel tests (src/metric/levenshtein.h): lev::Pattern,
// one value against many and one pair at a time, must return the
// reference DP's distance whenever it is <= cap and exactly cap + 1
// otherwise. Lengths straddle the one-word and block boundaries on each
// side independently.

namespace {

std::string RandomBytes(Rng& rng, std::size_t length, int alphabet) {
  std::string s(length, '\0');
  for (char& c : s) {
    // Include non-ASCII bytes: the kernels are byte-based and must not
    // care about sign or encoding.
    c = static_cast<char>(rng.NextBounded(static_cast<std::uint64_t>(alphabet)));
  }
  return s;
}

// `a` cut or grown to `length`, then given a few substitutions: a text
// within a small distance of `a`, so the caps below are not all
// exceeded.
std::string NearBytes(Rng& rng, const std::string& a, std::size_t length,
                      int alphabet) {
  std::string s = a.substr(0, length);
  s += RandomBytes(rng, length - s.size(), alphabet);
  const std::uint64_t edits = s.empty() ? 0 : rng.NextBounded(5);
  for (std::uint64_t e = 0; e < edits; ++e) {
    s[rng.NextBounded(s.size())] = static_cast<char>(
        rng.NextBounded(static_cast<std::uint64_t>(alphabet)));
  }
  return s;
}

constexpr std::size_t kKernelLengths[] = {0, 1, 63, 64, 65, 127, 128, 129, 200};

std::vector<std::size_t> KernelCaps(std::size_t exact) {
  std::vector<std::size_t> caps;
  for (std::size_t cap = 0; cap <= 11; ++cap) caps.push_back(cap);  // dmax+1
  caps.push_back(exact);
  caps.push_back(1000);
  caps.push_back(std::numeric_limits<std::size_t>::max());
  return caps;
}

std::size_t Expected(std::size_t exact, std::size_t cap) {
  return exact <= cap ? exact : cap + 1;
}

}  // namespace

TEST(LevenshteinKernelTest, PatternMatchesReferenceDp) {
  Rng rng(71);
  for (const int alphabet : {4, 256}) {
    for (const std::size_t la : kKernelLengths) {
      const std::string a = RandomBytes(rng, la, alphabet);
      // One pattern serves every text below, in order, so state left
      // behind by one text (block deltas) must not leak into the next.
      lev::Pattern pattern(a);
      for (const std::size_t lb : kKernelLengths) {
        for (const std::string& b :
             {RandomBytes(rng, lb, alphabet), NearBytes(rng, a, lb, alphabet)}) {
          const std::size_t exact = lev::ReferenceDp(a, b);
          for (const std::size_t cap : KernelCaps(exact)) {
            ASSERT_EQ(pattern.BoundedDistance(b, cap), Expected(exact, cap))
                << "|a|=" << la << " |b|=" << lb << " cap=" << cap
                << " alphabet=" << alphabet;
            ASSERT_EQ(lev::BoundedDistance(a, b, cap), Expected(exact, cap))
                << "|a|=" << la << " |b|=" << lb << " cap=" << cap;
            ASSERT_EQ(lev::BoundedDistance(b, a, cap), Expected(exact, cap))
                << "|a|=" << la << " |b|=" << lb << " cap=" << cap;
          }
        }
      }
    }
  }
}

TEST(LevenshteinKernelTest, RandomLengthsMatchReferenceDp) {
  Rng rng(72);
  LevenshteinMetric metric;
  for (int trial = 0; trial < 400; ++trial) {
    const int alphabet = trial % 2 == 0 ? 4 : 256;
    const std::string a = RandomBytes(rng, rng.NextBounded(201), alphabet);
    lev::Pattern pattern(a);
    for (int k = 0; k < 4; ++k) {
      const std::size_t lb = rng.NextBounded(201);
      const std::string b = k % 2 == 0 ? RandomBytes(rng, lb, alphabet)
                                       : NearBytes(rng, a, lb, alphabet);
      const std::size_t exact = lev::ReferenceDp(a, b);
      ASSERT_EQ(metric.Distance(a, b), static_cast<double>(exact))
          << "trial " << trial;
      for (const std::size_t cap : KernelCaps(exact)) {
        ASSERT_EQ(pattern.BoundedDistance(b, cap), Expected(exact, cap))
            << "trial " << trial << " cap=" << cap;
      }
    }
  }
}

TEST(LevenshteinKernelTest, EdgeLengths) {
  const std::string empty;
  const std::string s63(63, 'x');
  const std::string s64(64, 'x');
  const std::string s65(65, 'x');
  const std::size_t kNoCap = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(lev::ReferenceDp(empty, empty), 0u);
  EXPECT_EQ(lev::BoundedDistance(empty, empty, 0), 0u);
  EXPECT_EQ(lev::BoundedDistance(empty, s65, kNoCap), 65u);
  EXPECT_EQ(lev::BoundedDistance(s63, s64, kNoCap), 1u);
  EXPECT_EQ(lev::BoundedDistance(s64, s64, 0), 0u);
  EXPECT_EQ(lev::BoundedDistance(s64, s65, 0), 1u);  // cap + 1
  EXPECT_EQ(lev::BoundedDistance(s64, s65, 1), 1u);
  EXPECT_EQ(lev::BoundedDistance(empty, s65, 100), 65u);
  EXPECT_EQ(lev::Pattern(s65).BoundedDistance(empty, 3), 4u);
  EXPECT_EQ(lev::Pattern(empty).BoundedDistance(s65, 100), 65u);
  EXPECT_EQ(lev::Pattern(s65).BoundedDistance(s64 + "y", kNoCap), 1u);
}

// LevenshteinMetric::BoundedDistance, a real cap over the integer
// kernel, is level-exact: every return value buckets to the same dmax
// level the reference distance would. Full dmax band sweep per pair.
TEST(LevenshteinKernelTest, BoundedDistanceLevelEquivalent) {
  LevenshteinMetric metric;
  Rng rng(73);
  const int dmax = 10;
  for (int trial = 0; trial < 600; ++trial) {
    const std::string a = RandomBytes(rng, rng.NextBounded(201), 5);
    const std::string b = RandomBytes(rng, rng.NextBounded(201), 5);
    const double exact = metric.Distance(a, b);
    for (int cap_level = 0; cap_level <= dmax; ++cap_level) {
      const double cap = static_cast<double>(cap_level);
      const double bounded = metric.BoundedDistance(a, b, cap);
      if (exact <= cap) {
        ASSERT_EQ(bounded, exact) << "cap=" << cap << " trial " << trial;
      } else {
        ASSERT_GT(bounded, cap) << "cap=" << cap << " trial " << trial;
      }
    }
    // Huge and fractional caps exercise the cap >= max_len fast path
    // and the floor semantics.
    ASSERT_EQ(metric.BoundedDistance(a, b, 1e9), exact);
    const double frac = metric.BoundedDistance(a, b, 2.7);
    if (exact <= 2.0) {
      ASSERT_EQ(frac, exact);
    } else {
      ASSERT_GT(frac, 2.7);
    }
  }
}

TEST(LevenshteinKernelTest, NanCapActsAsZero) {
  // A NaN cap once reached a double -> size_t conversion (undefined).
  LevenshteinMetric metric;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(metric.BoundedDistance("abc", "abc", nan), 0.0);
  EXPECT_EQ(metric.BoundedDistance("abc", "abd", nan), 1.0);
  EXPECT_EQ(metric.BoundedDistance("abc", "abd", -3.0), 1.0);
  const std::string_view bs[] = {"abc", "abd", std::string_view()};
  double out[3] = {};
  metric.BoundedDistanceMany("abc", bs, nan, out);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 1.0);
  EXPECT_EQ(out[2], 1.0);
}

// Every registered metric's BoundedDistanceMany (overridden or the
// default loop) returns exactly what per-call BoundedDistance does.
class BoundedDistanceManyTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(BoundedDistanceManyTest, EqualsPerCallBoundedDistance) {
  auto metric = MetricRegistry::Default().Create(GetParam());
  ASSERT_TRUE(metric.ok());
  Rng rng(74);
  std::vector<std::string> values = {
      "", "a", "abc", "West Wood Hotel", "Fifth Avenue, 61st Street",
      "5th Avenue, 61st St.", "Chicago, IL", "chicago", "1995", "1996.5",
      "-3", "nan", "inf", "infinity", "#$", "a#b$c"};
  for (int k = 0; k < 12; ++k) {
    const std::string base = RandomBytes(rng, 60 + rng.NextBounded(140), 4);
    values.push_back(base);
    values.push_back(NearBytes(rng, base, base.size() + rng.NextBounded(3), 4));
  }
  std::vector<std::string_view> views(values.begin(), values.end());
  std::vector<double> out(views.size());
  for (const double cap : {0.0, 1.0, 2.7, 10.0, 1e9}) {
    for (const std::string& a : values) {
      (*metric)->BoundedDistanceMany(a, views, cap, out);
      for (std::size_t k = 0; k < views.size(); ++k) {
        ASSERT_EQ(out[k], (*metric)->BoundedDistance(a, views[k], cap))
            << GetParam() << " cap=" << cap << " k=" << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, BoundedDistanceManyTest,
                         ::testing::Values("levenshtein", "qgram2", "qgram3",
                                           "jaccard", "cosine",
                                           "numeric_abs"));

// Metric axioms checked across all string metrics.
class MetricAxiomTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MetricAxiomTest, NonNegativeSymmetricIdentity) {
  auto metric = MetricRegistry::Default().Create(GetParam());
  ASSERT_TRUE(metric.ok());
  const std::vector<std::string> values = {
      "", "a", "abc", "West Wood Hotel", "Fifth Avenue, 61st Street",
      "5th Avenue, 61st St.", "Chicago, IL", "chicago"};
  for (const auto& a : values) {
    EXPECT_DOUBLE_EQ(metric.value()->Distance(a, a), 0.0) << a;
    for (const auto& b : values) {
      double ab = metric.value()->Distance(a, b);
      double ba = metric.value()->Distance(b, a);
      EXPECT_GE(ab, 0.0);
      EXPECT_DOUBLE_EQ(ab, ba) << a << " vs " << b;
    }
  }
}

TEST_P(MetricAxiomTest, TriangleInequalityOnTextMetrics) {
  // Levenshtein, q-gram (multiset symmetric difference) and Jaccard are
  // true metrics. Cosine distance is not guaranteed to satisfy the
  // triangle inequality, so it is excluded here.
  if (GetParam() == "cosine") GTEST_SKIP() << "cosine is not a metric";
  auto metric = MetricRegistry::Default().Create(GetParam());
  ASSERT_TRUE(metric.ok());
  const std::vector<std::string> values = {"abcd", "abed", "xbed", "xyed",
                                           "hello world", "hello there"};
  for (const auto& a : values) {
    for (const auto& b : values) {
      for (const auto& c : values) {
        EXPECT_LE(metric.value()->Distance(a, c),
                  metric.value()->Distance(a, b) +
                      metric.value()->Distance(b, c) + 1e-9)
            << a << "," << b << "," << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllStringMetrics, MetricAxiomTest,
                         ::testing::Values("levenshtein", "qgram2", "qgram3",
                                           "jaccard", "cosine"));

TEST(QGramTest, KnownProfileDifference) {
  QGramMetric q2(2);
  // Identical strings.
  EXPECT_DOUBLE_EQ(q2.Distance("abc", "abc"), 0.0);
  // One substitution changes a bounded number of q-grams.
  EXPECT_GT(q2.Distance("abc", "abd"), 0.0);
  EXPECT_LE(q2.Distance("abc", "abd"), 4.0);
}

TEST(QGramTest, BoundsEditDistanceFromBelowScaled) {
  // |G(a)| - based q-gram distance <= 2*q*edit_distance.
  QGramMetric q2(2);
  LevenshteinMetric lev;
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    std::string a = "prefix string value";
    std::string b = a;
    int edits = static_cast<int>(rng.NextBounded(4));
    for (int e = 0; e < edits && !b.empty(); ++e) {
      b[rng.NextBounded(b.size())] = 'z';
    }
    EXPECT_LE(q2.Distance(a, b), 2.0 * 2.0 * lev.Distance(a, b) + 1e-9);
  }
}

// The hash-map formulation the sorted-profile merge replaced: the
// oracle for bit-identical q-gram distances.
double HashMapQGramDistance(std::string_view a, std::string_view b,
                            std::size_t q) {
  if (a == b) return 0.0;
  auto count = [q](std::string_view s) {
    std::unordered_map<std::string, int> counts;
    std::string padded(q - 1, '#');
    padded.append(s);
    padded.append(q - 1, '$');
    for (std::size_t i = 0; i + q <= padded.size(); ++i) {
      ++counts[padded.substr(i, q)];
    }
    return counts;
  };
  const auto ca = count(a);
  const auto cb = count(b);
  long total = 0;
  for (const auto& [gram, n] : ca) total += n;
  for (const auto& [gram, n] : cb) total += n;
  long shared = 0;
  for (const auto& [gram, n] : ca) {
    auto it = cb.find(gram);
    if (it != cb.end()) shared += std::min(n, it->second);
  }
  return static_cast<double>(total - 2 * shared);
}

TEST(QGramTest, MatchesHashMapFormula) {
  Rng rng(75);
  for (std::size_t q = 1; q <= 8; ++q) {
    QGramMetric metric(q);
    std::vector<std::string> values = {"", "a", "##", "$$", "a#$b"};
    for (int k = 0; k < 20; ++k) {
      values.push_back(RandomBytes(rng, rng.NextBounded(40), k % 2 ? 4 : 256));
    }
    values.push_back(std::string("#\0$", 3));
    const std::vector<std::string_view> views(values.begin(), values.end());
    std::vector<double> out(views.size());
    for (const std::string& a : values) {
      metric.BoundedDistanceMany(a, views, 10.0, out);
      for (std::size_t k = 0; k < values.size(); ++k) {
        const double expected = HashMapQGramDistance(a, values[k], q);
        ASSERT_EQ(metric.Distance(a, values[k]), expected) << "q=" << q;
        ASSERT_EQ(out[k], expected) << "q=" << q;
      }
    }
  }
}

TEST(JaccardTest, KnownValues) {
  JaccardMetric j;
  EXPECT_DOUBLE_EQ(j.Distance("a b c", "a b c"), 0.0);
  EXPECT_DOUBLE_EQ(j.Distance("a b", "c d"), 1.0);
  EXPECT_NEAR(j.Distance("a b c", "b c d"), 0.5, 1e-12);  // 2/4 shared
  EXPECT_DOUBLE_EQ(j.Distance("", ""), 0.0);
  EXPECT_DOUBLE_EQ(j.Distance("x", ""), 1.0);
  EXPECT_DOUBLE_EQ(j.Distance("A b", "a B"), 0.0);  // Case-folded tokens.
}

TEST(CosineTest, KnownValues) {
  CosineMetric c;
  EXPECT_DOUBLE_EQ(c.Distance("a b", "a b"), 0.0);
  EXPECT_DOUBLE_EQ(c.Distance("a", "b"), 1.0);
  // Orthogonal halves: cos = 1/2.
  EXPECT_NEAR(c.Distance("a b", "a c"), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(c.Distance("", ""), 0.0);
  EXPECT_DOUBLE_EQ(c.Distance("x", ""), 1.0);
}

TEST(CosineTest, TermFrequencyWeighting) {
  CosineMetric c;
  // "a a b" = (2,1), "a b b" = (1,2): cos = 4/5.
  EXPECT_NEAR(c.Distance("a a b", "a b b"), 1.0 - 0.8, 1e-12);
}

TEST(NumericAbsTest, ParsesAndDiffs) {
  NumericAbsMetric m;
  EXPECT_DOUBLE_EQ(m.Distance("3", "7"), 4.0);
  EXPECT_DOUBLE_EQ(m.Distance("-2.5", "2.5"), 5.0);
  EXPECT_DOUBLE_EQ(m.Distance("1995", "1995"), 0.0);
  EXPECT_TRUE(std::isinf(m.Distance("abc", "3")));
  EXPECT_DOUBLE_EQ(m.Distance("abc", "abc"), 0.0);  // Equal strings.
}

TEST(NumericAbsTest, NonNumberDifferenceIsInfinitelyFar) {
  // Both parse, but the difference is NaN; bucketing used to clamp it to
  // the "identical" level 0.
  NumericAbsMetric m;
  EXPECT_TRUE(std::isinf(m.Distance("nan", "5")));
  EXPECT_TRUE(std::isinf(m.Distance("inf", "infinity")));
  EXPECT_TRUE(std::isinf(m.Distance("inf", "5")));
  EXPECT_DOUBLE_EQ(m.Distance("nan", "nan"), 0.0);  // Equal strings.
}

TEST(RegistryTest, BuiltinsPresent) {
  auto names = MetricRegistry::Default().Names();
  for (const char* expected :
       {"cosine", "jaccard", "levenshtein", "numeric_abs", "qgram2",
        "qgram3"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(RegistryTest, CreateUnknownFails) {
  EXPECT_EQ(MetricRegistry::Default().Create("nope").status().code(),
            StatusCode::kNotFound);
}

TEST(RegistryTest, DuplicateRegistrationFails) {
  MetricRegistry local;
  EXPECT_TRUE(local
                  .Register("custom",
                            [] { return std::make_unique<LevenshteinMetric>(); })
                  .ok());
  EXPECT_EQ(local
                .Register("custom",
                          [] { return std::make_unique<LevenshteinMetric>(); })
                .code(),
            StatusCode::kAlreadyExists);
}

TEST(RegistryTest, NormalizedFlags) {
  EXPECT_FALSE(LevenshteinMetric().is_normalized());
  EXPECT_FALSE(QGramMetric(2).is_normalized());
  EXPECT_TRUE(JaccardMetric().is_normalized());
  EXPECT_TRUE(CosineMetric().is_normalized());
}

}  // namespace
}  // namespace dd
