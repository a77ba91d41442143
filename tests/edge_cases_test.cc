// Edge cases and failure injection across the pipeline: degenerate
// relations, extreme thresholds, single-level domains, saturated or
// empty matching relations, and malformed external inputs.

#include <gtest/gtest.h>

#include "core/determiner.h"
#include "data/corruptor.h"
#include "data/csv.h"
#include "data/generators.h"
#include "detect/detection_eval.h"
#include "detect/violation_detector.h"
#include "matching/builder.h"
#include "metric/metric.h"
#include "tests/test_util.h"

namespace dd {
namespace {

TEST(EdgeCaseTest, EmptyRelationYieldsEmptyMatching) {
  Schema schema({{"a", AttributeType::kString}, {"b", AttributeType::kString}});
  Relation empty(schema);
  MatchingOptions opts;
  auto m = BuildMatchingRelation(empty, {"a", "b"}, opts);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->num_tuples(), 0u);
}

TEST(EdgeCaseTest, SingleRowRelationHasNoPairs) {
  Schema schema({{"a", AttributeType::kString}});
  Relation one(schema);
  ASSERT_TRUE(one.AddRow({"x"}).ok());
  MatchingOptions opts;
  auto m = BuildMatchingRelation(one, {"a"}, opts);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->num_tuples(), 0u);
}

TEST(EdgeCaseTest, DeterminationOnEmptyMatchingReturnsNoPatterns) {
  MatchingRelation m({"x", "y"}, 5);
  RuleSpec rule{{"x"}, {"y"}};
  DetermineOptions opts;
  opts.prior_sample_size = 10;
  auto result = DetermineThresholds(m, rule, opts);
  ASSERT_TRUE(result.ok());
  // Every CQ is 0 on an empty M: nothing strictly exceeds the bound.
  EXPECT_TRUE(result->patterns.empty());
}

TEST(EdgeCaseTest, SamplingRequestLargerThanPopulation) {
  GeneratedData hotel = HotelExample();
  MatchingOptions opts;
  opts.max_pairs = 1000000;  // Far more than C(6,2) = 15.
  auto m = BuildMatchingRelation(hotel.relation, {"Name"}, opts);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->num_tuples(), 15u);
}

TEST(EdgeCaseTest, SamplingExactlyOnePair) {
  GeneratedData hotel = HotelExample();
  MatchingOptions opts;
  opts.max_pairs = 1;
  auto m = BuildMatchingRelation(hotel.relation, {"Name"}, opts);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->num_tuples(), 1u);
  auto [i, j] = m->pair(0);
  EXPECT_LT(i, j);
  EXPECT_LT(j, 6u);
}

TEST(EdgeCaseTest, SamplingCoversAllTriangularIndices) {
  // With max_pairs == total - 1 the decoder must handle nearly every
  // triangular index; run several seeds to exercise boundaries.
  GeneratedData hotel = HotelExample();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    MatchingOptions opts;
    opts.max_pairs = 14;
    opts.seed = seed;
    auto m = BuildMatchingRelation(hotel.relation, {"Name"}, opts);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m->num_tuples(), 14u);
    for (std::size_t r = 0; r < m->num_tuples(); ++r) {
      auto [i, j] = m->pair(r);
      EXPECT_LT(i, j);
      EXPECT_LT(j, 6u);
    }
  }
}

TEST(EdgeCaseTest, Dmax1IsTheSmallestUsableDomain) {
  // dmax = 1: levels are {0, 1}; the lattice is {0,1}^dims.
  MatchingRelation m = testutil::MakeMatching(
      {"x", "y"}, 1, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  RuleSpec rule{{"x"}, {"y"}};
  DetermineOptions opts;
  opts.prior_sample_size = 4;
  auto result = DetermineThresholds(m, rule, opts);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->patterns.empty());
  EXPECT_LE(result->patterns[0].pattern.lhs[0], 1);
}

TEST(EdgeCaseTest, AllIdenticalValuesSaturateAtZeroDistance) {
  Schema schema({{"a", AttributeType::kString}, {"b", AttributeType::kString}});
  Relation rel(schema);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rel.AddRow({"same", "same"}).ok());
  }
  MatchingOptions mopts;
  auto m = BuildMatchingRelation(rel, {"a", "b"}, mopts);
  ASSERT_TRUE(m.ok());
  DetermineOptions dopts;
  auto result = DetermineThresholds(*m, {{"a"}, {"b"}}, dopts);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->patterns.empty());
  // The FD (all-zero thresholds) is the optimum: C = 1 at Q = 1, full D.
  EXPECT_EQ(result->patterns[0].pattern.rhs, (Levels{0}));
  EXPECT_DOUBLE_EQ(result->patterns[0].measures.confidence, 1.0);
}

TEST(EdgeCaseTest, TopLLargerThanLattice) {
  MatchingRelation m = testutil::RandomMatching(2, 2, 50, 3);
  DetermineOptions opts;
  opts.top_l = 1000;  // |C_Y| is only 3.
  auto result = DetermineThresholds(m, {{"a0"}, {"a1"}}, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->patterns.size(), 9u);  // |C_X| * |C_Y| at most.
}

TEST(EdgeCaseTest, DetectionWithAllZeroPatternOnIdenticalData) {
  Schema schema({{"a", AttributeType::kString}, {"b", AttributeType::kString}});
  Relation rel(schema);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(rel.AddRow({"v", "w"}).ok());
  MatchingOptions mopts;
  auto found = DetectViolations(rel, {{"a"}, {"b"}}, Pattern::Fd(1, 1), mopts);
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(found->empty());  // Identical rows never violate.
}

TEST(EdgeCaseTest, UnicodeAndControlBytesSurviveThePipeline) {
  Schema schema({{"a", AttributeType::kString}, {"b", AttributeType::kString}});
  Relation rel(schema);
  ASSERT_TRUE(rel.AddRow({"caf\xc3\xa9", "r\xc3\xa9gion"}).ok());
  ASSERT_TRUE(rel.AddRow({"cafe", "region"}).ok());
  ASSERT_TRUE(rel.AddRow({std::string("a\0b", 3), "tab\there"}).ok());
  MatchingOptions mopts;
  auto m = BuildMatchingRelation(rel, {"a", "b"}, mopts);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->num_tuples(), 3u);
  // CSV round trip with the printable subset.
  std::string csv = ToCsv(rel);
  auto back = ParseCsv(csv);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->at(0, 0), "caf\xc3\xa9");
}

TEST(EdgeCaseTest, MalformedCsvInputsFailCleanly) {
  EXPECT_FALSE(ParseCsv("a,b\n\"unterminated\n").ok());
  EXPECT_FALSE(ParseCsv("a,a\n1,2\n").ok());       // Duplicate header.
  EXPECT_FALSE(ParseCsv("a,b\n1\n").ok());          // Short row.
  EXPECT_FALSE(ParseCsv("a,b\n1,2,3\n").ok());      // Long row.
  EXPECT_FALSE(ParseCsv("").ok());                  // Empty.
}

TEST(EdgeCaseTest, VeryLongValuesAreHandled) {
  std::string long_a(5000, 'a');
  std::string long_b = long_a;
  long_b[2500] = 'b';
  LevenshteinMetric lev;
  EXPECT_DOUBLE_EQ(lev.Distance(long_a, long_b), 1.0);
  EXPECT_DOUBLE_EQ(lev.BoundedDistance(long_a, long_b, 10.0), 1.0);
  // Cap exit on very different long strings.
  std::string other(5000, 'z');
  EXPECT_GT(lev.BoundedDistance(long_a, other, 10.0), 10.0);
}

TEST(EdgeCaseTest, DetectionQualityWithSelfInconsistentInput) {
  // Found pairs referencing rows beyond the truth universe are simply
  // counted as false positives, never a crash.
  PairList found = {{1000000, 2000000}};
  PairList truth = {{0, 1}};
  DetectionQuality q = EvaluateDetection(found, truth);
  EXPECT_EQ(q.hits, 0u);
  EXPECT_DOUBLE_EQ(q.precision, 0.0);
}

TEST(EdgeCaseTest, ZeroCorruptFractionThenDetectionFindsTruthEmpty) {
  RestaurantOptions gopts;
  gopts.num_entities = 20;
  GeneratedData data = GenerateRestaurant(gopts);
  CorruptorOptions copts;
  copts.corrupt_fraction = 0.0;
  auto corrupted = InjectViolations(data, {"city"}, copts);
  ASSERT_TRUE(corrupted.ok());
  MatchingOptions mopts;
  auto found = DetectViolations(corrupted->dirty, {{"address"}, {"city"}},
                                Pattern{{8}, {8}}, mopts);
  ASSERT_TRUE(found.ok());
  DetectionQuality q = EvaluateDetection(*found, corrupted->truth_pairs);
  EXPECT_EQ(q.truth_size, 0u);
  EXPECT_DOUBLE_EQ(q.recall, 1.0);  // Vacuous truth.
}

}  // namespace
}  // namespace dd
