#include "core/result_io.h"

#include <gtest/gtest.h>

#include "core/result_filter.h"

namespace dd {
namespace {

DeterminedPattern MakePattern(Levels lhs, Levels rhs, std::uint64_t lhs_count,
                              std::uint64_t xy_count, double utility) {
  DeterminedPattern p;
  p.pattern = Pattern{std::move(lhs), std::move(rhs)};
  p.measures = MeasuresFromCounts(1000, lhs_count, xy_count, p.pattern.rhs, 10);
  p.utility = utility;
  return p;
}

// ----- CollapseEquivalent -----

TEST(ResultFilterTest, SubsumesRequiresIdenticalCounts) {
  auto a = MakePattern({9}, {3}, 400, 300, 0.5);
  auto b = MakePattern({7}, {3}, 400, 300, 0.5);
  auto c = MakePattern({7}, {3}, 401, 300, 0.5);
  EXPECT_TRUE(SubsumesEquivalent(a, b));   // Same counts, larger lhs.
  EXPECT_FALSE(SubsumesEquivalent(b, a));  // Smaller lhs cannot subsume.
  EXPECT_FALSE(SubsumesEquivalent(a, c));  // Counts differ.
}

TEST(ResultFilterTest, PrefersSmallerRhs) {
  auto tight = MakePattern({8}, {2}, 400, 300, 0.5);
  auto loose = MakePattern({8}, {4}, 400, 300, 0.5);
  EXPECT_TRUE(SubsumesEquivalent(tight, loose));
  EXPECT_FALSE(SubsumesEquivalent(loose, tight));
}

TEST(ResultFilterTest, CollapseKeepsCanonicalRepresentative) {
  std::vector<DeterminedPattern> patterns = {
      MakePattern({7}, {3}, 400, 300, 0.5),
      MakePattern({9}, {3}, 400, 300, 0.5),   // Subsumes the others.
      MakePattern({8}, {3}, 400, 300, 0.5),
      MakePattern({5}, {2}, 100, 80, 0.4),    // Different class.
  };
  auto kept = CollapseEquivalent(patterns);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].pattern.lhs, (Levels{9}));
  EXPECT_EQ(kept[1].pattern.lhs, (Levels{5}));
}

TEST(ResultFilterTest, IdenticalDuplicatesKeepFirst) {
  std::vector<DeterminedPattern> patterns = {
      MakePattern({8}, {3}, 400, 300, 0.5),
      MakePattern({8}, {3}, 400, 300, 0.5),
  };
  auto kept = CollapseEquivalent(patterns);
  EXPECT_EQ(kept.size(), 1u);
}

TEST(ResultFilterTest, IncomparablePatternsAllSurvive) {
  // Same counts but neither dominates on both sides.
  std::vector<DeterminedPattern> patterns = {
      MakePattern({9, 2}, {3}, 400, 300, 0.5),
      MakePattern({2, 9}, {3}, 400, 300, 0.5),
  };
  auto kept = CollapseEquivalent(patterns);
  EXPECT_EQ(kept.size(), 2u);
}

TEST(ResultFilterTest, EmptyInput) {
  EXPECT_TRUE(CollapseEquivalent({}).empty());
}

// ----- JSON / CSV serialization -----

DetermineResult MakeResult() {
  DetermineResult result;
  result.prior_mean_cq = 0.125;
  result.elapsed_seconds = 1.5;
  result.stats.rhs.lattice_size = 100;
  result.stats.rhs.pruned = 40;
  result.patterns.push_back(MakePattern({8, 2}, {3}, 400, 300, 0.51));
  result.patterns.push_back(MakePattern({5, 1}, {2}, 200, 120, 0.32));
  return result;
}

TEST(ResultIoTest, JsonContainsAllFields) {
  DetermineResult result = MakeResult();
  RuleSpec rule{{"author", "title"}, {"venue"}};
  std::string json = DetermineResultToJson(result, rule);
  EXPECT_NE(json.find("\"rule\":{\"lhs\":[\"author\",\"title\"],"
                      "\"rhs\":[\"venue\"]}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"prior_mean_cq\":0.125000"), std::string::npos);
  EXPECT_NE(json.find("\"pruning_rate\":0.400000"), std::string::npos);
  EXPECT_NE(json.find("\"lhs\":[8,2]"), std::string::npos);
  EXPECT_NE(json.find("\"utility\":0.510000"), std::string::npos);
  // Two pattern objects.
  EXPECT_NE(json.find("\"lhs\":[5,1]"), std::string::npos);
  // Balanced braces at the ends.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ResultIoTest, JsonEscapesAttributeNames) {
  DetermineResult result = MakeResult();
  RuleSpec rule{{"we\"ird"}, {"ok"}};
  std::string json = DetermineResultToJson(result, rule);
  EXPECT_NE(json.find("we\\\"ird"), std::string::npos);
}

TEST(ResultIoTest, CsvHasHeaderAndRows) {
  DetermineResult result = MakeResult();
  std::string csv = DetermineResultToCsv(result);
  EXPECT_NE(csv.find("lhs,rhs,d,confidence,support,quality,utility\n"),
            std::string::npos);
  EXPECT_NE(csv.find("\"<8, 2>\",\"<3>\""), std::string::npos);
  // Header + 2 rows = 3 newline-terminated lines.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

TEST(ResultIoTest, EmptyResultSerializes) {
  DetermineResult result;
  RuleSpec rule{{"a"}, {"b"}};
  std::string json = DetermineResultToJson(result, rule);
  EXPECT_NE(json.find("\"patterns\":[]"), std::string::npos);
  std::string csv = DetermineResultToCsv(result);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 1);
}

}  // namespace
}  // namespace dd
