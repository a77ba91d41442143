#include "core/determiner.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace dd {
namespace {

TEST(MfdTest, LhsPinnedToEquality) {
  MatchingRelation m = testutil::RandomMatching(2, 6, 300, 11);
  RuleSpec rule{{"a0"}, {"a1"}};
  DetermineOptions options;
  options.order = ProcessingOrder::kMidFirst;
  options.top_l = 3;
  auto result = DetermineMfdThresholds(m, rule, options);
  ASSERT_TRUE(result.ok());
  for (const auto& p : result->patterns) {
    EXPECT_EQ(p.pattern.lhs, (Levels{0}));
  }
  // Only C_Y was explored.
  EXPECT_EQ(result->stats.lhs_total, 1u);
  EXPECT_LE(result->stats.rhs.lattice_size, 7u);
}

TEST(MfdTest, MatchesFullDeterminerAtFixedLhs) {
  // The MFD answer equals the best CQ over C_Y at ϕ[X] = 0 — verify
  // against FindBestRhs directly.
  MatchingRelation m = testutil::RandomMatching(2, 6, 400, 13);
  ResolvedRule resolved{{0}, {1}};
  ScanMeasureProvider provider(m, resolved);
  provider.SetLhs({0});
  PaOptions pa;
  auto reference = FindBestRhs(&provider, 1, 6, 0.0, pa, nullptr);

  RuleSpec rule{{"a0"}, {"a1"}};
  DetermineOptions options;
  options.order = ProcessingOrder::kMidFirst;
  options.prior_sample_size = 0;  // Deterministic utility options.
  auto result = DetermineMfdThresholds(m, rule, options);
  ASSERT_TRUE(result.ok());
  if (reference.empty()) {
    EXPECT_TRUE(result->patterns.empty());
  } else {
    ASSERT_FALSE(result->patterns.empty());
    const auto& best = result->patterns.front();
    EXPECT_NEAR(best.measures.confidence * best.measures.quality,
                reference.front().cq, 1e-12);
  }
}

TEST(MfdTest, PrunedAndExhaustiveAgree) {
  MatchingRelation m = testutil::RandomMatching(3, 5, 300, 17);
  RuleSpec rule{{"a0"}, {"a1", "a2"}};
  DetermineOptions pruned;
  pruned.order = ProcessingOrder::kMidFirst;
  pruned.rhs_algorithm = RhsAlgorithm::kPap;
  DetermineOptions exhaustive;
  exhaustive.order = ProcessingOrder::kMidFirst;
  exhaustive.rhs_algorithm = RhsAlgorithm::kPa;
  auto a = DetermineMfdThresholds(m, rule, pruned);
  auto b = DetermineMfdThresholds(m, rule, exhaustive);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->patterns.size(), b->patterns.size());
  if (!a->patterns.empty()) {
    EXPECT_NEAR(a->patterns[0].utility, b->patterns[0].utility, 1e-9);
  }
}

TEST(MdTest, RhsPinnedToEquality) {
  MatchingRelation m = testutil::RandomMatching(2, 6, 300, 19);
  RuleSpec rule{{"a0"}, {"a1"}};
  DetermineOptions options;
  options.order = ProcessingOrder::kMidFirst;
  options.top_l = 4;
  auto result = DetermineMdThresholds(m, rule, options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->patterns.empty());
  for (const auto& p : result->patterns) {
    EXPECT_EQ(p.pattern.rhs, (Levels{0}));
    EXPECT_DOUBLE_EQ(p.measures.quality, 1.0);
  }
  // Descending utility.
  for (std::size_t i = 1; i < result->patterns.size(); ++i) {
    EXPECT_GE(result->patterns[i - 1].utility, result->patterns[i].utility);
  }
  // Every C_X candidate was evaluated.
  EXPECT_EQ(result->stats.lhs_evaluated, 7u);
}

TEST(MdTest, FindsSelectiveLhsOnStructuredData) {
  // Construct data where x <= 2 implies y == 0, and larger x mixes.
  std::vector<std::vector<Level>> rows;
  for (int i = 0; i < 60; ++i) rows.push_back({1, 0});
  for (int i = 0; i < 40; ++i)
    rows.push_back({5, static_cast<Level>(1 + (i % 5))});
  MatchingRelation m = testutil::MakeMatching({"x", "y"}, 6, rows);
  RuleSpec rule{{"x"}, {"y"}};
  DetermineOptions options;
  options.order = ProcessingOrder::kMidFirst;
  options.utility.prior_mean_cq = 0.2;
  options.prior_sample_size = 0;
  auto result = DetermineMdThresholds(m, rule, options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->patterns.empty());
  // The best matching rule should keep x in [1, 4]: confidence 1.0 at
  // D = 0.6 beats both the tiny-D x<1 and the diluted x>=5.
  EXPECT_GE(result->patterns[0].pattern.lhs[0], 1);
  EXPECT_LT(result->patterns[0].pattern.lhs[0], 5);
  EXPECT_DOUBLE_EQ(result->patterns[0].measures.confidence, 1.0);
}

TEST(SpecialCasesTest, RejectsBadInput) {
  MatchingRelation m = testutil::RandomMatching(2, 5, 50, 3);
  DetermineOptions options;
  options.order = ProcessingOrder::kMidFirst;
  EXPECT_FALSE(DetermineMfdThresholds(m, {{"nope"}, {"a1"}}, options).ok());
  EXPECT_FALSE(DetermineMdThresholds(m, {{"a0"}, {}}, options).ok());
  options.top_l = 0;
  EXPECT_FALSE(DetermineMfdThresholds(m, {{"a0"}, {"a1"}}, options).ok());
}

}  // namespace
}  // namespace dd
