#include "core/da.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace dd {
namespace {

using testutil::MakeMatching;
using testutil::RandomMatching;

DaOptions BaseOptions(bool advanced, bool prune,
                      ProcessingOrder order = ProcessingOrder::kMidFirst) {
  DaOptions opts;
  opts.advanced_bound = advanced;
  opts.pa.prune = prune;
  opts.pa.order = order;
  opts.utility.prior_mean_cq = 0.3;
  return opts;
}

TEST(DaTest, FindsExpectedPatternOnStructuredData) {
  // x <= 2 strongly predicts y <= 1; elsewhere y is spread out.
  std::vector<std::vector<Level>> rows;
  for (int i = 0; i < 40; ++i) rows.push_back({1, 1});
  for (int i = 0; i < 10; ++i) rows.push_back({1, 6});
  for (int i = 0; i < 50; ++i)
    rows.push_back({6, static_cast<Level>(i % 7)});
  MatchingRelation m = MakeMatching({"x", "y"}, 6, rows);
  ResolvedRule rule{{0}, {1}};
  ScanMeasureProvider provider(m, rule);
  DaStats stats;
  auto best = DetermineBestPatterns(&provider, 1, 1, 6,
                                    BaseOptions(false, false), &stats);
  ASSERT_EQ(best.size(), 1u);
  // The strong dependency at x ∈ [1,2], y = 1 should be found: a high-D
  // LHS with high confidence and good quality.
  EXPECT_GE(best[0].pattern.lhs[0], 1);
  EXPECT_LE(best[0].pattern.rhs[0], 2);
  EXPECT_GT(best[0].utility, 0.4);
  EXPECT_EQ(stats.lhs_total, 7u);
  EXPECT_EQ(stats.lhs_evaluated, 7u);
}

struct EquivalenceCase {
  bool advanced;
  bool prune;
  ProcessingOrder order;
};

class DaEquivalenceTest : public ::testing::TestWithParam<int> {};

// All four algorithm combinations must return the same optimum value —
// the paper's pruning is safe ("without missing answers").
TEST_P(DaEquivalenceTest, AllCombinationsAgreeOnOptimum) {
  MatchingRelation m = RandomMatching(3, 6, 300, GetParam());
  ResolvedRule rule{{0, 1}, {2}};
  ScanMeasureProvider provider(m, rule);

  const EquivalenceCase cases[] = {
      {false, false, ProcessingOrder::kMidFirst},  // DA+PA
      {false, true, ProcessingOrder::kMidFirst},   // DA+PAP mid-first
      {true, true, ProcessingOrder::kTopFirst},    // DAP+PAP top-first
      {true, true, ProcessingOrder::kMidFirst},    // DAP+PAP mid-first
      {true, false, ProcessingOrder::kMidFirst},   // DAP+PA (== DA+PA)
  };
  double reference_utility = -1.0;
  double reference_cq = -1.0;
  for (const auto& c : cases) {
    DaStats stats;
    auto best = DetermineBestPatterns(&provider, 2, 1, 6,
                                      BaseOptions(c.advanced, c.prune, c.order),
                                      &stats);
    ASSERT_EQ(best.size(), 1u);
    const double cq =
        best[0].measures.confidence * best[0].measures.quality;
    if (reference_utility < 0.0) {
      reference_utility = best[0].utility;
      reference_cq = cq;
    } else {
      EXPECT_NEAR(best[0].utility, reference_utility, 1e-9)
          << "advanced=" << c.advanced << " prune=" << c.prune;
    }
  }
  EXPECT_GE(reference_cq, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DaEquivalenceTest,
                         ::testing::Values(101, 102, 103, 104, 105, 106));

class DaTopLTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DaTopLTest, TopLUtilitiesMatchAcrossAlgorithms) {
  const std::size_t l = GetParam();
  MatchingRelation m = RandomMatching(2, 5, 250, 55);
  ResolvedRule rule{{0}, {1}};
  ScanMeasureProvider provider(m, rule);

  DaOptions da = BaseOptions(false, false);
  da.pa.top_l = l;
  auto reference = DetermineBestPatterns(&provider, 1, 1, 5, da, nullptr);

  DaOptions dap = BaseOptions(true, true, ProcessingOrder::kTopFirst);
  dap.pa.top_l = l;
  auto pruned = DetermineBestPatterns(&provider, 1, 1, 5, dap, nullptr);

  ASSERT_EQ(reference.size(), pruned.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(reference[i].utility, pruned[i].utility, 1e-9) << "i=" << i;
  }
  // Results sorted by descending utility.
  for (std::size_t i = 1; i < pruned.size(); ++i) {
    EXPECT_GE(pruned[i - 1].utility, pruned[i].utility);
  }
}

INSTANTIATE_TEST_SUITE_P(AnswerSizes, DaTopLTest,
                         ::testing::Values(1, 2, 3, 5, 7));

TEST(DapTest, PrunesMoreThanDaUnderSameOrder) {
  // With the same C_Y processing order, DAP's advanced bound starts at
  // or above DA's zero bound for every LHS, so DAP can only prune more
  // (the paper's "at least no worse" claim). Different orders trade off
  // differently (Table V), so the comparison fixes the order.
  for (ProcessingOrder order :
       {ProcessingOrder::kMidFirst, ProcessingOrder::kTopFirst}) {
    for (std::uint64_t seed : {77ull, 78ull, 79ull}) {
      MatchingRelation m = RandomMatching(2, 8, 500, seed);
      ResolvedRule rule{{0}, {1}};
      ScanMeasureProvider provider(m, rule);
      DaStats da_stats;
      DetermineBestPatterns(&provider, 1, 1, 8, BaseOptions(false, true, order),
                            &da_stats);
      DaStats dap_stats;
      DetermineBestPatterns(&provider, 1, 1, 8, BaseOptions(true, true, order),
                            &dap_stats);
      EXPECT_GE(dap_stats.PruningRate(), da_stats.PruningRate() - 1e-12)
          << "order=" << ProcessingOrderName(order) << " seed=" << seed;
      EXPECT_LE(dap_stats.rhs.evaluated, da_stats.rhs.evaluated)
          << "order=" << ProcessingOrderName(order) << " seed=" << seed;
    }
  }
}

TEST(DaStatsTest, PruningRateDefinition) {
  DaStats stats;
  stats.rhs.lattice_size = 100;
  stats.rhs.pruned = 90;
  stats.rhs.evaluated = 10;
  EXPECT_DOUBLE_EQ(stats.PruningRate(), 0.9);
  DaStats empty;
  EXPECT_DOUBLE_EQ(empty.PruningRate(), 0.0);
}

TEST(DaStatsTest, PruningRateGuardsDegenerateLattices) {
  // Regression (division-by-zero guard): a zero lattice_size — nothing
  // searched yet, or every candidate bounded out before any PA call —
  // must report 0.0, never NaN or inf.
  DaStats empty;
  EXPECT_TRUE(std::isfinite(empty.PruningRate()));
  EXPECT_EQ(empty.PruningRate(), 0.0);

  // A real degenerate run (all-zero confidence everywhere) also stays
  // finite and inside [0, 1].
  std::vector<std::vector<Level>> rows(20, {4, 4});
  MatchingRelation m = MakeMatching({"x", "y"}, 4, rows);
  ResolvedRule rule{{0}, {1}};
  ScanMeasureProvider provider(m, rule);
  DaStats stats;
  auto best = DetermineBestPatterns(&provider, 1, 1, 4,
                                    BaseOptions(true, true), &stats);
  EXPECT_TRUE(best.empty());
  EXPECT_TRUE(std::isfinite(stats.PruningRate()));
  EXPECT_GE(stats.PruningRate(), 0.0);
  EXPECT_LE(stats.PruningRate(), 1.0);
}

TEST(DaTest, AllZeroConfidenceYieldsEmptyResult) {
  // Only impossible LHS (no tuple has x <= anything below its level) —
  // craft a matching relation where every x is at dmax and y at dmax so
  // all confidences against y < dmax are 0 and CQ == 0 everywhere.
  std::vector<std::vector<Level>> rows(20, {4, 4});
  MatchingRelation m = MakeMatching({"x", "y"}, 4, rows);
  ResolvedRule rule{{0}, {1}};
  ScanMeasureProvider provider(m, rule);
  auto best = DetermineBestPatterns(&provider, 1, 1, 4,
                                    BaseOptions(false, false), nullptr);
  // y = 4 has Q = 0, any y < 4 has C = 0 for x = 4; smaller x have n = 0.
  EXPECT_TRUE(best.empty());
}

}  // namespace
}  // namespace dd
