// Property-based sweeps over randomized instances: the monotonicity
// lemma behind the pruning (Lemma 1), the safety of every pruning
// combination, provider agreement, and the utility theorems — each
// checked across many seeds via parameterized suites.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/da.h"
#include "core/determiner.h"
#include "core/expected_utility.h"
#include "core/measure_provider.h"
#include "detect/violation_detector.h"
#include "reason/implication.h"
#include "tests/test_util.h"

namespace dd {
namespace {

using testutil::RandomMatching;

class SeededPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

// Lemma 1: fixing ϕ[X], if ϕ1[Y] ⪰ ϕ2[Y] then C(ϕ1) >= C(ϕ2) and
// Q(ϕ1) <= Q(ϕ2).
TEST_P(SeededPropertyTest, Lemma1ConfidenceMonotoneQualityAntitone) {
  MatchingRelation m = RandomMatching(3, 6, 250, GetParam());
  ResolvedRule rule{{0}, {1, 2}};
  ScanMeasureProvider provider(m, rule);
  provider.SetLhs({3});
  Rng rng(GetParam() ^ 0xabcd);
  for (int trial = 0; trial < 40; ++trial) {
    Levels small = {static_cast<int>(rng.NextBounded(7)),
                    static_cast<int>(rng.NextBounded(7))};
    Levels big = {small[0] + static_cast<int>(rng.NextBounded(7 - small[0])),
                  small[1] + static_cast<int>(rng.NextBounded(7 - small[1]))};
    ASSERT_TRUE(Dominates(big, small));
    const std::uint64_t c_big = provider.CountXY(big);
    const std::uint64_t c_small = provider.CountXY(small);
    EXPECT_GE(c_big, c_small);
    EXPECT_LE(DependentQuality(big, 6), DependentQuality(small, 6));
  }
}

// D(ϕ[X]) is monotone in the LHS thresholds.
TEST_P(SeededPropertyTest, LhsSupportMonotone) {
  MatchingRelation m = RandomMatching(2, 8, 250, GetParam());
  ResolvedRule rule{{0}, {1}};
  ScanMeasureProvider provider(m, rule);
  std::uint64_t prev = 0;
  for (int x = 0; x <= 8; ++x) {
    provider.SetLhs({x});
    EXPECT_GE(provider.lhs_count(), prev);
    prev = provider.lhs_count();
  }
  EXPECT_EQ(prev, m.num_tuples());  // dmax accepts everything.
}

// All four algorithm combinations find the same optimum on random data.
TEST_P(SeededPropertyTest, PruningIsSafe) {
  MatchingRelation m = RandomMatching(3, 5, 200, GetParam());
  RuleSpec rule{{"a0"}, {"a1", "a2"}};
  double reference = -1.0;
  for (LhsAlgorithm lhs : {LhsAlgorithm::kDa, LhsAlgorithm::kDap}) {
    for (RhsAlgorithm rhs : {RhsAlgorithm::kPa, RhsAlgorithm::kPap}) {
      for (ProcessingOrder order :
           {ProcessingOrder::kMidFirst, ProcessingOrder::kTopFirst}) {
        DetermineOptions opts;
        opts.lhs_algorithm = lhs;
        opts.rhs_algorithm = rhs;
        opts.order = order;
        auto result = DetermineThresholds(m, rule, opts);
        ASSERT_TRUE(result.ok());
        ASSERT_FALSE(result->patterns.empty());
        if (reference < 0.0) {
          reference = result->patterns[0].utility;
        } else {
          EXPECT_NEAR(result->patterns[0].utility, reference, 1e-9);
        }
      }
    }
  }
}

// Appends matching tuples [begin, end) of `m` to a delta's pair and
// row-major level lists.
void AppendRows(const MatchingRelation& m, std::size_t begin, std::size_t end,
                std::vector<std::pair<std::uint32_t, std::uint32_t>>* pairs,
                std::vector<Level>* levels) {
  for (std::size_t t = begin; t < end; ++t) {
    pairs->push_back(m.pair(t));
    const std::vector<Level> row = m.RowLevels(t);
    levels->insert(levels->end(), row.begin(), row.end());
  }
}

// Scan and grid providers agree on every count, and so does a grid
// brought from an empty M to M through Apply: two add batches, then
// one that adds the rest of M plus spare rows and removes the spares.
TEST_P(SeededPropertyTest, ProvidersAgree) {
  MatchingRelation m = RandomMatching(3, 5, 300, GetParam());
  ResolvedRule rule{{0, 1}, {2}};
  ScanMeasureProvider scan(m, rule);
  auto grid = GridMeasureProvider::Create(m, rule);
  ASSERT_TRUE(grid.ok());
  auto applied = GridMeasureProvider::Create(
      MatchingRelation(m.attribute_names(), m.dmax()), rule);
  ASSERT_TRUE(applied.ok());
  const MatchingRelation spare = RandomMatching(3, 5, 40, GetParam() + 1);
  const std::size_t cuts[] = {0, 100, 220, m.num_tuples()};
  for (std::size_t b = 0; b < 3; ++b) {
    MatchingDelta delta;
    delta.num_attributes = m.num_attributes();
    AppendRows(m, cuts[b], cuts[b + 1], &delta.added_pairs,
               &delta.added_levels);
    if (b == 2) {
      AppendRows(spare, 0, spare.num_tuples(), &delta.added_pairs,
                 &delta.added_levels);
      AppendRows(spare, 0, spare.num_tuples(), &delta.removed_pairs,
                 &delta.removed_levels);
    }
    applied.value()->Apply(delta);
  }
  ASSERT_EQ(applied.value()->total(), m.num_tuples());
  Rng rng(GetParam() ^ 0x1234);
  for (int trial = 0; trial < 30; ++trial) {
    Levels lhs = {static_cast<int>(rng.NextBounded(6)),
                  static_cast<int>(rng.NextBounded(6))};
    Levels rhs = {static_cast<int>(rng.NextBounded(6))};
    scan.SetLhs(lhs);
    grid.value()->SetLhs(lhs);
    applied.value()->SetLhs(lhs);
    ASSERT_EQ(scan.lhs_count(), grid.value()->lhs_count());
    ASSERT_EQ(scan.lhs_count(), applied.value()->lhs_count());
    const std::uint64_t xy = scan.CountXY(rhs);
    ASSERT_EQ(xy, grid.value()->CountXY(rhs));
    ASSERT_EQ(xy, applied.value()->CountXY(rhs));
  }
}

// Theorem 1 on random measure triples: a pattern whose support,
// confidence and dependent quality all dominate (in the theorem's ρ
// sense) never has a lower expected utility.
TEST_P(SeededPropertyTest, Theorem1OnRandomMeasures) {
  Rng rng(GetParam() ^ 0x77);
  UtilityOptions opts;
  opts.prior_mean_cq = 0.2 + 0.6 * rng.NextDouble();
  const std::uint64_t total = 50000;
  for (int trial = 0; trial < 40; ++trial) {
    const double rho = 1.0 + rng.NextDouble();
    const double c2 = 0.05 + rng.NextDouble() * 0.4;
    const double q2 = rng.NextDouble();
    const double d2 = 0.05 + rng.NextDouble() * 0.9;
    const double s2 = c2 * d2;
    // Theorem 1 preconditions: S1/S2 = ρ, C1 >= ρC2, Q1 >= Q2/ρ.
    const double c1 = std::min(1.0, c2 * rho);
    if (c1 < c2 * rho) continue;  // Capping would break the premise.
    // Any Q1 >= Q2/ρ satisfies the premise; add random slack so the
    // comparison is usually strict rather than the tight boundary.
    const double q1 =
        std::min(1.0, q2 / rho * (1.0 + 0.5 * rng.NextDouble()));
    const double d1 = s2 * rho / c1;  // = S1 / C1.
    if (d1 > 1.0) continue;
    const double u1 = ExpectedUtility(
        total, static_cast<std::uint64_t>(d1 * total), c1, q1, opts);
    const double u2 = ExpectedUtility(
        total, static_cast<std::uint64_t>(d2 * total), c2, q2, opts);
    // Tolerance covers the integer rounding of D·total (the premise is
    // tight at ρ -> equality, where rounding can flip the order).
    EXPECT_GE(u1, u2 - 2e-3)
        << "rho=" << rho << " c2=" << c2 << " q2=" << q2 << " d2=" << d2;
  }
}

// Support/confidence/quality identities on random patterns.
TEST_P(SeededPropertyTest, MeasureIdentities) {
  MatchingRelation m = RandomMatching(2, 7, 300, GetParam());
  ResolvedRule rule{{0}, {1}};
  ScanMeasureProvider provider(m, rule);
  Rng rng(GetParam() ^ 0x55);
  for (int trial = 0; trial < 25; ++trial) {
    Pattern p{{static_cast<int>(rng.NextBounded(8))},
              {static_cast<int>(rng.NextBounded(8))}};
    Measures mm = ComputeMeasures(&provider, p, 7);
    EXPECT_NEAR(mm.support, mm.confidence * mm.d, 1e-12);
    EXPECT_GE(mm.lhs_count, mm.xy_count);
    EXPECT_GE(mm.confidence, 0.0);
    EXPECT_LE(mm.confidence, 1.0);
    EXPECT_GE(mm.quality, 0.0);
    EXPECT_LE(mm.quality, 1.0);
    // The all-dmax RHS always has confidence 1 (any pair satisfies it).
    if (p.rhs[0] == 7 && mm.lhs_count > 0) {
      EXPECT_DOUBLE_EQ(mm.confidence, 1.0);
    }
  }
}

// Detection consistency: everything detected satisfies ϕ[X] and
// violates ϕ[Y] under the bucketed distances.
TEST_P(SeededPropertyTest, DetectionOnlyFlagsActualViolations) {
  MatchingRelation m = RandomMatching(2, 7, 300, GetParam());
  ResolvedRule rule{{0}, {1}};
  Rng rng(GetParam() ^ 0x99);
  Pattern p{{static_cast<int>(rng.NextBounded(8))},
            {static_cast<int>(rng.NextBounded(8))}};
  PairList found = DetectViolationsIn(m, rule, p);
  // Cross-check every matching tuple.
  std::size_t expected = 0;
  for (std::size_t row = 0; row < m.num_tuples(); ++row) {
    const bool lhs_sat = static_cast<int>(m.level(row, 0)) <= p.lhs[0];
    const bool rhs_sat = static_cast<int>(m.level(row, 1)) <= p.rhs[0];
    if (lhs_sat && !rhs_sat) ++expected;
  }
  EXPECT_EQ(found.size(), expected);
}

// Implication is a preorder (reflexive + transitive) on random
// statements over a small attribute universe.
TEST_P(SeededPropertyTest, ImplicationIsAPreorder) {
  constexpr int kDmax = 6;
  Rng rng(GetParam() ^ 0xbeef);
  const std::vector<std::string> universe = {"A", "B", "C", "D"};
  auto random_statement = [&]() {
    DdStatement s;
    // Random non-empty disjoint sides.
    for (const auto& attr : universe) {
      switch (rng.NextBounded(3)) {
        case 0:
          s.rule.lhs.push_back(attr);
          s.pattern.lhs.push_back(static_cast<int>(rng.NextBounded(kDmax + 1)));
          break;
        case 1:
          s.rule.rhs.push_back(attr);
          s.pattern.rhs.push_back(static_cast<int>(rng.NextBounded(kDmax + 1)));
          break;
        default:
          break;  // Attribute absent.
      }
    }
    if (s.rule.lhs.empty()) {
      s.rule.lhs.push_back("E");
      s.pattern.lhs.push_back(static_cast<int>(rng.NextBounded(kDmax + 1)));
    }
    if (s.rule.rhs.empty()) {
      s.rule.rhs.push_back("F");
      s.pattern.rhs.push_back(static_cast<int>(rng.NextBounded(kDmax + 1)));
    }
    return s;
  };
  std::vector<DdStatement> statements;
  for (int i = 0; i < 12; ++i) statements.push_back(random_statement());
  for (const auto& a : statements) {
    EXPECT_TRUE(Implies(a, a, kDmax)) << a.ToString();
    for (const auto& b : statements) {
      for (const auto& c : statements) {
        if (Implies(a, b, kDmax) && Implies(b, c, kDmax)) {
          EXPECT_TRUE(Implies(a, c, kDmax))
              << a.ToString() << " => " << b.ToString() << " => "
              << c.ToString();
        }
      }
    }
  }
}

// MinimalCover output is irredundant: no survivor implies another.
TEST_P(SeededPropertyTest, MinimalCoverIsIrredundant) {
  constexpr int kDmax = 6;
  Rng rng(GetParam() ^ 0xfeed);
  std::vector<DdStatement> statements;
  for (int i = 0; i < 10; ++i) {
    DdStatement s;
    s.rule.lhs = {"A"};
    s.rule.rhs = {"B"};
    s.pattern.lhs = {static_cast<int>(rng.NextBounded(kDmax + 1))};
    s.pattern.rhs = {static_cast<int>(rng.NextBounded(kDmax + 1))};
    statements.push_back(std::move(s));
  }
  auto cover = MinimalCover(statements, kDmax);
  for (std::size_t i = 0; i < cover.size(); ++i) {
    EXPECT_FALSE(IsTrivial(cover[i], kDmax));
    for (std::size_t j = 0; j < cover.size(); ++j) {
      if (i == j) continue;
      // Survivors may be mutually equivalent only if distinct objects
      // would have been deduplicated; with the earliest-wins rule no
      // two survivors can imply each other or one another one-way.
      EXPECT_FALSE(Implies(cover[j], cover[i], kDmax))
          << cover[j].ToString() << " still implies " << cover[i].ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, SeededPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace dd
