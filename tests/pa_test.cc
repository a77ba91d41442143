#include "core/pa.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "obs/explain/recorder.h"
#include "tests/test_util.h"

namespace dd {
namespace {

using testutil::MakeMatching;
using testutil::RandomMatching;

// Exhaustive reference: argmax C·Q by brute force.
std::vector<RhsCandidate> BruteForce(MeasureProvider* provider,
                                     std::size_t rhs_dims, int dmax,
                                     std::size_t top_l) {
  CandidateLattice lat(rhs_dims, dmax);
  std::vector<RhsCandidate> all;
  for (std::size_t idx = 0; idx < lat.size(); ++idx) {
    RhsCandidate c;
    c.rhs = lat.LevelsOf(idx);
    c.xy_count = provider->CountXY(c.rhs);
    const std::uint64_t n = provider->lhs_count();
    c.confidence = n > 0 ? static_cast<double>(c.xy_count) / n : 0.0;
    c.quality = DependentQuality(c.rhs, dmax);
    c.cq = c.confidence * c.quality;
    all.push_back(std::move(c));
  }
  std::sort(all.begin(), all.end(),
            [](const RhsCandidate& a, const RhsCandidate& b) {
              return a.cq > b.cq;
            });
  std::vector<RhsCandidate> top;
  for (const auto& c : all) {
    if (top.size() == top_l) break;
    if (c.cq > 0.0) top.push_back(c);
  }
  return top;
}

TEST(PaTest, FindsKnownOptimum) {
  // One Y attribute. LHS satisfied rows have y-levels {0,0,1,3}; the
  // optimum trades confidence against quality.
  MatchingRelation m = MakeMatching(
      {"x", "y"}, 4, {{0, 0}, {0, 0}, {0, 1}, {0, 3}, {4, 4}, {4, 4}});
  ResolvedRule rule{{0}, {1}};
  ScanMeasureProvider provider(m, rule);
  provider.SetLhs({0});
  PaOptions opts;
  PaStats stats;
  auto best = FindBestRhs(&provider, 1, 4, 0.0, opts, &stats);
  ASSERT_EQ(best.size(), 1u);
  // Candidates: y=0 -> C=2/4, Q=1 -> 0.5; y=1 -> C=3/4, Q=0.75 -> 0.5625;
  // y=3 -> 1.0*0.25; y=4 -> 1.0*0. Optimum is y=1.
  EXPECT_EQ(best[0].rhs, (Levels{1}));
  EXPECT_NEAR(best[0].cq, 0.5625, 1e-12);
  EXPECT_EQ(stats.evaluated, 5u);  // PA evaluates all of C_Y.
  EXPECT_EQ(stats.pruned, 0u);
}

class PapEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<ProcessingOrder, int>> {};

TEST_P(PapEquivalenceTest, PapMatchesPaOnRandomData) {
  const auto [order, seed] = GetParam();
  MatchingRelation m = RandomMatching(3, 7, 400, seed);
  ResolvedRule rule{{0}, {1, 2}};
  ScanMeasureProvider provider(m, rule);

  for (int x : {0, 2, 5, 7}) {
    provider.SetLhs({x});
    PaOptions pa;
    pa.prune = false;
    PaStats pa_stats;
    auto exhaustive = FindBestRhs(&provider, 2, 7, 0.0, pa, &pa_stats);

    PaOptions pap;
    pap.prune = true;
    pap.order = order;
    PaStats pap_stats;
    auto pruned = FindBestRhs(&provider, 2, 7, 0.0, pap, &pap_stats);

    ASSERT_EQ(exhaustive.size(), pruned.size()) << "x=" << x;
    if (!exhaustive.empty()) {
      // Same optimum value (patterns may differ under ties).
      EXPECT_NEAR(exhaustive[0].cq, pruned[0].cq, 1e-12) << "x=" << x;
    }
    // Pruning must never evaluate more than the exhaustive pass.
    EXPECT_LE(pap_stats.evaluated, pa_stats.evaluated);
  }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndSeeds, PapEquivalenceTest,
    ::testing::Combine(::testing::Values(ProcessingOrder::kMidFirst,
                                         ProcessingOrder::kTopFirst,
                                         ProcessingOrder::kBottomFirst,
                                         ProcessingOrder::kLexicographic),
                       ::testing::Values(1, 2, 3, 4, 5)));

TEST(PapTest, TopLMatchesBruteForce) {
  MatchingRelation m = RandomMatching(2, 9, 600, 11);
  ResolvedRule rule{{0}, {1}};
  ScanMeasureProvider provider(m, rule);
  provider.SetLhs({4});
  for (std::size_t l : {1u, 2u, 3u, 5u, 7u}) {
    auto expected = BruteForce(&provider, 1, 9, l);
    PaOptions pap;
    pap.prune = true;
    pap.top_l = l;
    auto got = FindBestRhs(&provider, 1, 9, 0.0, pap, nullptr);
    ASSERT_EQ(got.size(), expected.size()) << "l=" << l;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].cq, expected[i].cq, 1e-12) << "l=" << l << " i=" << i;
    }
  }
}

TEST(PapTest, InitialBoundFiltersResults) {
  MatchingRelation m = MakeMatching({"x", "y"}, 4,
                                    {{0, 0}, {0, 0}, {0, 2}, {0, 4}});
  ResolvedRule rule{{0}, {1}};
  ScanMeasureProvider provider(m, rule);
  provider.SetLhs({0});
  // Best CQ: y=0 -> C=0.5, Q=1 -> 0.5. A bound of 0.6 excludes all.
  PaOptions pap;
  pap.prune = true;
  auto none = FindBestRhs(&provider, 1, 4, 0.6, pap, nullptr);
  EXPECT_TRUE(none.empty());
  auto some = FindBestRhs(&provider, 1, 4, 0.4, pap, nullptr);
  ASSERT_EQ(some.size(), 1u);
  EXPECT_NEAR(some[0].cq, 0.5, 1e-12);
}

TEST(PapTest, BoundReducesEvaluations) {
  MatchingRelation m = RandomMatching(2, 9, 400, 13);
  ResolvedRule rule{{0}, {1}};
  ScanMeasureProvider provider(m, rule);
  provider.SetLhs({5});
  PaOptions pap;
  pap.prune = true;
  pap.order = ProcessingOrder::kTopFirst;
  PaStats unbounded;
  FindBestRhs(&provider, 1, 9, 0.0, pap, &unbounded);
  PaStats bounded;
  FindBestRhs(&provider, 1, 9, 0.9, pap, &bounded);
  EXPECT_LE(bounded.evaluated, unbounded.evaluated);
}

TEST(PaTest, ZeroConfidenceLhsReturnsEmpty) {
  // No row satisfies x <= 0, so every CQ is 0 and nothing strictly
  // exceeds the initial bound of 0 (DAP's "if ϕi[Y] exists" case).
  MatchingRelation m = MakeMatching({"x", "y"}, 4, {{3, 0}, {4, 1}});
  ResolvedRule rule{{0}, {1}};
  ScanMeasureProvider provider(m, rule);
  provider.SetLhs({0});
  for (bool prune : {false, true}) {
    PaOptions opts;
    opts.prune = prune;
    auto best = FindBestRhs(&provider, 1, 4, 0.0, opts, nullptr);
    EXPECT_TRUE(best.empty()) << "prune=" << prune;
  }
}

TEST(PapTest, PrunesAggressivelyUnderZeroConfidence) {
  MatchingRelation m = MakeMatching({"x", "y"}, 4, {{3, 0}, {4, 1}});
  ResolvedRule rule{{0}, {1}};
  ScanMeasureProvider provider(m, rule);
  provider.SetLhs({0});
  PaOptions pap;
  pap.prune = true;
  pap.order = ProcessingOrder::kTopFirst;
  PaStats stats;
  FindBestRhs(&provider, 1, 4, 0.0, pap, &stats);
  // The first (all-dmax) candidate has C = 0 and dominates everything:
  // one evaluation suffices.
  EXPECT_EQ(stats.evaluated, 1u);
  EXPECT_EQ(stats.pruned, 4u);
}

// Every field of a recorded event except the sampled eval latency, which
// is a wall-clock reading.
void ExpectSameEvents(const std::vector<obs::ExplainEvent>& a,
                      const std::vector<obs::ExplainEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(a[i].lhs_seq, b[i].lhs_seq);
    EXPECT_EQ(a[i].rhs_index, b[i].rhs_index);
    EXPECT_EQ(a[i].rank, b[i].rank);
    EXPECT_EQ(a[i].outcome, b[i].outcome);
    EXPECT_EQ(a[i].bound_kind, b[i].bound_kind);
    EXPECT_EQ(a[i].offered, b[i].offered);
    EXPECT_EQ(a[i].forced, b[i].forced);
    EXPECT_EQ(a[i].xy_count, b[i].xy_count);
    EXPECT_EQ(a[i].confidence, b[i].confidence);
    EXPECT_EQ(a[i].quality, b[i].quality);
    EXPECT_EQ(a[i].cq, b[i].cq);
    EXPECT_EQ(a[i].bound, b[i].bound);
  }
}

TEST(PapTest, ReusedSearchStateMatchesFreshSearches) {
  // RHS levels are never 0 in the first RHS column, so every cell with
  // level 0 there has zero confidence; x = 0 satisfies no row at all.
  std::vector<std::vector<Level>> rows;
  Rng rng(77);
  for (int t = 0; t < 300; ++t) {
    const Level x = static_cast<Level>(1 + rng.NextBounded(6));
    const Level y0 = static_cast<Level>(1 + rng.NextBounded(6));
    const Level y1 = static_cast<Level>(
        rng.NextBool(0.6) ? x : rng.NextBounded(7));
    rows.push_back({x, y0, y1});
  }
  MatchingRelation m = MakeMatching({"x", "y0", "y1"}, 6, rows);
  ResolvedRule rule{{0}, {1, 2}};
  ScanMeasureProvider provider(m, rule);
  const std::vector<int> lhs_sequence = {3, 0, 6, 1, 4, 2};

  for (ProcessingOrder order :
       {ProcessingOrder::kMidFirst, ProcessingOrder::kTopFirst,
        ProcessingOrder::kBottomFirst, ProcessingOrder::kLexicographic}) {
    for (std::size_t top_l : {1u, 2u, 3u}) {
      for (double bound : {0.0, 0.3}) {
        SCOPED_TRACE(testing::Message()
                     << ProcessingOrderName(order) << " top_l=" << top_l
                     << " bound=" << bound);
        PaOptions pap;
        pap.prune = true;
        pap.order = order;
        pap.top_l = top_l;

        std::vector<std::vector<RhsCandidate>> reused_best;
        std::vector<PaStats> reused_stats;
        obs::ExplainRecorder::Global().Enable(obs::ExplainConfig{});
        RhsSearch search(2, 6, pap);
        for (int x : lhs_sequence) {
          provider.SetLhs({x});
          reused_stats.emplace_back();
          reused_best.push_back(search.Run(&provider, bound,
                                           obs::ExplainBound::kInitial,
                                           &reused_stats.back()));
        }
        const obs::ExplainSnapshot reused_events =
            obs::ExplainRecorder::Global().Snapshot();

        obs::ExplainRecorder::Global().Enable(obs::ExplainConfig{});
        for (std::size_t i = 0; i < lhs_sequence.size(); ++i) {
          provider.SetLhs({lhs_sequence[i]});
          PaStats stats;
          const std::vector<RhsCandidate> best =
              FindBestRhs(&provider, 2, 6, bound, pap, &stats);
          ASSERT_EQ(best.size(), reused_best[i].size()) << "x=" << i;
          for (std::size_t k = 0; k < best.size(); ++k) {
            EXPECT_EQ(best[k].rhs, reused_best[i][k].rhs);
            EXPECT_EQ(best[k].xy_count, reused_best[i][k].xy_count);
            EXPECT_EQ(best[k].confidence, reused_best[i][k].confidence);
            EXPECT_EQ(best[k].quality, reused_best[i][k].quality);
            EXPECT_EQ(best[k].cq, reused_best[i][k].cq);
          }
          EXPECT_EQ(stats.lattice_size, reused_stats[i].lattice_size);
          EXPECT_EQ(stats.evaluated, reused_stats[i].evaluated);
          EXPECT_EQ(stats.pruned, reused_stats[i].pruned);
        }
        const obs::ExplainSnapshot fresh_events =
            obs::ExplainRecorder::Global().Snapshot();
        obs::ExplainRecorder::Global().Disable();

        const obs::ExplainWaterfall& fw = fresh_events.waterfall;
        const obs::ExplainWaterfall& rw = reused_events.waterfall;
        EXPECT_EQ(fw.lhs_seen, rw.lhs_seen);
        EXPECT_EQ(fw.candidates, rw.candidates);
        EXPECT_EQ(fw.evaluated, rw.evaluated);
        EXPECT_EQ(fw.pruned_s0, rw.pruned_s0);
        EXPECT_EQ(fw.pruned_s1, rw.pruned_s1);
        EXPECT_EQ(fw.pruned_zero_conf, rw.pruned_zero_conf);
        EXPECT_EQ(fw.offered, rw.offered);
        EXPECT_TRUE(rw.Accounted());
        // The sequence does evaluate zero-confidence candidates.
        EXPECT_TRUE(std::any_of(
            reused_events.events.begin(), reused_events.events.end(),
            [](const obs::ExplainEvent& e) {
              return e.outcome == obs::ExplainOutcome::kEvaluated &&
                     e.confidence == 0.0;
            }));
        ASSERT_EQ(fresh_events.lhs.size(), reused_events.lhs.size());
        for (std::size_t i = 0; i < fresh_events.lhs.size(); ++i) {
          EXPECT_EQ(fresh_events.lhs[i].levels, reused_events.lhs[i].levels);
          EXPECT_EQ(fresh_events.lhs[i].lhs_count,
                    reused_events.lhs[i].lhs_count);
        }
        ExpectSameEvents(fresh_events.events, reused_events.events);
      }
    }
  }
}

}  // namespace
}  // namespace dd
