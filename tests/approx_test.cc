// Tests for the src/approx subsystem: Wilson intervals, 64-bit
// triangular pair arithmetic (the PR-7 overflow audit regression test),
// the uniform pair sampler, LSH blocking, the stratified provider's
// fraction-1.0 bit-identity against the exact pipeline, interval
// coverage at real sampling fractions, and thread determinism of the
// sampled mode.

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "approx/approx_provider.h"
#include "approx/exact_stream.h"
#include "approx/lsh_index.h"
#include "approx/refine.h"
#include "approx/sampled_builder.h"
#include "common/math_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/determiner.h"
#include "core/measure_provider.h"
#include "data/generators.h"
#include "matching/builder.h"
#include "matching/pair_sampler.h"
#include "matching/serialization.h"
#include "tests/test_util.h"

namespace dd {
namespace {

using approx::ApproxDetermineOptions;
using approx::ApproxDetermineResult;
using approx::ApproxDetermineThresholds;
using approx::ApproxDetermineWithSample;
using approx::ApproxMeasureProvider;
using approx::ApproxOptions;
using approx::BuildStreamingGridProvider;
using approx::CollectNearPairs;
using approx::LshStats;
using approx::SampledMatchingBuilder;

// ---------------------------------------------------------------------
// Wilson interval

TEST(WilsonIntervalTest, ZeroTrialsIsVacuous) {
  const Interval iv = WilsonInterval(0, 0);
  EXPECT_EQ(iv.lo, 0.0);
  EXPECT_EQ(iv.hi, 1.0);
}

TEST(WilsonIntervalTest, ContainsPointEstimate) {
  for (std::uint64_t successes : {0ull, 1ull, 25ull, 99ull, 100ull}) {
    const Interval iv = WilsonInterval(successes, 100);
    const double phat = static_cast<double>(successes) / 100.0;
    EXPECT_LE(iv.lo, phat) << successes;
    EXPECT_GE(iv.hi, phat) << successes;
    EXPECT_GE(iv.lo, 0.0);
    EXPECT_LE(iv.hi, 1.0);
  }
}

TEST(WilsonIntervalTest, WidthShrinksWithSampleSize) {
  const Interval small = WilsonInterval(10, 40);
  const Interval big = WilsonInterval(1000, 4000);
  EXPECT_LT(big.width(), small.width());
}

TEST(WilsonIntervalTest, FinitePopulationCorrection) {
  // Same proportion: the FPC interval for a mostly-exhausted population
  // is strictly tighter than the infinite-population one.
  const Interval infinite = WilsonInterval(50, 100);
  const Interval fpc = WilsonInterval(50, 100, 1.959963984540054, 110);
  EXPECT_LT(fpc.width(), infinite.width());
  // Fully exhausted population: the estimate is exact.
  const Interval exact = WilsonInterval(50, 100, 1.959963984540054, 100);
  EXPECT_DOUBLE_EQ(exact.lo, 0.5);
  EXPECT_DOUBLE_EQ(exact.hi, 0.5);
}

// ---------------------------------------------------------------------
// 64-bit triangular pair arithmetic (PR-7 overflow audit). At
// n = 100'000 the pair population is 4'999'950'000 > 2^32, so any
// 32-bit truncation in encode/decode corrupts indices past k ≈ 4.29e9.

TEST(TriangularPairTest, RoundTripAt100kRows) {
  const std::uint64_t n = 100000;
  const std::uint64_t total = n * (n - 1) / 2;
  ASSERT_EQ(total, 4999950000ull);
  ASSERT_GT(total, std::uint64_t{1} << 32);

  // Boundary pairs.
  EXPECT_EQ(DecodeTriangularPair(0, n), (std::pair<std::uint32_t,
                                                   std::uint32_t>{0, 1}));
  EXPECT_EQ(DecodeTriangularPair(total - 1, n),
            (std::pair<std::uint32_t, std::uint32_t>{
                static_cast<std::uint32_t>(n - 2),
                static_cast<std::uint32_t>(n - 1)}));
  EXPECT_EQ(EncodeTriangularPair(0, 1, n), 0ull);
  EXPECT_EQ(EncodeTriangularPair(n - 2, n - 1, n), total - 1);

  // The row-offset region past 2^32, where 32-bit arithmetic breaks.
  Rng rng(20260808);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t k = rng.NextBounded(total);
    const auto [i, j] = DecodeTriangularPair(k, n);
    ASSERT_LT(i, j);
    ASSERT_LT(j, n);
    ASSERT_EQ(EncodeTriangularPair(i, j, n), k) << "k=" << k;
  }
  // And a deterministic sweep across the > 2^32 tail.
  for (std::uint64_t k = total - 1000; k < total; ++k) {
    const auto [i, j] = DecodeTriangularPair(k, n);
    ASSERT_EQ(EncodeTriangularPair(i, j, n), k);
  }
}

// ---------------------------------------------------------------------
// PairSampler

TEST(PairSamplerTest, DrawsUniqueNonExcludedIndices) {
  const std::vector<std::uint64_t> excluded = {2, 3, 5, 8, 13, 21};
  PairSampler sampler(100, 7, excluded);
  EXPECT_EQ(sampler.population(), 100 - excluded.size());
  const std::vector<std::uint64_t> drawn = sampler.GrowTo(40);
  EXPECT_EQ(drawn.size(), 40u);
  EXPECT_TRUE(std::is_sorted(drawn.begin(), drawn.end()));
  std::set<std::uint64_t> seen;
  for (std::uint64_t k : drawn) {
    EXPECT_LT(k, 100u);
    EXPECT_FALSE(std::binary_search(excluded.begin(), excluded.end(), k));
    EXPECT_TRUE(seen.insert(k).second) << "duplicate " << k;
  }
}

TEST(PairSamplerTest, GrowToExtendsThePrefix) {
  PairSampler grow_twice(10000, 99, {});
  std::vector<std::uint64_t> acc = grow_twice.GrowTo(300);
  const std::vector<std::uint64_t> second = grow_twice.GrowTo(900);
  acc.insert(acc.end(), second.begin(), second.end());
  std::sort(acc.begin(), acc.end());

  PairSampler grow_once(10000, 99, {});
  std::vector<std::uint64_t> all = grow_once.GrowTo(900);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(acc, all);
  EXPECT_EQ(grow_twice.sampled(), 900u);
}

TEST(PairSamplerTest, ExhaustiveTargetCoversThePopulation) {
  const std::vector<std::uint64_t> excluded = {0, 17, 42};
  PairSampler sampler(64, 5, excluded);
  std::vector<std::uint64_t> first = sampler.GrowTo(20);
  const std::vector<std::uint64_t> rest = sampler.GrowTo(sampler.population());
  EXPECT_TRUE(sampler.exhausted());
  first.insert(first.end(), rest.begin(), rest.end());
  std::sort(first.begin(), first.end());
  EXPECT_EQ(first.size(), 61u);
  for (std::uint64_t k = 0, at = 0; k < 64; ++k) {
    if (std::binary_search(excluded.begin(), excluded.end(), k)) continue;
    ASSERT_EQ(first[at++], k);
  }
}

TEST(PairSamplerTest, SameSeedSameSample) {
  PairSampler a(5000, 1234, {});
  PairSampler b(5000, 1234, {});
  EXPECT_EQ(a.GrowTo(500), b.GrowTo(500));
  PairSampler c(5000, 1235, {});
  EXPECT_NE(a.GrowTo(1000), c.GrowTo(1000));
}

// ---------------------------------------------------------------------
// LSH blocking

TEST(LshIndexTest, FindsDuplicateHeavyPairsDeterministically) {
  CoraOptions options;
  options.num_entities = 40;
  const GeneratedData cora = GenerateCora(options);
  MatchingOptions matching;
  matching.dmax = 8;
  auto resolved = ResolveMatchingMetrics(
      cora.relation.schema(), {"author", "title", "venue"}, matching);
  ASSERT_TRUE(resolved.ok());

  LshStats stats;
  const std::vector<std::uint64_t> pairs =
      CollectNearPairs(cora.relation, *resolved, &stats);
  EXPECT_FALSE(pairs.empty());
  EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
  EXPECT_TRUE(std::adjacent_find(pairs.begin(), pairs.end()) == pairs.end());
  const std::uint64_t n = cora.relation.num_rows();
  for (std::uint64_t k : pairs) ASSERT_LT(k, n * (n - 1) / 2);
  EXPECT_EQ(stats.candidate_pairs, pairs.size());

  // Same inputs, same index — bit-for-bit.
  LshStats stats2;
  EXPECT_EQ(CollectNearPairs(cora.relation, *resolved, &stats2), pairs);
}

TEST(SampledBuilderTest, RejectsLegacyPairCap) {
  const GeneratedData hotel = HotelExample();
  MatchingOptions options;
  options.max_pairs = 500;
  auto built = SampledMatchingBuilder::Build(
      hotel.relation, {"Address", "Region"}, options, ApproxOptions{});
  EXPECT_FALSE(built.ok());
}

// ---------------------------------------------------------------------
// Fraction 1.0 == exact pipeline, bit for bit (the acceptance
// guarantee). Runs Cora and Hotel, blocking on and off.

void ExpectBitIdentical(const DetermineResult& exact,
                        const ApproxDetermineResult& approx,
                        const std::string& label) {
  ASSERT_EQ(exact.patterns.size(), approx.determine.patterns.size()) << label;
  for (std::size_t p = 0; p < exact.patterns.size(); ++p) {
    const DeterminedPattern& e = exact.patterns[p];
    const DeterminedPattern& a = approx.determine.patterns[p];
    EXPECT_EQ(e.pattern.lhs, a.pattern.lhs) << label << " p=" << p;
    EXPECT_EQ(e.pattern.rhs, a.pattern.rhs) << label << " p=" << p;
    EXPECT_EQ(e.utility, a.utility) << label << " p=" << p;
    EXPECT_EQ(e.measures.lhs_count, a.measures.lhs_count) << label;
    EXPECT_EQ(e.measures.xy_count, a.measures.xy_count) << label;
    EXPECT_EQ(e.measures.d, a.measures.d) << label;
    EXPECT_EQ(e.measures.confidence, a.measures.confidence) << label;
    EXPECT_EQ(e.measures.quality, a.measures.quality) << label;
    // Exhaustive samples report exact answers: zero-width intervals
    // anchored on the true values.
    EXPECT_EQ(approx.intervals[p].utility.lo, e.utility) << label;
    EXPECT_EQ(approx.intervals[p].utility.hi, e.utility) << label;
  }
  EXPECT_EQ(exact.prior_mean_cq, approx.determine.prior_mean_cq) << label;
  EXPECT_TRUE(approx.exhaustive) << label;
  EXPECT_TRUE(approx.converged) << label;
  EXPECT_EQ(approx.sample_fraction, 1.0) << label;
}

struct FullFractionWorkload {
  std::string name;
  const Relation* relation;
  RuleSpec rule;
};

TEST(ApproxExactnessTest, FullFractionBitIdenticalToExactPipeline) {
  CoraOptions coptions;
  coptions.num_entities = 40;
  const GeneratedData cora = GenerateCora(coptions);
  const GeneratedData hotel = HotelExample();
  const std::vector<FullFractionWorkload> workloads = {
      {"cora", &cora.relation, RuleSpec{{"author", "title"}, {"venue"}}},
      {"hotel", &hotel.relation, RuleSpec{{"Address"}, {"Region"}}},
  };
  for (const FullFractionWorkload& w : workloads) {
    MatchingOptions matching;
    matching.dmax = 8;
    auto exact_matching =
        BuildMatchingRelation(*w.relation, w.rule.AllAttributes(), matching);
    ASSERT_TRUE(exact_matching.ok()) << w.name;
    const std::uint64_t total = exact_matching->num_tuples();

    DetermineOptions determine;
    determine.top_l = 3;
    determine.provider = "grid";
    auto exact = DetermineThresholds(*exact_matching, w.rule, determine);
    ASSERT_TRUE(exact.ok()) << w.name;

    for (const bool blocking : {true, false}) {
      ApproxDetermineOptions options;
      options.determine = determine;
      options.approx.sample_target = total;  // fraction 1.0
      options.approx.blocking = blocking;
      auto approx = ApproxDetermineThresholds(*w.relation, w.rule, matching,
                                              options);
      ASSERT_TRUE(approx.ok()) << w.name << " blocking=" << blocking;
      ExpectBitIdentical(*exact, *approx,
                         w.name + (blocking ? "+lsh" : "-lsh"));

      // The single-round discover path degenerates identically.
      auto sample = SampledMatchingBuilder::Build(
          *w.relation, w.rule.AllAttributes(), matching, options.approx);
      ASSERT_TRUE(sample.ok());
      auto single = ApproxDetermineWithSample(**sample, w.rule, options);
      ASSERT_TRUE(single.ok());
      ExpectBitIdentical(*exact, *single, w.name + "+single");
    }
  }
}

// ---------------------------------------------------------------------
// Streaming exact grid: identical counts to the grid provider built
// from the materialized matching relation.

TEST(ExactStreamTest, MatchesMaterializedGridCounts) {
  CoraOptions options;
  options.num_entities = 35;
  const GeneratedData cora = GenerateCora(options);
  const RuleSpec rule{{"author", "title"}, {"venue"}};
  MatchingOptions matching;
  matching.dmax = 6;

  auto exact_matching =
      BuildMatchingRelation(cora.relation, rule.AllAttributes(), matching);
  ASSERT_TRUE(exact_matching.ok());
  auto resolved = ResolveRule(*exact_matching, rule);
  ASSERT_TRUE(resolved.ok());
  auto grid = GridMeasureProvider::Create(*exact_matching, *resolved);
  ASSERT_TRUE(grid.ok());

  auto streamed = BuildStreamingGridProvider(cora.relation, rule, matching);
  ASSERT_TRUE(streamed.ok());
  ASSERT_EQ((*streamed)->total(), (*grid)->total());

  for (int x0 = 0; x0 <= matching.dmax; x0 += 2) {
    for (int x1 = 0; x1 <= matching.dmax; x1 += 3) {
      (*grid)->SetLhs({x0, x1});
      (*streamed)->SetLhs({x0, x1});
      ASSERT_EQ((*streamed)->lhs_count(), (*grid)->lhs_count())
          << x0 << "," << x1;
      for (int y = 0; y <= matching.dmax; ++y) {
        ASSERT_EQ((*streamed)->CountXY({y}), (*grid)->CountXY({y}))
            << x0 << "," << x1 << "->" << y;
      }
    }
  }

  // And the full determination lands on the same answer.
  DetermineOptions determine;
  determine.top_l = 2;
  determine.provider = "grid";
  auto exact = DetermineThresholds(*exact_matching, rule, determine);
  ASSERT_TRUE(exact.ok());
  auto from_stream = DetermineWithProvider(streamed->get(), rule.lhs.size(),
                                           rule.rhs.size(), matching.dmax,
                                           determine, "stream");
  ASSERT_TRUE(from_stream.ok());
  ASSERT_EQ(exact->patterns.size(), from_stream->patterns.size());
  for (std::size_t p = 0; p < exact->patterns.size(); ++p) {
    EXPECT_EQ(exact->patterns[p].pattern.lhs,
              from_stream->patterns[p].pattern.lhs);
    EXPECT_EQ(exact->patterns[p].utility, from_stream->patterns[p].utility);
  }
}

// ---------------------------------------------------------------------
// Interval coverage: at sampling fractions 0.1 and 0.3, the true
// D/C counts of the exact winner must land inside the reported 95%
// intervals in >= 95% of 200 fixed seeds. Deterministic by
// construction (fixed seeds); blocking is off so the test exercises
// the pure estimator. 200 seeds rather than a handful because the
// per-seed cover/miss outcome is itself Bernoulli(~0.95): a small
// window routinely shows 3-4 misses by chance even though the
// realized coverage measured over 500 seeds is 95.8-97.6%.

TEST(ApproxCoverageTest, IntervalsCoverTrueCounts) {
  CoraOptions coptions;
  coptions.num_entities = 60;
  const GeneratedData cora = GenerateCora(coptions);
  const RuleSpec rule{{"author", "title"}, {"venue"}};
  MatchingOptions matching;
  matching.dmax = 8;

  auto exact_matching =
      BuildMatchingRelation(cora.relation, rule.AllAttributes(), matching);
  ASSERT_TRUE(exact_matching.ok());
  const std::uint64_t total = exact_matching->num_tuples();
  auto resolved = ResolveRule(*exact_matching, rule);
  ASSERT_TRUE(resolved.ok());
  auto grid = GridMeasureProvider::Create(*exact_matching, *resolved);
  ASSERT_TRUE(grid.ok());

  DetermineOptions determine;
  determine.top_l = 1;
  determine.provider = "grid";
  auto exact = DetermineThresholds(*exact_matching, rule, determine);
  ASSERT_TRUE(exact.ok());
  ASSERT_FALSE(exact->patterns.empty());
  const Pattern winner = exact->patterns.front().pattern;
  (*grid)->SetLhs(winner.lhs);
  const std::uint64_t true_lhs = (*grid)->lhs_count();
  const std::uint64_t true_xy = (*grid)->CountXY(winner.rhs);
  const double true_confidence =
      static_cast<double>(true_xy) / static_cast<double>(true_lhs);

  for (const double fraction : {0.1, 0.3}) {
    int lhs_covered = 0;
    int xy_covered = 0;
    int confidence_covered = 0;
    const int kSeeds = 200;
    for (int seed = 0; seed < kSeeds; ++seed) {
      ApproxOptions approx;
      approx.sample_target =
          static_cast<std::uint64_t>(fraction * static_cast<double>(total));
      approx.seed = 1000 + seed;
      approx.blocking = false;
      auto sample = SampledMatchingBuilder::Build(
          cora.relation, rule.AllAttributes(), matching, approx);
      ASSERT_TRUE(sample.ok());
      auto provider = ApproxMeasureProvider::Create(**sample, rule);
      ASSERT_TRUE(provider.ok());
      (*provider)->SetLhs(winner.lhs);
      const Interval lhs_iv = (*provider)->LhsCountInterval();
      const Interval xy_iv = (*provider)->XyCountInterval(winner.rhs);
      if (lhs_iv.Contains(static_cast<double>(true_lhs))) ++lhs_covered;
      if (xy_iv.Contains(static_cast<double>(true_xy))) ++xy_covered;
      // The conservative confidence bounds of refine.h.
      const double c_lo = lhs_iv.hi > 0 ? xy_iv.lo / lhs_iv.hi : 0.0;
      const double c_hi =
          lhs_iv.lo > 0 ? std::min(1.0, xy_iv.hi / lhs_iv.lo) : 1.0;
      if (true_confidence >= c_lo && true_confidence <= c_hi) {
        ++confidence_covered;
      }
    }
    const int kNeed = kSeeds * 95 / 100;
    EXPECT_GE(lhs_covered, kNeed) << "fraction " << fraction;
    EXPECT_GE(xy_covered, kNeed) << "fraction " << fraction;
    EXPECT_GE(confidence_covered, kNeed) << "fraction " << fraction;
  }
}

// ---------------------------------------------------------------------
// Thread determinism of the sampled mode (extends the PR-5 suite):
// identical seed => byte-identical strata and identical determination
// at every pool size.

TEST(ApproxDeterminismTest, SampledModeBitIdenticalAcrossThreads) {
  CoraOptions coptions;
  coptions.num_entities = 40;
  const GeneratedData cora = GenerateCora(coptions);
  const RuleSpec rule{{"author", "title"}, {"venue"}};

  const auto build = [&](std::size_t threads) {
    MatchingOptions matching;
    matching.dmax = 8;
    matching.threads = threads;
    ApproxOptions approx;
    approx.sample_target = 5000;
    approx.seed = 77;
    return SampledMatchingBuilder::Build(cora.relation, rule.AllAttributes(),
                                         matching, approx);
  };
  const auto determine = [&](std::size_t threads) {
    MatchingOptions matching;
    matching.dmax = 8;
    matching.threads = threads;
    ApproxDetermineOptions options;
    options.determine.top_l = 3;
    options.determine.threads = threads;
    options.approx.sample_target = 5000;
    options.approx.seed = 77;
    return ApproxDetermineThresholds(cora.relation, rule, matching, options);
  };

  auto reference = build(1);
  ASSERT_TRUE(reference.ok());
  const std::string near_bytes =
      SerializeMatchingRelation((*reference)->near());
  const std::string tail_bytes =
      SerializeMatchingRelation((*reference)->tail());
  auto reference_run = determine(1);
  ASSERT_TRUE(reference_run.ok());

  std::vector<std::size_t> thread_counts = {2, 7};
  if (DefaultThreads() > 1) thread_counts.push_back(DefaultThreads());
  for (const std::size_t threads : thread_counts) {
    auto sample = build(threads);
    ASSERT_TRUE(sample.ok());
    EXPECT_EQ(SerializeMatchingRelation((*sample)->near()), near_bytes)
        << "threads=" << threads;
    EXPECT_EQ(SerializeMatchingRelation((*sample)->tail()), tail_bytes)
        << "threads=" << threads;

    auto run = determine(threads);
    ASSERT_TRUE(run.ok());
    ASSERT_EQ(run->determine.patterns.size(),
              reference_run->determine.patterns.size());
    for (std::size_t p = 0; p < run->determine.patterns.size(); ++p) {
      EXPECT_EQ(run->determine.patterns[p].pattern.lhs,
                reference_run->determine.patterns[p].pattern.lhs)
          << "threads=" << threads;
      EXPECT_EQ(run->determine.patterns[p].pattern.rhs,
                reference_run->determine.patterns[p].pattern.rhs)
          << "threads=" << threads;
      EXPECT_EQ(run->determine.patterns[p].utility,
                reference_run->determine.patterns[p].utility)
          << "threads=" << threads;
      EXPECT_EQ(run->intervals[p].utility.lo,
                reference_run->intervals[p].utility.lo)
          << "threads=" << threads;
      EXPECT_EQ(run->intervals[p].utility.hi,
                reference_run->intervals[p].utility.hi)
          << "threads=" << threads;
    }
    EXPECT_EQ(run->rounds, reference_run->rounds);
    EXPECT_EQ(run->sample_fraction, reference_run->sample_fraction);
    EXPECT_EQ(run->near_pairs, reference_run->near_pairs);
    EXPECT_EQ(run->sampled_pairs, reference_run->sampled_pairs);
  }
}

// ---------------------------------------------------------------------
// JSON surface

TEST(ApproxJsonTest, ResultDocumentIsWellFormed) {
  const GeneratedData hotel = HotelExample();
  const RuleSpec rule{{"Address"}, {"Region"}};
  MatchingOptions matching;
  ApproxDetermineOptions options;
  options.determine.top_l = 2;
  options.approx.sample_target = 200;
  auto result = ApproxDetermineThresholds(hotel.relation, rule, matching,
                                          options);
  ASSERT_TRUE(result.ok());
  const std::string json = approx::ApproxResultToJson(*result, rule);
  testutil::JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;
  EXPECT_NE(json.find("\"estimated\""), std::string::npos);
  EXPECT_NE(json.find("\"utility_lo\""), std::string::npos);
  EXPECT_NE(json.find("\"sample_fraction\""), std::string::npos);
}

}  // namespace
}  // namespace dd
