// Every matching producer against the naive oracle (testutil::
// NaiveMatching: metric->Distance + BucketDistance per pair, no cap, no
// interning, no level table). The producers share one pair-level kernel
// (PairLevelSource, matching/builder.h); these tests keep it checked
// independently on all three of its per-attribute routes — table
// lookup, equal-value shortcut, and metric evaluation (one-vs-many runs
// and single pairs) — and pin the metric-work counter every producer
// reports.

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "approx/exact_stream.h"
#include "approx/sampled_builder.h"
#include "common/rng.h"
#include "core/measure_provider.h"
#include "data/relation.h"
#include "incr/incremental_builder.h"
#include "matching/builder.h"
#include "matching/serialization.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace dd {
namespace {

using testutil::AllPairs;
using testutil::NaiveMatching;

const std::vector<std::string> kAttrs = {"rep", "mix", "name", "num"};

// `rep` has 6 distinct values and `num` 25, so both get a level table
// whenever more pairs than cells are computed. `mix` (jaccard, a
// normalized metric) has about n/3 distinct values: a table in a full
// build, equal-value shortcuts and metric calls in a small sample or a
// delta batch. `name` is all distinct and partly longer than one 64-bit
// word, so a full build never tables it and answers it by one-vs-many
// runs.
Relation OracleRelation(std::size_t n, std::uint64_t seed) {
  Relation relation(Schema({{"rep", AttributeType::kString},
                            {"mix", AttributeType::kString},
                            {"name", AttributeType::kString},
                            {"num", AttributeType::kNumeric}}));
  const std::vector<std::string> reps = {"alpha", "alpah", "beta street",
                                         "gamma", "delta", "epsilon road"};
  Rng rng(seed);
  for (std::size_t r = 0; r < n; ++r) {
    std::string mix = "tok";
    mix += std::to_string(rng.NextBounded(n / 3 + 1));
    mix += rng.NextBool(0.5) ? " north" : " south";
    std::string name;
    const std::size_t len = 4 + rng.NextBounded(90);
    for (std::size_t c = 0; c < len; ++c) {
      name += "abcde "[rng.NextBounded(6)];
    }
    name += '#';
    name += std::to_string(r);
    EXPECT_TRUE(relation
                    .AddRow({reps[rng.NextBounded(reps.size())], mix, name,
                             std::to_string(rng.NextBounded(25))})
                    .ok());
  }
  return relation;
}

MatchingOptions OracleOptions(int dmax) {
  MatchingOptions options;
  options.dmax = dmax;
  options.metric_overrides["mix"] = "jaccard";
  return options;
}

// The max_pairs sample by its definition: seeded rejection draws over
// the triangular index, sorted.
std::vector<std::pair<std::uint32_t, std::uint32_t>> NaiveSample(
    std::uint64_t n, std::uint64_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::unordered_set<std::uint64_t> chosen;
  std::vector<std::uint64_t> ks;
  while (ks.size() < count) {
    const std::uint64_t k = rng.NextBounded(n * (n - 1) / 2);
    if (chosen.insert(k).second) ks.push_back(k);
  }
  std::sort(ks.begin(), ks.end());
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::uint64_t k : ks) pairs.push_back(DecodeTriangularPair(k, n));
  return pairs;
}

std::size_t TablesBuilt(const Relation& relation, const MatchingOptions& options,
                        std::uint64_t pairs_to_compute) {
  const ResolvedMetrics resolved =
      ResolveMatchingMetrics(relation.schema(), kAttrs, options).value();
  return PairLevelSource(relation, AllRows(relation.num_rows()), resolved,
                         pairs_to_compute, 1)
      .tables_built();
}

std::uint64_t DistanceCounter() {
  return obs::MetricsRegistry::Global()
      .GetCounter("matching.distances_computed")
      .value();
}

// Full and sampled builds at threads 1/2/4 and dmax 10/14/15 — the last
// two straddle the 4-/8-bit packing boundary.
TEST(MatchingOracleTest, BuildMatchingRelationMatchesNaive) {
  const Relation relation = OracleRelation(70, 11);
  const std::uint64_t n = relation.num_rows();
  const std::uint64_t total = n * (n - 1) / 2;
  const std::uint64_t sampled = 120;
  // The full build tables rep, mix and num and runs name; the sample
  // tables only rep, leaving mix and num to the equal-value shortcut and
  // single metric calls.
  ASSERT_EQ(TablesBuilt(relation, OracleOptions(10), total), 3u);
  ASSERT_EQ(TablesBuilt(relation, OracleOptions(10), sampled), 1u);
  for (const int dmax : {10, 14, 15}) {
    const MatchingOptions base = OracleOptions(dmax);
    const std::string full_bytes = SerializeMatchingRelation(NaiveMatching(
        relation, kAttrs, base, AllPairs(AllRows(n))));
    const std::string sampled_bytes = SerializeMatchingRelation(NaiveMatching(
        relation, kAttrs, base, NaiveSample(n, sampled, base.seed)));
    for (const std::size_t threads : {1, 2, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << "dmax=" << dmax << " threads=" << threads);
      MatchingOptions options = base;
      options.threads = threads;
      auto full = BuildMatchingRelation(relation, kAttrs, options);
      ASSERT_TRUE(full.ok()) << full.status();
      EXPECT_EQ(SerializeMatchingRelation(*full), full_bytes);
      options.max_pairs = sampled;
      auto sample = BuildMatchingRelation(relation, kAttrs, options);
      ASSERT_TRUE(sample.ok()) << sample.status();
      EXPECT_EQ(SerializeMatchingRelation(*sample), sampled_bytes);
    }
  }
}

// Seeded insert/delete sequences: after every batch the delta-maintained
// relation (canonicalized) and Rebuild() both equal the naive relation
// over the live tuples.
TEST(MatchingOracleTest, IncrementalBuilderMatchesNaive) {
  const Relation source = OracleRelation(90, 12);
  for (const std::size_t threads : {1, 2, 4}) {
    for (const int dmax : {10, 15}) {
      IncrementalOptions options;
      options.matching = OracleOptions(dmax);
      options.matching.threads = threads;
      auto builder = IncrementalMatchingBuilder::Create(source.schema(),
                                                        kAttrs, options);
      ASSERT_TRUE(builder.ok()) << builder.status();
      Rng rng(threads * 100 + static_cast<std::uint64_t>(dmax));
      std::size_t next_row = 0;
      for (int batch = 0; batch < 8; ++batch) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                          << " dmax=" << dmax
                                          << " batch=" << batch);
        std::vector<std::vector<std::string>> inserts;
        const std::size_t b = batch == 0 ? 30 : 1 + rng.NextBounded(9);
        for (std::size_t k = 0; k < b && next_row < source.num_rows(); ++k) {
          inserts.push_back(source.row(next_row++));
        }
        std::vector<std::uint32_t> deletes;
        for (std::uint32_t id : builder->store().LiveIds()) {
          if (rng.NextBool(0.15)) deletes.push_back(id);
        }
        ASSERT_TRUE(builder->ApplyBatch(inserts, deletes).ok());

        const std::string expected = SerializeMatchingRelation(NaiveMatching(
            builder->store().relation(), kAttrs, options.matching,
            AllPairs(builder->store().LiveIds())));
        MatchingRelation maintained = builder->matching();
        maintained.SortByPairs();
        EXPECT_EQ(SerializeMatchingRelation(maintained), expected);
        EXPECT_EQ(SerializeMatchingRelation(builder->Rebuild()), expected);
      }
    }
  }
}

// The streamed grid counts equal a grid over the naive relation.
TEST(MatchingOracleTest, StreamingGridMatchesNaive) {
  const Relation relation = OracleRelation(60, 13);
  const RuleSpec rule{{"rep", "name"}, {"mix", "num"}};
  for (const std::size_t threads : {1, 2, 4}) {
    MatchingOptions options = OracleOptions(6);
    options.threads = threads;
    const MatchingRelation naive =
        NaiveMatching(relation, rule.AllAttributes(), options,
                      AllPairs(AllRows(relation.num_rows())));
    auto grid = GridMeasureProvider::Create(naive, ResolveRule(naive, rule).value());
    ASSERT_TRUE(grid.ok());
    auto streamed =
        approx::BuildStreamingGridProvider(relation, rule, options);
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    ASSERT_EQ((*streamed)->total(), (*grid)->total());
    for (int x0 = 0; x0 <= options.dmax; ++x0) {
      for (int x1 = 0; x1 <= options.dmax; ++x1) {
        (*grid)->SetLhs({x0, x1});
        (*streamed)->SetLhs({x0, x1});
        ASSERT_EQ((*streamed)->lhs_count(), (*grid)->lhs_count());
        for (int y0 = 0; y0 <= options.dmax; ++y0) {
          for (int y1 = 0; y1 <= options.dmax; ++y1) {
            ASSERT_EQ((*streamed)->CountXY({y0, y1}),
                      (*grid)->CountXY({y0, y1}))
                << x0 << "," << x1 << "->" << y0 << "," << y1;
          }
        }
      }
    }
  }
}

// The metric-work counter: table cells plus query calls, added once per
// producer. Over the same pairs, the one-shot build, the streamed grid
// and an exhaustive sampled build do the same work.
TEST(MatchingWorkCounterTest, ProducersCountTheSameWork) {
  const Relation relation = OracleRelation(50, 14);
  const MatchingOptions options = OracleOptions(10);
  const std::uint64_t n = relation.num_rows();

  const std::uint64_t before_build = DistanceCounter();
  ASSERT_TRUE(BuildMatchingRelation(relation, kAttrs, options).ok());
  const std::uint64_t build = DistanceCounter() - before_build;
  EXPECT_GT(build, 0u);

  const std::uint64_t before_stream = DistanceCounter();
  ASSERT_TRUE(approx::BuildStreamingGridProvider(
                  relation, RuleSpec{{"rep", "mix"}, {"name", "num"}}, options)
                  .ok());
  EXPECT_EQ(DistanceCounter() - before_stream, build);

  approx::ApproxOptions approx;
  approx.blocking = false;
  approx.sample_target = n * (n - 1) / 2;
  const std::uint64_t before_sampled = DistanceCounter();
  auto sampled =
      approx::SampledMatchingBuilder::Build(relation, kAttrs, options, approx);
  ASSERT_TRUE(sampled.ok()) << sampled.status();
  ASSERT_TRUE((*sampled)->exhaustive());
  EXPECT_EQ(DistanceCounter() - before_sampled, build);
}

// A delta batch over repeated values counts fewer metric evaluations
// than pairs × attributes: the shortcut and the tables take their share.
TEST(MatchingWorkCounterTest, ApplyBatchCountsBelowPairsTimesAttributes) {
  const Relation source = OracleRelation(80, 15);
  IncrementalOptions options;
  options.matching = OracleOptions(10);
  auto builder =
      IncrementalMatchingBuilder::Create(source.schema(), kAttrs, options);
  ASSERT_TRUE(builder.ok()) << builder.status();
  std::vector<std::vector<std::string>> rows;
  for (std::size_t r = 0; r < source.num_rows(); ++r) {
    rows.push_back(source.row(r));
  }
  const std::uint64_t before = DistanceCounter();
  auto delta = builder->ApplyBatch(rows, {});
  ASSERT_TRUE(delta.ok());
  const std::uint64_t evals = DistanceCounter() - before;
  EXPECT_GT(evals, 0u);
  EXPECT_LT(evals, delta->num_added() * kAttrs.size());
}

}  // namespace
}  // namespace dd
