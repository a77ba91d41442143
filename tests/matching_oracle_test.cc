// Every matching producer against the naive oracle (testutil::
// NaiveMatching: metric->Distance + BucketDistance per pair, no cap, no
// interning, no level table). The producers share one pair-level kernel
// (PairLevelSource, matching/builder.h); these tests keep it checked
// independently on all of its per-attribute routes — table lookup,
// query-row lookup (delta batches), equal-value shortcut, and metric
// evaluation (one-vs-many runs and single pairs) — and pin the
// metric-work counter every producer reports.

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

// The max_pairs sample by its definition: the first `count` distinct
// seeded draws over the triangular index that are not `excluded`,
// sorted.
std::vector<std::pair<std::uint32_t, std::uint32_t>> NaiveSample(
    std::uint64_t n, std::uint64_t count, std::uint64_t seed,
    const std::unordered_set<std::uint64_t>& excluded = {}) {
  Rng rng(seed);
  std::unordered_set<std::uint64_t> chosen;
  std::vector<std::uint64_t> ks;
  while (ks.size() < count) {
    const std::uint64_t k = rng.NextBounded(n * (n - 1) / 2);
    if (excluded.count(k) == 0 && chosen.insert(k).second) ks.push_back(k);
  }
  std::sort(ks.begin(), ks.end());
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::uint64_t k : ks) pairs.push_back(DecodeTriangularPair(k, n));
  return pairs;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> PairsOf(
    const MatchingRelation& m) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::size_t r = 0; r < m.num_tuples(); ++r) pairs.push_back(m.pair(r));
  return pairs;
}

std::size_t TablesBuilt(const Relation& relation, const MatchingOptions& options,
                        std::uint64_t pairs_to_compute) {
  const ResolvedMetrics resolved =
      ResolveMatchingMetrics(relation.schema(), kAttrs, options).value();
  return PairLevelSource(relation, AllRows(relation.num_rows()),
                         /*first_query=*/0, resolved, pairs_to_compute, 1)
      .tables_built();
}

std::uint64_t DistanceCounter() {
  return obs::MetricsRegistry::Global()
      .GetCounter("matching.distances_computed")
      .value();
}

std::uint64_t BoundedCounter() {
  return obs::MetricsRegistry::Global()
      .GetCounter("matching.distances_bounded")
      .value();
}

// Full and sampled builds at threads 1/2/3/4/7 and dmax 10/14/15 — the
// last two straddle the 4-/8-bit packing boundary. Widths 3 and 7 put
// chunk boundaries at odd rows inside a run, where two writers share a
// packed byte.
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
    for (const std::size_t threads : {1, 2, 3, 4, 7}) {
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

// Dense samples, where a row's sampled partners are long runs: all
// pairs but one, and half of them, at widths 1/3/7 so that chunk
// boundaries fall inside a row's run. Both samples hold a row with a
// single sampled partner, and the first holds the last pair
// (n-2, n-1). M equals the naive relation over the sample's definition,
// and the metric work is pinned.
TEST(MatchingOracleTest, DenseSamplesMatchNaive) {
  const Relation relation = OracleRelation(70, 11);
  const std::uint64_t n = relation.num_rows();
  const std::uint64_t total = n * (n - 1) / 2;
  const MatchingOptions base = OracleOptions(10);
  struct Case {
    std::uint64_t max_pairs;
    std::uint64_t computed;
    std::uint64_t bounded;
  };
  for (const Case& c : {Case{total - 1, 3305, 379},
                        Case{total / 2, 2098, 189}}) {
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs =
        NaiveSample(n, c.max_pairs, base.seed);
    std::vector<std::size_t> partners(n, 0);
    for (const auto& [i, j] : pairs) ++partners[i];
    EXPECT_NE(std::find(partners.begin(), partners.end(), 1u), partners.end());
    if (c.max_pairs == total - 1) {
      const std::pair<std::uint32_t, std::uint32_t> last(n - 2, n - 1);
      EXPECT_EQ(pairs.back(), last);
    }
    const std::string expected =
        SerializeMatchingRelation(NaiveMatching(relation, kAttrs, base, pairs));
    for (const std::size_t threads : {1, 3, 7}) {
      SCOPED_TRACE(::testing::Message() << "max_pairs=" << c.max_pairs
                                        << " threads=" << threads);
      MatchingOptions options = base;
      options.threads = threads;
      options.max_pairs = c.max_pairs;
      const std::uint64_t computed_before = DistanceCounter();
      const std::uint64_t bounded_before = BoundedCounter();
      auto sample = BuildMatchingRelation(relation, kAttrs, options);
      ASSERT_TRUE(sample.ok()) << sample.status();
      EXPECT_EQ(SerializeMatchingRelation(*sample), expected);
      EXPECT_EQ(DistanceCounter() - computed_before, c.computed);
      EXPECT_EQ(BoundedCounter() - bounded_before, c.bounded);
    }
  }
}

// The approx tail grown three times, with the LSH near stratum excluded
// from it: first in the sampler's hash-set form, then past the point
// where it switches to a bitmap. The tail holds the sampler's
// definition over the non-near pairs, both strata equal the naive
// relation over their pairs, and the metric work is pinned.
TEST(MatchingOracleTest, ApproxBitmapTailMatchesNaive) {
  const Relation relation = OracleRelation(70, 11);
  const std::uint64_t n = relation.num_rows();
  approx::ApproxOptions approx;
  approx.sample_target = 0;
  for (const std::size_t threads : {1, 3, 7}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    MatchingOptions options = OracleOptions(10);
    options.threads = threads;
    const std::uint64_t computed_before = DistanceCounter();
    const std::uint64_t bounded_before = BoundedCounter();
    auto sampled = approx::SampledMatchingBuilder::Build(relation, kAttrs,
                                                         options, approx);
    ASSERT_TRUE(sampled.ok()) << sampled.status();
    // The bitmap takes over at 1/64 of the 2415 pairs, 38 draws.
    const std::uint64_t population = (*sampled)->tail_population();
    ASSERT_GT(population / 3, 38u);
    (*sampled)->GrowTo(20);
    (*sampled)->GrowTo(population / 3);
    (*sampled)->GrowTo(population * 2 / 3);
    EXPECT_EQ(DistanceCounter() - computed_before, 3154u);
    EXPECT_EQ(BoundedCounter() - bounded_before, 359u);

    const MatchingRelation& near = (*sampled)->near();
    ASSERT_GT(near.num_tuples(), 0u);
    std::unordered_set<std::uint64_t> near_ks;
    for (const auto& [i, j] : PairsOf(near)) {
      near_ks.insert(EncodeTriangularPair(i, j, n));
    }
    std::vector<std::pair<std::uint32_t, std::uint32_t>> tail_pairs =
        PairsOf((*sampled)->tail());
    std::sort(tail_pairs.begin(), tail_pairs.end());
    EXPECT_EQ(tail_pairs,
              NaiveSample(n, population * 2 / 3, approx.seed, near_ks));
    for (const MatchingRelation* stratum : {&near, &(*sampled)->tail()}) {
      EXPECT_EQ(SerializeMatchingRelation(*stratum),
                SerializeMatchingRelation(NaiveMatching(
                    relation, kAttrs, options, PairsOf(*stratum))));
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

// Delta batches whose few new values get level rows (rep's 6 and num's
// 25 values, where the window-wide source used to table them): repeated
// new values inside one batch, a one-insert batch and a batch larger
// than the window, at several widths so the rows' cells split across
// chunks. After every batch the maintained relation and Rebuild() equal
// the naive relation over the live tuples.
TEST(MatchingOracleTest, DeltaBatchesWithQueryRowsMatchNaive) {
  const Relation source = OracleRelation(160, 17);
  {
    // The route a source over a window of 40 with 2 new rows takes.
    const ResolvedMetrics resolved =
        ResolveMatchingMetrics(source.schema(), kAttrs, OracleOptions(10))
            .value();
    const std::vector<std::uint32_t> rows = AllRows(42);
    const PairLevelSource window(source, rows, /*first_query=*/40, resolved,
                                 /*pairs_to_compute=*/2 * 40 + 1, 1);
    ASSERT_EQ(window.route(0), LevelRoute::kRows);    // rep
    ASSERT_EQ(window.route(2), LevelRoute::kMetric);  // name
    ASSERT_EQ(window.route(3), LevelRoute::kRows);    // num
  }
  for (const std::size_t threads : {1, 2, 3}) {
    for (const int dmax : {10, 15}) {
      IncrementalOptions options;
      options.matching = OracleOptions(dmax);
      options.matching.threads = threads;
      auto builder = IncrementalMatchingBuilder::Create(source.schema(),
                                                        kAttrs, options);
      ASSERT_TRUE(builder.ok()) << builder.status();
      std::size_t next_row = 0;
      auto take = [&](std::size_t count) {
        std::vector<std::vector<std::string>> rows;
        for (std::size_t k = 0; k < count; ++k) {
          rows.push_back(source.row(next_row++));
        }
        return rows;
      };
      auto oldest = [&](std::size_t count) {
        std::vector<std::uint32_t> live = builder->store().LiveIds();
        live.resize(std::min(count, live.size()));
        return live;
      };
      std::vector<std::vector<std::string>> repeated = take(2);
      repeated.push_back(repeated[0]);
      repeated.push_back(repeated[1]);
      repeated.push_back(repeated[0]);
      const std::vector<std::pair<std::vector<std::vector<std::string>>,
                                  std::size_t>>
          batches = {
              {take(40), 0},   // the window
              {repeated, 5},   // three copies and two copies
              {take(1), 1},    // one insert
              {take(1), 0},    // one insert, no delete
              {take(70), 20},  // larger than the window
              {take(3), 30},
          };
      for (std::size_t b = 0; b < batches.size(); ++b) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                          << " dmax=" << dmax << " batch=" << b);
        ASSERT_TRUE(
            builder->ApplyBatch(batches[b].first, oldest(batches[b].second))
                .ok());
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

// Random batches drawn with replacement from a 10-row pool, so every
// attribute's values repeat heavily and the persistent dictionaries
// keep acquiring and releasing shared entries. Scripted batches cover
// duplicate values inside one batch, a value whose last tuples are
// deleted and re-inserted in one batch, delete-only, insert-only and
// empty batches, and deleting every tuple, then refilling. After every
// batch the maintained relation and Rebuild() equal the naive relation
// over the live tuples, and each dictionary holds exactly the distinct
// live values.
TEST(MatchingOracleTest, PersistentDictionaryBatchesMatchNaive) {
  const Relation source = OracleRelation(10, 18);
  for (const std::size_t threads : {1, 3}) {
    for (const int dmax : {10, 15}) {
      IncrementalOptions options;
      options.matching = OracleOptions(dmax);
      options.matching.threads = threads;
      auto builder = IncrementalMatchingBuilder::Create(source.schema(),
                                                        kAttrs, options);
      ASSERT_TRUE(builder.ok()) << builder.status();
      Rng rng(threads * 10 + static_cast<std::uint64_t>(dmax));
      std::vector<std::size_t> pool_row;  // by tuple id
      auto rows_of = [&](const std::vector<std::size_t>& picks) {
        std::vector<std::vector<std::string>> rows;
        for (const std::size_t r : picks) rows.push_back(source.row(r));
        return rows;
      };
      auto live_of_row = [&](std::size_t r) {
        std::vector<std::uint32_t> ids;
        for (const std::uint32_t id : builder->store().LiveIds()) {
          if (pool_row[id] == r) ids.push_back(id);
        }
        return ids;
      };
      for (int batch = 0; batch < 24; ++batch) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                          << " dmax=" << dmax
                                          << " batch=" << batch);
        std::vector<std::size_t> picks;
        std::vector<std::uint32_t> deletes;
        switch (batch) {
          case 0:  // duplicates inside one batch, insert-only
            picks = {0, 1, 2, 0, 0, 3, 1, 4, 5, 2, 6, 0};
            break;
          case 1:  // row 0's last tuples leave and one returns
            picks = {0, 7};
            deletes = live_of_row(0);
            break;
          case 2:  // delete-only
            deletes = {builder->store().LiveIds()[1],
                       builder->store().LiveIds()[4]};
            break;
          case 3:  // empty
            break;
          case 4:  // insert-only
            picks = {8, 9, 8};
            break;
          case 5:  // every tuple
            deletes = builder->store().LiveIds();
            break;
          case 6:  // refill
            picks = {3, 3, 9, 1, 0, 2, 3};
            break;
          default: {
            const std::size_t b = rng.NextBounded(7);
            for (std::size_t k = 0; k < b; ++k) {
              picks.push_back(rng.NextBounded(source.num_rows()));
            }
            for (const std::uint32_t id : builder->store().LiveIds()) {
              if (rng.NextBool(0.3)) deletes.push_back(id);
            }
          }
        }
        ASSERT_TRUE(builder->ApplyBatch(rows_of(picks), deletes).ok());
        pool_row.insert(pool_row.end(), picks.begin(), picks.end());

        const std::string expected = SerializeMatchingRelation(NaiveMatching(
            builder->store().relation(), kAttrs, options.matching,
            AllPairs(builder->store().LiveIds())));
        MatchingRelation maintained = builder->matching();
        maintained.SortByPairs();
        EXPECT_EQ(SerializeMatchingRelation(maintained), expected);
        EXPECT_EQ(SerializeMatchingRelation(builder->Rebuild()), expected);
        EXPECT_TRUE(testutil::DictionariesHoldLiveValues(*builder));
      }
      EXPECT_GT(builder->store().num_live(), 0u);
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

// Long values over disjoint vocabularies, as in citeseer's
// descriptions: two texts of different topics differ in most bytes at
// similar lengths, so the Levenshtein count sketches settle most of
// their pairs without the kernel, and texts of one topic go to it.
// `text` is all distinct (one-vs-many runs in a full build, partly
// longer than one 64-bit word), `topic` has a few spellings per topic (a
// level table), and `tag` repeats (equal-value shortcuts and a table).
const std::vector<std::string> kWordAttrs = {"text", "topic", "tag"};

Relation DisjointWordsRelation(std::size_t n, std::uint64_t seed) {
  Relation relation(Schema({{"text", AttributeType::kString},
                            {"topic", AttributeType::kString},
                            {"tag", AttributeType::kString}}));
  const std::vector<std::vector<std::string>> vocab = {
      {"query", "index", "join", "transaction", "schema", "relational"},
      {"kernel", "scheduling", "filesystem", "virtual", "process", "driver"},
      {"routing", "packet", "wireless", "latency", "topology", "bandwidth"},
      {"automata", "complexity", "hardness", "proof", "reduction", "bound"}};
  const std::vector<std::string> topics = {"Databases", "Operating Systems",
                                           "Networks", "Theory"};
  Rng rng(seed);
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t t = rng.NextBounded(vocab.size());
    std::string text;
    for (std::size_t w = 3 + rng.NextBounded(12); w > 0; --w) {
      if (!text.empty()) text += ' ';
      text += vocab[t][rng.NextBounded(vocab[t].size())];
    }
    if (rng.NextBool(0.5)) text[rng.NextBounded(text.size())] = 'x';
    std::string topic = topics[t];
    if (rng.NextBool(0.3)) topic += 's';
    std::string tag = "t";
    tag += std::to_string(rng.NextBounded(3));
    EXPECT_TRUE(relation.AddRow({text, topic, tag}).ok());
  }
  return relation;
}

// Every producer over the disjoint-vocabulary family: the full and
// sampled builds, the incremental builder and its Rebuild(), the
// streamed grid and both strata of the sampled builder equal the naive
// relation, while the sketches settle part of the metric work.
TEST(MatchingOracleTest, DisjointWordSetsMatchNaiveInEveryProducer) {
  const Relation relation = DisjointWordsRelation(80, 16);
  const std::uint64_t n = relation.num_rows();
  for (const int dmax : {10, 15}) {
    MatchingOptions base;
    base.dmax = dmax;
    const std::string full_bytes = SerializeMatchingRelation(NaiveMatching(
        relation, kWordAttrs, base, AllPairs(AllRows(n))));
    const std::string sampled_bytes = SerializeMatchingRelation(NaiveMatching(
        relation, kWordAttrs, base, NaiveSample(n, 200, base.seed)));
    for (const std::size_t threads : {1, 2, 3, 4, 7}) {
      SCOPED_TRACE(::testing::Message()
                   << "dmax=" << dmax << " threads=" << threads);
      MatchingOptions options = base;
      options.threads = threads;
      const std::uint64_t computed_before = DistanceCounter();
      const std::uint64_t bounded_before = BoundedCounter();
      auto full = BuildMatchingRelation(relation, kWordAttrs, options);
      ASSERT_TRUE(full.ok()) << full.status();
      EXPECT_EQ(SerializeMatchingRelation(*full), full_bytes);
      const std::uint64_t bounded = BoundedCounter() - bounded_before;
      EXPECT_GT(bounded, 0u);
      EXPECT_LE(bounded, DistanceCounter() - computed_before);

      options.max_pairs = 200;
      auto sample = BuildMatchingRelation(relation, kWordAttrs, options);
      ASSERT_TRUE(sample.ok()) << sample.status();
      EXPECT_EQ(SerializeMatchingRelation(*sample), sampled_bytes);
      options.max_pairs = 0;

      auto streamed = approx::BuildStreamingGridProvider(
          relation, RuleSpec{{"text", "tag"}, {"topic"}}, options);
      ASSERT_TRUE(streamed.ok()) << streamed.status();
      auto grid = GridMeasureProvider::Create(
          *full, ResolveRule(*full, RuleSpec{{"text", "tag"}, {"topic"}})
                     .value());
      ASSERT_TRUE(grid.ok());
      for (int x0 = 0; x0 <= dmax; ++x0) {
        for (int x1 = 0; x1 <= dmax; ++x1) {
          (*grid)->SetLhs({x0, x1});
          (*streamed)->SetLhs({x0, x1});
          ASSERT_EQ((*streamed)->lhs_count(), (*grid)->lhs_count());
          for (int y = 0; y <= dmax; ++y) {
            ASSERT_EQ((*streamed)->CountXY({y}), (*grid)->CountXY({y}));
          }
        }
      }

      for (const std::uint64_t target : {std::uint64_t{150}, n * (n - 1) / 2}) {
        approx::ApproxOptions approx;
        approx.sample_target = target;
        auto sampled = approx::SampledMatchingBuilder::Build(
            relation, kWordAttrs, options, approx);
        ASSERT_TRUE(sampled.ok()) << sampled.status();
        for (const MatchingRelation* stratum :
             {&(*sampled)->near(), &(*sampled)->tail()}) {
          EXPECT_EQ(SerializeMatchingRelation(*stratum),
                    SerializeMatchingRelation(NaiveMatching(
                        relation, kWordAttrs, options, PairsOf(*stratum))));
        }
      }

      IncrementalOptions incremental;
      incremental.matching = options;
      auto builder = IncrementalMatchingBuilder::Create(
          relation.schema(), kWordAttrs, incremental);
      ASSERT_TRUE(builder.ok()) << builder.status();
      Rng rng(threads * 10 + static_cast<std::uint64_t>(dmax));
      for (std::size_t next = 0; next < n;) {
        std::vector<std::vector<std::string>> inserts;
        for (std::size_t k = 1 + rng.NextBounded(20); k > 0 && next < n; --k) {
          inserts.push_back(relation.row(next++));
        }
        std::vector<std::uint32_t> deletes;
        for (std::uint32_t id : builder->store().LiveIds()) {
          if (rng.NextBool(0.1)) deletes.push_back(id);
        }
        ASSERT_TRUE(builder->ApplyBatch(inserts, deletes).ok());
        const std::string expected = SerializeMatchingRelation(NaiveMatching(
            builder->store().relation(), kWordAttrs, options,
            AllPairs(builder->store().LiveIds())));
        MatchingRelation maintained = builder->matching();
        maintained.SortByPairs();
        EXPECT_EQ(SerializeMatchingRelation(maintained), expected);
        EXPECT_EQ(SerializeMatchingRelation(builder->Rebuild()), expected);
      }
    }
  }
}

// The metric-work counter: table cells plus query calls, added once per
// producer; a pair the count sketches settle still counts. Over the same
// pairs, the one-shot build, the streamed grid and an exhaustive sampled
// build do the same work.
TEST(MatchingWorkCounterTest, ProducersCountTheSameWork) {
  const Relation relation = OracleRelation(50, 14);
  const MatchingOptions options = OracleOptions(10);
  const std::uint64_t n = relation.num_rows();

  std::uint64_t computed_before = DistanceCounter();
  std::uint64_t bounded_before = BoundedCounter();
  ASSERT_TRUE(BuildMatchingRelation(relation, kAttrs, options).ok());
  const std::uint64_t build = DistanceCounter() - computed_before;
  const std::uint64_t bounded = BoundedCounter() - bounded_before;
  EXPECT_EQ(build, 1871u);
  EXPECT_GT(bounded, 0u);
  EXPECT_LE(bounded, build);

  computed_before = DistanceCounter();
  bounded_before = BoundedCounter();
  ASSERT_TRUE(approx::BuildStreamingGridProvider(
                  relation, RuleSpec{{"rep", "mix"}, {"name", "num"}}, options)
                  .ok());
  EXPECT_EQ(DistanceCounter() - computed_before, build);
  EXPECT_EQ(BoundedCounter() - bounded_before, bounded);

  approx::ApproxOptions approx;
  approx.blocking = false;
  approx.sample_target = n * (n - 1) / 2;
  computed_before = DistanceCounter();
  bounded_before = BoundedCounter();
  auto sampled =
      approx::SampledMatchingBuilder::Build(relation, kAttrs, options, approx);
  ASSERT_TRUE(sampled.ok()) << sampled.status();
  ASSERT_TRUE((*sampled)->exhaustive());
  EXPECT_EQ(DistanceCounter() - computed_before, build);
  // The sampled build's runs, split where its chunks and the full
  // build's differ, settle the same pairs.
  EXPECT_EQ(BoundedCounter() - bounded_before, bounded);
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
  EXPECT_EQ(evals, 4271u);
  EXPECT_LT(evals, delta->num_added() * kAttrs.size());
}

// A later batch over attributes with few distinct values answers every
// attribute from level rows: its metric work is Σ q·(d−1) over the
// attributes, q distinct new values against d distinct live values,
// whatever the window size.
TEST(MatchingWorkCounterTest, SecondBatchCountsQueryRowEvaluations) {
  const Relation source = OracleRelation(80, 15);
  const std::vector<std::string> attrs = {"rep", "mix", "num"};
  IncrementalOptions options;
  options.matching = OracleOptions(10);
  auto builder =
      IncrementalMatchingBuilder::Create(source.schema(), attrs, options);
  ASSERT_TRUE(builder.ok()) << builder.status();
  std::vector<std::vector<std::string>> rows;
  for (std::size_t r = 0; r < 60; ++r) rows.push_back(source.row(r));
  ASSERT_TRUE(builder->ApplyBatch(rows, {}).ok());

  const std::vector<std::vector<std::string>> inserts = {
      source.row(60), source.row(61), source.row(60)};
  const std::uint64_t before = DistanceCounter();
  auto delta = builder->ApplyBatch(inserts, {0, 7, 30});
  ASSERT_TRUE(delta.ok());
  const std::uint64_t evals = DistanceCounter() - before;

  const std::vector<std::uint32_t> live = builder->store().LiveIds();
  const std::uint64_t old = live.size() - inserts.size();
  const std::uint64_t pairs = delta->num_added();
  std::uint64_t expected = 0;
  for (const std::string& name : attrs) {
    const std::size_t col = source.schema().IndexOf(name).value();
    std::unordered_set<std::string> all;
    std::unordered_set<std::string> fresh;
    for (std::size_t p = 0; p < live.size(); ++p) {
      const std::string& value = builder->store().row(live[p])[col];
      all.insert(value);
      if (p >= old) fresh.insert(value);
    }
    const std::uint64_t d = all.size();
    const std::uint64_t q = fresh.size();
    // Rows beat both the table and the metric on this attribute.
    ASSERT_LT(q * (d - 1), d * (d - 1) / 2) << name;
    ASSERT_LT(q * (d - 1), pairs) << name;
    expected += q * (d - 1);
  }
  EXPECT_EQ(evals, expected);
}

}  // namespace
}  // namespace dd
