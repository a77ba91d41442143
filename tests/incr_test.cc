// Property tests for the incremental maintenance subsystem: any
// randomized insert/delete batch sequence applied through
// IncrementalMatchingBuilder + GridMeasureProvider::Apply must be
// indistinguishable — matching relation, counting queries, and
// determined thresholds — from tearing the instance down and rebuilding
// from scratch. 25 seeded sequences over each of two datasets (the
// Cora generator and the paper's Hotel example) give 50 sequences per
// run, each with 5 mixed batches. Sliding-window sequences at dmax 14
// and 15 (the 4-/8-bit packing boundary) also delete tuples the
// previous batch inserted, whose rows sit at M's tail, where delete
// compaction takes the rows it fills holes with.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/determiner.h"
#include "core/measure_provider.h"
#include "data/generators.h"
#include "incr/incremental_builder.h"
#include "incr/maintenance.h"
#include "incr/tuple_store.h"
#include "incr/value_dictionary.h"
#include "matching/value_cache.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace dd {
namespace {

void ExpectEqualMatching(const MatchingRelation& a, const MatchingRelation& b) {
  ASSERT_EQ(a.num_tuples(), b.num_tuples());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  EXPECT_EQ(a.dmax(), b.dmax());
  EXPECT_EQ(a.attribute_names(), b.attribute_names());
  EXPECT_EQ(a.pairs(), b.pairs());
  for (std::size_t c = 0; c < a.num_attributes(); ++c) {
    EXPECT_EQ(a.column(c), b.column(c)) << "column " << c;
  }
}

// Draws one randomized batch against the current live set: up to 7 rows
// sampled (with replacement) from `pool` plus up to 2 distinct deletes.
struct BatchPlan {
  std::vector<std::vector<std::string>> inserts;
  std::vector<std::uint32_t> deletes;
};

BatchPlan DrawBatch(const Relation& pool, const TupleStore& store, Rng* rng) {
  BatchPlan plan;
  const std::size_t n_inserts = rng->NextBounded(8);
  for (std::size_t k = 0; k < n_inserts; ++k) {
    plan.inserts.push_back(pool.row(rng->NextBounded(pool.num_rows())));
  }
  std::vector<std::uint32_t> live = store.LiveIds();
  const std::size_t n_deletes =
      live.empty() ? 0 : static_cast<std::size_t>(rng->NextBounded(3));
  for (std::size_t k = 0; k < n_deletes && !live.empty(); ++k) {
    const std::size_t idx =
        static_cast<std::size_t>(rng->NextBounded(live.size()));
    plan.deletes.push_back(live[idx]);
    live.erase(live.begin() + idx);
  }
  return plan;
}

// The delta-maintained grid must count like a grid built fresh over
// `matching`, on every cell of the threshold lattice (2 lhs, 1 rhs).
void ExpectGridMatchesFresh(GridMeasureProvider& maintained,
                            const MatchingRelation& matching,
                            const ResolvedRule& resolved, int dmax) {
  auto fresh = GridMeasureProvider::Create(matching, resolved);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  ASSERT_EQ(maintained.total(), fresh.value()->total());
  ASSERT_EQ(resolved.lhs.size(), 2u);
  ASSERT_EQ(resolved.rhs.size(), 1u);
  for (int x0 = 0; x0 <= dmax; ++x0) {
    for (int x1 = 0; x1 <= dmax; ++x1) {
      maintained.SetLhs({x0, x1});
      fresh.value()->SetLhs({x0, x1});
      ASSERT_EQ(maintained.lhs_count(), fresh.value()->lhs_count())
          << x0 << "," << x1;
      for (int y = 0; y <= dmax; ++y) {
        ASSERT_EQ(maintained.CountXY({y}), fresh.value()->CountXY({y}))
            << x0 << "," << x1 << "," << y;
      }
    }
  }
}

// One full randomized sequence: 5 batches applied incrementally, with
// the maintained state checked against a from-scratch rebuild after
// every batch and the maintained grids + determined thresholds checked
// at the end.
void RunSequence(const Relation& pool, const RuleSpec& rule, int dmax,
                 std::uint64_t seed) {
  IncrementalOptions options;
  options.matching.dmax = dmax;
  auto builder = IncrementalMatchingBuilder::Create(
      pool.schema(), rule.AllAttributes(), options);
  ASSERT_TRUE(builder.ok()) << builder.status();
  auto resolved = ResolveRule(builder->matching(), rule);
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  auto maintained = GridMeasureProvider::Create(builder->matching(), *resolved);
  ASSERT_TRUE(maintained.ok()) << maintained.status();

  Rng rng(seed);
  for (int batch = 0; batch < 5; ++batch) {
    SCOPED_TRACE(::testing::Message() << "batch " << batch);
    BatchPlan plan = DrawBatch(pool, builder->store(), &rng);
    auto delta = builder->ApplyBatch(plan.inserts, plan.deletes);
    ASSERT_TRUE(delta.ok()) << delta.status();
    maintained.value()->Apply(*delta);

    // The incrementally maintained matching, canonicalized to ascending
    // pair order, must equal the from-scratch rebuild exactly.
    MatchingRelation sorted = builder->matching();
    sorted.SortByPairs();
    ExpectEqualMatching(sorted, builder->Rebuild());
  }

  // The delta-maintained grids must agree with grids built fresh over
  // the final matching, on every cell of the threshold lattice.
  ExpectGridMatchesFresh(*maintained.value(), builder->matching(), *resolved,
                         dmax);
  if (::testing::Test::HasFatalFailure()) return;

  // Determination over the maintained matching must equal determination
  // over the rebuild.
  if (builder->matching().num_tuples() == 0) return;
  DetermineOptions determine;
  determine.provider = "grid";
  determine.top_l = 3;
  auto incremental = DetermineThresholds(builder->matching(), rule, determine);
  auto from_scratch = DetermineThresholds(builder->Rebuild(), rule, determine);
  ASSERT_TRUE(incremental.ok()) << incremental.status();
  ASSERT_TRUE(from_scratch.ok()) << from_scratch.status();
  ASSERT_EQ(incremental->patterns.size(), from_scratch->patterns.size());
  for (std::size_t p = 0; p < incremental->patterns.size(); ++p) {
    EXPECT_EQ(incremental->patterns[p].pattern,
              from_scratch->patterns[p].pattern);
    EXPECT_NEAR(incremental->patterns[p].utility,
                from_scratch->patterns[p].utility, 1e-12);
  }
}

TEST(IncrementalPropertyTest, CoraSequencesMatchRebuild) {
  CoraOptions cora;
  cora.num_entities = 12;
  cora.seed = 2024;
  GeneratedData data = GenerateCora(cora);
  const RuleSpec rule{{"author", "title"}, {"venue"}};
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    SCOPED_TRACE(::testing::Message() << "sequence seed " << seed);
    RunSequence(data.relation, rule, /*dmax=*/6, seed);
  }
}

TEST(IncrementalPropertyTest, HotelSequencesMatchRebuild) {
  GeneratedData hotel = HotelExample();
  const RuleSpec rule{{"Name", "Address"}, {"Region"}};
  for (std::uint64_t seed = 100; seed < 125; ++seed) {
    SCOPED_TRACE(::testing::Message() << "sequence seed " << seed);
    RunSequence(hotel.relation, rule, /*dmax=*/8, seed);
  }
}

// A sliding window of 20 batches after an initial window of 10 tuples.
// Every batch that deletes retires at least one tuple the previous
// batch inserted, whose pairs sit at M's tail, plus the oldest live
// tuple; the batches cycle mixed, delete-only, insert-only. The
// maintained matching and grid are checked after every batch.
void RunSlidingWindow(const Relation& pool, const RuleSpec& rule, int dmax,
                      std::uint64_t seed) {
  IncrementalOptions options;
  options.matching.dmax = dmax;
  auto builder = IncrementalMatchingBuilder::Create(
      pool.schema(), rule.AllAttributes(), options);
  ASSERT_TRUE(builder.ok()) << builder.status();
  auto resolved = ResolveRule(builder->matching(), rule);
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  auto maintained = GridMeasureProvider::Create(builder->matching(), *resolved);
  ASSERT_TRUE(maintained.ok()) << maintained.status();

  Rng rng(seed);
  std::size_t next_row = 0;
  std::vector<std::uint32_t> previous;  // ids the previous batch inserted
  for (int batch = 0; batch <= 20; ++batch) {
    SCOPED_TRACE(::testing::Message() << "batch " << batch);
    std::vector<std::vector<std::string>> inserts;
    std::vector<std::uint32_t> deletes;
    const bool insert = batch == 0 || batch % 3 != 1;
    const bool remove = batch > 0 && batch % 3 != 2;
    if (insert) {
      const std::size_t b = batch == 0 ? 10 : 1 + rng.NextBounded(5);
      for (std::size_t k = 0; k < b; ++k) {
        inserts.push_back(pool.row(next_row++ % pool.num_rows()));
      }
    }
    if (remove && !previous.empty()) {
      for (std::uint32_t id : previous) {
        if (deletes.empty() || rng.NextBool(0.5)) deletes.push_back(id);
      }
      const std::uint32_t oldest = builder->store().LiveIds().front();
      if (oldest != deletes.front()) deletes.push_back(oldest);
    }
    const std::uint32_t first_new = builder->store().next_id();
    auto delta = builder->ApplyBatch(inserts, deletes);
    ASSERT_TRUE(delta.ok()) << delta.status();
    maintained.value()->Apply(*delta);
    previous.clear();
    for (std::uint32_t id = first_new; id < builder->store().next_id(); ++id) {
      previous.push_back(id);
    }

    MatchingRelation sorted = builder->matching();
    sorted.SortByPairs();
    ExpectEqualMatching(sorted, builder->Rebuild());
    ExpectGridMatchesFresh(*maintained.value(), builder->matching(), *resolved,
                           dmax);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// dmax 14 is the widest 4-bit packing and 15 the narrowest 8-bit one.
TEST(IncrementalPropertyTest, SlidingWindowDeletesFromTheTail) {
  CoraOptions cora;
  cora.num_entities = 12;
  cora.seed = 2024;
  GeneratedData data = GenerateCora(cora);
  const RuleSpec rule{{"author", "title"}, {"venue"}};
  for (const int dmax : {14, 15}) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "dmax " << dmax << " sequence seed " << seed);
      RunSlidingWindow(data.relation, rule, dmax, seed);
    }
  }
}

TEST(TupleStoreTest, StableIdsAcrossInsertAndErase) {
  Schema schema({{"a", AttributeType::kString}});
  TupleStore store(schema);
  auto id0 = store.Insert({"x"});
  auto id1 = store.Insert({"y"});
  auto id2 = store.Insert({"z"});
  ASSERT_TRUE(id0.ok() && id1.ok() && id2.ok());
  EXPECT_EQ(*id0, 0u);
  EXPECT_EQ(*id1, 1u);
  EXPECT_EQ(*id2, 2u);
  EXPECT_EQ(store.num_live(), 3u);

  ASSERT_TRUE(store.Erase(1).ok());
  EXPECT_FALSE(store.IsLive(1));
  EXPECT_EQ(store.num_live(), 2u);
  EXPECT_EQ(store.LiveIds(), (std::vector<std::uint32_t>{0, 2}));
  // A dead row keeps its values until the dead outnumber the live by
  // kReleaseSlack (ReleasesDeadValuesInBulk); ids are never reused.
  EXPECT_EQ(store.row(1), (std::vector<std::string>{"y"}));
  auto id3 = store.Insert({"w"});
  ASSERT_TRUE(id3.ok());
  EXPECT_EQ(*id3, 3u);

  EXPECT_FALSE(store.Erase(1).ok());   // Already dead.
  EXPECT_FALSE(store.Erase(99).ok());  // Never existed.
  EXPECT_FALSE(store.Insert({"a", "b"}).ok());  // Arity mismatch.
}

// The O(1) byte gauge equals a full walk over every stored tuple, dead
// ones included, after a seeded insert/erase sequence. The mirror bitmap
// sees the same push_backs as the store's, so it has the same capacity.
TEST(TupleStoreTest, MemoryUsageMatchesFullWalk) {
  TupleStore store(Schema({{"a", AttributeType::kString},
                           {"b", AttributeType::kString}}));
  std::vector<bool> mirror;
  Rng rng(42);
  for (int step = 0; step < 400; ++step) {
    if (store.num_live() > 0 && rng.NextBool(0.3)) {
      const std::vector<std::uint32_t> live = store.LiveIds();
      ASSERT_TRUE(store.Erase(live[rng.NextBounded(live.size())]).ok());
    } else {
      ASSERT_TRUE(store
                      .Insert({std::to_string(step),
                               std::string(rng.NextBounded(80), 'x')})
                      .ok());
      mirror.push_back(true);
    }
    std::size_t walk = mirror.capacity() / 8;
    for (std::uint32_t id = 0; id < store.next_id(); ++id) {
      const std::vector<std::string>& values = store.row(id);
      walk += values.capacity() * sizeof(std::string);
      for (const std::string& value : values) {
        if (value.capacity() > sizeof(std::string)) walk += value.capacity();
      }
    }
    ASSERT_EQ(store.MemoryUsageBytes(), walk) << "step " << step;
  }
}

// Dead tuples' values are freed together once the dead number
// num_live() + kReleaseSlack: the byte gauge falls by their footprint
// and still equals a full walk, live rows keep their values, and ids go
// on from where they were.
TEST(TupleStoreTest, ReleasesDeadValuesInBulk) {
  TupleStore store(Schema({{"a", AttributeType::kString},
                           {"b", AttributeType::kString}}));
  auto value = [](std::uint32_t id) {
    return "a value longer than the inline buffer #" + std::to_string(id);
  };
  const std::uint32_t n = 100;
  std::vector<bool> mirror;
  for (std::uint32_t id = 0; id < n; ++id) {
    ASSERT_TRUE(store.Insert({value(id), "x"}).ok());
    mirror.push_back(true);
  }
  auto walk = [&store, &mirror] {
    std::size_t bytes = mirror.capacity() / 8;
    for (std::uint32_t id = 0; id < store.next_id(); ++id) {
      const std::vector<std::string>& values = store.row(id);
      bytes += values.capacity() * sizeof(std::string);
      for (const std::string& v : values) {
        if (v.capacity() > sizeof(std::string)) bytes += v.capacity();
      }
    }
    return bytes;
  };
  // The release fires on the erase that makes dead >= live + slack.
  const std::uint32_t trigger =
      (n + static_cast<std::uint32_t>(TupleStore::kReleaseSlack) + 1) / 2;
  for (std::uint32_t id = 0; id + 1 < trigger; ++id) {
    ASSERT_TRUE(store.Erase(id).ok());
  }
  EXPECT_EQ(store.row(0), (std::vector<std::string>{value(0), "x"}));
  const std::size_t before = store.MemoryUsageBytes();
  ASSERT_TRUE(store.Erase(trigger - 1).ok());
  const std::size_t after = store.MemoryUsageBytes();
  EXPECT_LT(after, before);
  EXPECT_EQ(after, walk());
  for (std::uint32_t id = 0; id < trigger; ++id) {
    EXPECT_TRUE(store.row(id).empty()) << id;
  }
  for (std::uint32_t id = trigger; id < n; ++id) {
    ASSERT_TRUE(store.IsLive(id));
    EXPECT_EQ(store.row(id), (std::vector<std::string>{value(id), "x"}));
  }
  EXPECT_EQ(store.num_live(), n - trigger);
  auto next = store.Insert({"new", "y"});
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, n);
}

// The retired-row pass splits M across the pool, and each chunk gathers
// its rows' pairs and levels; joined in chunk order, a batch's removed
// (and added) pairs and levels are the same at widths 1 and 3.
TEST(IncrementalBuilderTest, RemovedPairsAndLevelsEqualAtEveryWidth) {
  CoraOptions cora;
  cora.num_entities = 12;
  cora.seed = 5;
  GeneratedData data = GenerateCora(cora);
  std::vector<IncrementalMatchingBuilder> builders;
  for (const std::size_t threads : {1, 3}) {
    IncrementalOptions options;
    options.matching.dmax = 15;
    options.matching.threads = threads;
    auto builder = IncrementalMatchingBuilder::Create(
        data.relation.schema(), {"author", "title", "venue"}, options);
    ASSERT_TRUE(builder.ok()) << builder.status();
    builders.push_back(std::move(*builder));
  }
  Rng rng(3);
  std::size_t next = 0;
  for (int batch = 0; batch < 6; ++batch) {
    SCOPED_TRACE(::testing::Message() << "batch " << batch);
    std::vector<std::vector<std::string>> inserts;
    for (std::size_t k = batch == 0 ? 30 : 6;
         k > 0 && next < data.relation.num_rows(); --k) {
      inserts.push_back(data.relation.row(next++));
    }
    std::vector<std::uint32_t> deletes;
    for (std::uint32_t id : builders[0].store().LiveIds()) {
      if (rng.NextBool(0.2)) deletes.push_back(id);
    }
    auto serial = builders[0].ApplyBatch(inserts, deletes);
    auto wide = builders[1].ApplyBatch(inserts, deletes);
    ASSERT_TRUE(serial.ok() && wide.ok());
    EXPECT_EQ(serial->removed_pairs, wide->removed_pairs);
    EXPECT_EQ(serial->removed_levels, wide->removed_levels);
    EXPECT_EQ(serial->added_pairs, wide->added_pairs);
    EXPECT_EQ(serial->added_levels, wide->added_levels);
    if (batch > 0) {
      EXPECT_GT(serial->num_removed(), 0u);
    }
    ExpectEqualMatching(builders[0].matching(), builders[1].matching());
  }
}

TEST(IncrementalBuilderTest, RejectsSampledMatchingOptions) {
  Schema schema({{"a", AttributeType::kString}});
  IncrementalOptions options;
  options.matching.max_pairs = 100;
  EXPECT_FALSE(
      IncrementalMatchingBuilder::Create(schema, {"a"}, options).ok());
}

TEST(IncrementalBuilderTest, FailedBatchLeavesStateUntouched) {
  GeneratedData hotel = HotelExample();
  IncrementalOptions options;
  options.matching.dmax = 8;
  auto builder = IncrementalMatchingBuilder::Create(
      hotel.relation.schema(), {"Name", "Region"}, options);
  ASSERT_TRUE(builder.ok()) << builder.status();
  std::vector<std::vector<std::string>> rows;
  for (std::size_t r = 0; r < 6; ++r) rows.push_back(hotel.relation.row(r));
  ASSERT_TRUE(builder->ApplyBatch(rows, {}).ok());
  const MatchingRelation matching_before = builder->matching();
  const std::size_t live_before = builder->store().num_live();
  auto dictionaries = [&builder] {
    std::vector<std::map<std::string, std::uint32_t>> dicts;
    for (std::size_t a = 0; a < builder->attributes().size(); ++a) {
      dicts.emplace_back();
      for (const auto& [value, refs] : builder->dictionary(a).Counts()) {
        dicts.back().emplace(value, refs);
      }
    }
    return dicts;
  };
  const auto dicts_before = dictionaries();

  // Bad arity, duplicate delete, and dead-id delete must all fail
  // without mutating anything, the dictionaries included, even when
  // the batch also carries valid inserts and deletes.
  EXPECT_FALSE(builder->ApplyBatch({{"too", "few?"}}, {}).ok());
  EXPECT_FALSE(builder->ApplyBatch({}, {0, 0}).ok());
  EXPECT_FALSE(builder->ApplyBatch({}, {42}).ok());
  EXPECT_FALSE(builder->ApplyBatch({rows[0]}, {1, 1}).ok());
  const std::vector<std::string> valid = {"new", "valid", "row"};
  EXPECT_FALSE(builder->ApplyBatch({valid, {"x"}}, {2}).ok());
  EXPECT_FALSE(builder->ApplyBatch({valid}, {2, 42}).ok());
  ExpectEqualMatching(builder->matching(), matching_before);
  EXPECT_EQ(builder->store().num_live(), live_before);
  EXPECT_EQ(dictionaries(), dicts_before);
  EXPECT_TRUE(testutil::DictionariesHoldLiveValues(*builder));
}

TEST(IncrementalBuilderTest, DeleteEverythingEmptiesTheMatching) {
  GeneratedData hotel = HotelExample();
  IncrementalOptions options;
  options.matching.dmax = 8;
  auto builder = IncrementalMatchingBuilder::Create(
      hotel.relation.schema(), {"Name", "Region"}, options);
  ASSERT_TRUE(builder.ok()) << builder.status();
  std::vector<std::vector<std::string>> rows;
  for (std::size_t r = 0; r < 5; ++r) rows.push_back(hotel.relation.row(r));
  auto resolved = ResolveRule(builder->matching(), {{"Name"}, {"Region"}});
  ASSERT_TRUE(resolved.ok());
  auto grid = GridMeasureProvider::Create(builder->matching(), *resolved);
  ASSERT_TRUE(grid.ok());

  auto grow = builder->ApplyBatch(rows, {});
  ASSERT_TRUE(grow.ok());
  grid.value()->Apply(*grow);
  EXPECT_EQ(builder->matching().num_tuples(), 10u);  // C(5,2)

  auto shrink = builder->ApplyBatch({}, builder->store().LiveIds());
  ASSERT_TRUE(shrink.ok());
  grid.value()->Apply(*shrink);
  EXPECT_EQ(shrink->num_removed(), 10u);
  EXPECT_EQ(shrink->num_added(), 0u);
  EXPECT_EQ(builder->matching().num_tuples(), 0u);
  EXPECT_EQ(builder->store().num_live(), 0u);
  EXPECT_EQ(grid.value()->total(), 0u);
  // The instance keeps working after a full wipe.
  ASSERT_TRUE(builder->ApplyBatch({rows[0], rows[1]}, {}).ok());
  EXPECT_EQ(builder->matching().num_tuples(), 1u);
}

// The dictionaries persist across batches: a wrapping stream of 200
// batches over a window of 20 keeps each one equal to the distinct live
// values, and its id space stops growing once the stream has wrapped,
// because freed ids are reused. Entries created are bounded by the
// values inserted.
TEST(IncrementalBuilderTest, DictionaryStaysBoundedOverAWrappingStream) {
  CoraOptions cora;
  cora.num_entities = 12;
  cora.seed = 9;
  GeneratedData data = GenerateCora(cora);
  const Relation& pool = data.relation;
  ASSERT_LT(pool.num_rows(), 100u);  // the stream wraps before batch 100
  IncrementalOptions options;
  options.matching.dmax = 10;
  const std::vector<std::string> attrs = {"author", "title", "venue"};
  auto builder =
      IncrementalMatchingBuilder::Create(pool.schema(), attrs, options);
  ASSERT_TRUE(builder.ok()) << builder.status();
  obs::Counter& interned =
      obs::MetricsRegistry::Global().GetCounter("incr.values_interned");
  const std::uint64_t interned_before = interned.value();

  constexpr std::size_t kWindow = 20;
  constexpr std::size_t kBatch = 4;
  std::size_t next_row = 0;
  std::uint32_t next_delete = 0;
  std::uint64_t inserted = 0;
  std::vector<std::size_t> bound_at_100(attrs.size());
  for (int batch = 0; batch < 200; ++batch) {
    SCOPED_TRACE(::testing::Message() << "batch " << batch);
    std::vector<std::vector<std::string>> inserts;
    std::vector<std::uint32_t> deletes;
    for (std::size_t k = 0; k < (batch == 0 ? kWindow : kBatch); ++k) {
      inserts.push_back(pool.row(next_row++ % pool.num_rows()));
    }
    if (batch > 0) {
      for (std::size_t k = 0; k < kBatch; ++k) deletes.push_back(next_delete++);
    }
    ASSERT_TRUE(builder->ApplyBatch(inserts, deletes).ok());
    inserted += inserts.size();
    ASSERT_TRUE(testutil::DictionariesHoldLiveValues(*builder));
    for (std::size_t a = 0; a < attrs.size(); ++a) {
      ASSERT_LE(builder->dictionary(a).size(), kWindow);
      if (batch == 100) bound_at_100[a] = builder->dictionary(a).id_bound();
      if (batch > 100) {
        ASSERT_EQ(builder->dictionary(a).id_bound(), bound_at_100[a]) << a;
      }
    }
  }
  const std::uint64_t created = interned.value() - interned_before;
  EXPECT_GT(created, 0u);
  EXPECT_LE(created, inserted * attrs.size());
  MatchingRelation sorted = builder->matching();
  sorted.SortByPairs();
  ExpectEqualMatching(sorted, builder->Rebuild());
}

// The retire mask spans the ids from the oldest live one, so its index
// is id - oldest. Two streams: a FIFO window, whose span stays near the
// window, and one that keeps tuple 0 live throughout, whose span is the
// whole stream. Each batch's removed pairs are exactly the previous
// relation's pairs that touch a deleted id, at widths 1 and 3, and M
// equals Rebuild().
TEST(IncrementalBuilderTest, RetireMaskSpansTheLiveIds) {
  CoraOptions cora;
  cora.num_entities = 12;
  cora.seed = 6;
  GeneratedData data = GenerateCora(cora);
  const Relation& pool = data.relation;
  for (const bool keep_first : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "keep_first " << keep_first);
    std::vector<IncrementalMatchingBuilder> builders;
    for (const std::size_t threads : {1, 3}) {
      IncrementalOptions options;
      options.matching.dmax = 15;
      options.matching.threads = threads;
      auto builder = IncrementalMatchingBuilder::Create(
          pool.schema(), {"author", "title", "venue"}, options);
      ASSERT_TRUE(builder.ok()) << builder.status();
      builders.push_back(std::move(*builder));
    }
    std::size_t next_row = 0;
    for (int batch = 0; batch < 30; ++batch) {
      SCOPED_TRACE(::testing::Message() << "batch " << batch);
      std::vector<std::vector<std::string>> inserts;
      for (std::size_t k = 0; k < (batch == 0 ? 12 : 3); ++k) {
        inserts.push_back(pool.row(next_row++ % pool.num_rows()));
      }
      std::vector<std::uint32_t> deletes;
      const std::vector<std::uint32_t> live = builders[0].store().LiveIds();
      for (std::size_t p = keep_first ? 1 : 0;
           p < live.size() && deletes.size() < (batch == 0 ? 0 : 3); ++p) {
        deletes.push_back(live[p]);
      }
      MatchingRelation before = builders[0].Rebuild();
      std::vector<std::pair<std::uint32_t, std::uint32_t>> expected;
      for (const auto& pair : before.pairs()) {
        for (const std::uint32_t id : deletes) {
          if (pair.first == id || pair.second == id) {
            expected.push_back(pair);
            break;
          }
        }
      }
      auto serial = builders[0].ApplyBatch(inserts, deletes);
      auto wide = builders[1].ApplyBatch(inserts, deletes);
      ASSERT_TRUE(serial.ok() && wide.ok());
      EXPECT_EQ(serial->removed_pairs, wide->removed_pairs);
      EXPECT_EQ(serial->removed_levels, wide->removed_levels);
      std::vector<std::pair<std::uint32_t, std::uint32_t>> removed =
          serial->removed_pairs;
      std::sort(removed.begin(), removed.end());
      EXPECT_EQ(removed, expected);
      for (const IncrementalMatchingBuilder& builder : builders) {
        MatchingRelation sorted = builder.matching();
        sorted.SortByPairs();
        ExpectEqualMatching(sorted, builder.Rebuild());
      }
    }
    EXPECT_EQ(builders[0].store().IsLive(0), keep_first);
  }
}

// A value whose last tuple is deleted and re-inserted in one batch
// keeps its dictionary entry: the batch creates none.
TEST(IncrementalBuilderTest, ValueLeavingAndReturningKeepsItsEntry) {
  GeneratedData hotel = HotelExample();
  IncrementalOptions options;
  options.matching.dmax = 8;
  auto builder = IncrementalMatchingBuilder::Create(
      hotel.relation.schema(), {"Name", "Region"}, options);
  ASSERT_TRUE(builder.ok()) << builder.status();
  std::vector<std::vector<std::string>> rows;
  for (std::size_t r = 0; r < 4; ++r) rows.push_back(hotel.relation.row(r));
  ASSERT_TRUE(builder->ApplyBatch(rows, {}).ok());
  obs::Counter& interned =
      obs::MetricsRegistry::Global().GetCounter("incr.values_interned");
  const std::uint64_t before = interned.value();
  ASSERT_TRUE(builder->ApplyBatch({rows[0]}, {0}).ok());
  EXPECT_EQ(interned.value(), before);
  EXPECT_TRUE(testutil::DictionariesHoldLiveValues(*builder));
  MatchingRelation sorted = builder->matching();
  sorted.SortByPairs();
  ExpectEqualMatching(sorted, builder->Rebuild());
}

TEST(ValueDictionaryTest, CountsReferencesAndReusesFreedIds) {
  ValueDictionary dict;
  const std::uint32_t a = dict.Acquire("alpha");
  const std::uint32_t b = dict.Acquire("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Acquire("alpha"), a);
  EXPECT_EQ(dict.refs(a), 2u);
  EXPECT_EQ(dict.size(), 2u);
  dict.Release(a);
  EXPECT_EQ(dict.size(), 2u);
  dict.Release(a);
  EXPECT_EQ(dict.size(), 1u);
  // The freed id goes to the next new value; the id space stays put.
  EXPECT_EQ(dict.Acquire("gamma"), a);
  EXPECT_EQ(dict.id_bound(), 2u);
  // A value freed and acquired again is a new entry.
  dict.Release(b);
  EXPECT_EQ(dict.Acquire("beta"), b);
  EXPECT_EQ(dict.refs(b), 1u);
  std::map<std::string, std::uint32_t> counts;
  for (const auto& [value, refs] : dict.Counts()) counts.emplace(value, refs);
  EXPECT_EQ(counts, (std::map<std::string, std::uint32_t>{{"beta", 1},
                                                          {"gamma", 1}}));
}

// The views an index hands out survive the dictionary growing, short
// (inline) values included, and the index equals InternColumn's over
// the same values: first-occurrence ids and the same bytes per id.
TEST(ValueDictionaryTest, IndexEqualsInternColumnAfterGrowth) {
  Relation relation(Schema({{"v", AttributeType::kString}}));
  Rng rng(4);
  for (int r = 0; r < 300; ++r) {
    std::string value = "v";
    value += std::to_string(rng.NextBounded(40));
    if (rng.NextBool(0.3)) value += std::string(30, 'x');
    ASSERT_TRUE(relation.AddRow({value}).ok());
  }
  ValueDictionary dict;
  std::vector<std::uint32_t> ids;
  for (std::uint32_t r = 0; r < 150; ++r) {
    ids.push_back(dict.Acquire(relation.at(r, 0)));
  }
  const AttributeValueIndex early = dict.Index(ids);
  const std::vector<std::string> early_values(early.values.begin(),
                                              early.values.end());
  for (std::uint32_t r = 150; r < 300; ++r) {
    ids.push_back(dict.Acquire(relation.at(r, 0)));
  }
  for (int i = 0; i < 1000; ++i) dict.Release(dict.Acquire(std::to_string(i)));
  EXPECT_EQ(std::vector<std::string>(early.values.begin(), early.values.end()),
            early_values);

  const AttributeValueIndex index = dict.Index(ids);
  const AttributeValueIndex interned =
      InternColumn(relation, AllRows(relation.num_rows()), 0);
  EXPECT_EQ(index.row_ids, interned.row_ids);
  EXPECT_EQ(index.values, interned.values);
}

// The engine with a negative drift fraction re-determines every batch,
// so its published pattern must track the from-scratch pipeline
// (DetermineThresholds over a rebuild with the same configuration)
// exactly — counts are identical, so all downstream arithmetic is too.
TEST(MaintenanceEngineTest, ForcedRedeterminationTracksFromScratch) {
  CoraOptions cora;
  cora.num_entities = 10;
  cora.seed = 7;
  GeneratedData data = GenerateCora(cora);
  const RuleSpec rule{{"author", "title"}, {"venue"}};

  MaintenanceOptions options;
  options.incremental.matching.dmax = 6;
  options.determine.top_l = 2;
  options.drift_fraction = -1.0;
  auto engine = MaintenanceEngine::Create(data.relation.schema(), rule, options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  DetermineOptions reference = options.determine;
  reference.provider = "grid";

  Rng rng(5);
  std::uint64_t batches_with_data = 0;
  for (int batch = 0; batch < 4; ++batch) {
    SCOPED_TRACE(::testing::Message() << "batch " << batch);
    BatchPlan plan = DrawBatch(data.relation, engine->builder().store(), &rng);
    auto outcome = engine->ApplyBatch(plan.inserts, plan.deletes);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    if (engine->builder().matching().num_tuples() == 0) continue;
    ++batches_with_data;
    EXPECT_TRUE(outcome->redetermined);

    auto from_scratch =
        DetermineThresholds(engine->builder().Rebuild(), rule, reference);
    ASSERT_TRUE(from_scratch.ok()) << from_scratch.status();
    ASSERT_FALSE(from_scratch->patterns.empty());
    ASSERT_NE(engine->published(), nullptr);
    EXPECT_EQ(engine->published()->pattern, from_scratch->patterns[0].pattern);
    EXPECT_NEAR(engine->published()->utility,
                from_scratch->patterns[0].utility, 1e-12);
  }
  EXPECT_EQ(engine->redeterminations(), batches_with_data);
  EXPECT_EQ(engine->skipped(), 0u);
}

TEST(MaintenanceEngineTest, LargeDriftBoundSkipsRedetermination) {
  CoraOptions cora;
  cora.num_entities = 15;  // >= 30 rows; the test indexes up to row 25.
  // This seed yields a strictly positive utility gap between the top
  // two patterns on the 20-row prefix, which is what makes the
  // drift-bound skip decision meaningful (a zero gap forces
  // re-determination regardless of drift_fraction).
  cora.seed = 99;
  GeneratedData data = GenerateCora(cora);
  const RuleSpec rule{{"author", "title"}, {"venue"}};

  MaintenanceOptions options;
  options.incremental.matching.dmax = 6;
  options.drift_fraction = 1e12;  // Bound far above any achievable drift.
  auto engine = MaintenanceEngine::Create(data.relation.schema(), rule, options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  std::vector<std::vector<std::string>> initial;
  for (std::size_t r = 0; r < 20; ++r) initial.push_back(data.relation.row(r));
  auto first = engine->ApplyBatch(initial, {});
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first->redetermined);
  ASSERT_TRUE(first->update.has_value());
  EXPECT_EQ(first->update->reason, UpdateReason::kInitial);
  const Pattern published = engine->published()->pattern;
  // A positive utility gap is what makes the skip decision meaningful.
  ASSERT_GT(first->update->utility_gap, 0.0);

  for (std::size_t r = 20; r < 26; r += 2) {
    auto outcome =
        engine->ApplyBatch({data.relation.row(r), data.relation.row(r + 1)}, {});
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_FALSE(outcome->redetermined);
    EXPECT_FALSE(outcome->update.has_value());
  }
  EXPECT_EQ(engine->redeterminations(), 1u);
  EXPECT_EQ(engine->skipped(), 3u);
  EXPECT_EQ(engine->updates().size(), 1u);
  EXPECT_EQ(engine->published()->pattern, published);
}

TEST(MaintenanceEngineTest, ZeroDriftFractionRedeterminesOnAnyDrift) {
  GeneratedData hotel = HotelExample();
  const RuleSpec rule{{"Name", "Address"}, {"Region"}};
  MaintenanceOptions options;
  options.incremental.matching.dmax = 8;
  options.drift_fraction = 0.0;
  auto engine = MaintenanceEngine::Create(hotel.relation.schema(), rule, options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  std::vector<std::vector<std::string>> initial;
  for (std::size_t r = 0; r < 5; ++r) initial.push_back(hotel.relation.row(r));
  ASSERT_TRUE(engine->ApplyBatch(initial, {}).ok());
  ASSERT_NE(engine->published(), nullptr);
  // Growing the instance changes D of the published pattern, so drift
  // is nonzero and the zero bound forces a re-determination.
  auto outcome = engine->ApplyBatch({hotel.relation.row(5)}, {});
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_GT(outcome->drift, 0.0);
  EXPECT_TRUE(outcome->redetermined);
}

TEST(MaintenanceEngineTest, EmptyInstancePublishesNothing) {
  Schema schema({{"a", AttributeType::kString}, {"b", AttributeType::kString}});
  MaintenanceOptions options;
  auto engine = MaintenanceEngine::Create(
      schema, RuleSpec{{"a"}, {"b"}}, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto outcome = engine->ApplyBatch({}, {});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(engine->published(), nullptr);
  EXPECT_TRUE(engine->updates().empty());
  // One tuple creates zero pairs: still nothing to determine over.
  ASSERT_TRUE(engine->ApplyBatch({{"x", "y"}}, {}).ok());
  EXPECT_EQ(engine->published(), nullptr);
}

}  // namespace
}  // namespace dd
