#include "matching/builder.h"
#include "matching/packed_column.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators.h"
#include "matching/serialization.h"
#include "matching/value_cache.h"
#include "metric/levenshtein.h"
#include "metric/metric.h"

namespace dd {
namespace {

TEST(BucketDistanceTest, CapsAndRounds) {
  EXPECT_EQ(BucketDistance(0.0, 1.0, 10), 0);
  EXPECT_EQ(BucketDistance(3.4, 1.0, 10), 3);
  EXPECT_EQ(BucketDistance(3.6, 1.0, 10), 4);
  EXPECT_EQ(BucketDistance(42.0, 1.0, 10), 10);
  EXPECT_EQ(BucketDistance(10.0, 1.0, 10), 10);
  // Normalized metric spread over the domain.
  EXPECT_EQ(BucketDistance(0.5, 10.0, 10), 5);
  EXPECT_EQ(BucketDistance(1.0, 10.0, 10), 10);
  // Infinity (unparseable numerics) caps at dmax.
  EXPECT_EQ(BucketDistance(std::numeric_limits<double>::infinity(), 1.0, 10),
            10);
}

TEST(MatchingBuilderTest, AllPairsCountAndSymmetry) {
  GeneratedData hotel = HotelExample();
  MatchingOptions opts;
  opts.dmax = 10;
  auto m = BuildMatchingRelation(hotel.relation, {"Address", "Region"}, opts);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->num_tuples(), 15u);  // C(6,2)
  EXPECT_EQ(m->num_attributes(), 2u);
  EXPECT_EQ(m->dmax(), 10);
  // Pairs are distinct, ordered (i < j) and within range.
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (std::size_t r = 0; r < m->num_tuples(); ++r) {
    auto [i, j] = m->pair(r);
    EXPECT_LT(i, j);
    EXPECT_LT(j, 6u);
    EXPECT_TRUE(seen.insert({i, j}).second);
  }
}

TEST(MatchingBuilderTest, LevelsMatchDirectMetricComputation) {
  GeneratedData hotel = HotelExample();
  MatchingOptions opts;
  opts.dmax = 10;
  auto m = BuildMatchingRelation(hotel.relation, {"Address", "Region"}, opts);
  ASSERT_TRUE(m.ok());
  LevenshteinMetric lev;
  for (std::size_t r = 0; r < m->num_tuples(); ++r) {
    auto [i, j] = m->pair(r);
    for (std::size_t a = 0; a < 2; ++a) {
      const std::size_t col = a == 0 ? 1 : 2;  // Address, Region
      double raw = lev.Distance(hotel.relation.at(i, col),
                                hotel.relation.at(j, col));
      EXPECT_EQ(m->level(r, a), BucketDistance(raw, 1.0, 10))
          << "pair (" << i << "," << j << ") attr " << a;
    }
  }
}

TEST(MatchingBuilderTest, PaperRunningExampleStatistics) {
  // The paper's dd1 on Table I: 6 of 15 pairs satisfy the Address
  // threshold and 4 of those the Region threshold (D = 0.4, C = 4/6).
  // The paper computed edit distance with q-grams; under plain
  // Levenshtein the equivalent Region threshold is 4 instead of 3
  // ("Chicago" vs "Chicago, IL" is 4 character inserts).
  GeneratedData hotel = HotelExample();
  MatchingOptions opts;
  opts.dmax = 30;  // Large enough to not clip any distance of Table I.
  auto m = BuildMatchingRelation(hotel.relation, {"Address", "Region"}, opts);
  ASSERT_TRUE(m.ok());
  std::size_t lhs = 0;
  std::size_t both = 0;
  for (std::size_t r = 0; r < m->num_tuples(); ++r) {
    if (m->level(r, 0) <= 8) {
      ++lhs;
      if (m->level(r, 1) <= 4) ++both;
    }
  }
  EXPECT_EQ(lhs, 6u);
  EXPECT_EQ(both, 4u);
}

TEST(MatchingBuilderTest, SamplingBoundsSizeExactly) {
  CoraOptions copts;
  copts.num_entities = 40;
  GeneratedData cora = GenerateCora(copts);
  MatchingOptions opts;
  opts.max_pairs = 500;
  auto m = BuildMatchingRelation(cora.relation, {"author", "title"}, opts);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->num_tuples(), 500u);
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (std::size_t r = 0; r < m->num_tuples(); ++r) {
    auto [i, j] = m->pair(r);
    EXPECT_LT(i, j);
    EXPECT_LT(j, cora.relation.num_rows());
    EXPECT_TRUE(seen.insert({i, j}).second) << "duplicate sampled pair";
  }
}

TEST(MatchingBuilderTest, SamplingIsDeterministic) {
  CoraOptions copts;
  copts.num_entities = 30;
  GeneratedData cora = GenerateCora(copts);
  MatchingOptions opts;
  opts.max_pairs = 200;
  auto a = BuildMatchingRelation(cora.relation, {"author"}, opts);
  auto b = BuildMatchingRelation(cora.relation, {"author"}, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->pairs(), b->pairs());
}

TEST(MatchingBuilderTest, MetricOverrides) {
  GeneratedData hotel = HotelExample();
  MatchingOptions opts;
  opts.dmax = 10;
  opts.metric_overrides["Region"] = "jaccard";
  auto m = BuildMatchingRelation(hotel.relation, {"Region"}, opts);
  ASSERT_TRUE(m.ok());
  JaccardMetric jac;
  for (std::size_t r = 0; r < m->num_tuples(); ++r) {
    auto [i, j] = m->pair(r);
    double raw = jac.Distance(hotel.relation.at(i, 2), hotel.relation.at(j, 2));
    EXPECT_EQ(m->level(r, 0), BucketDistance(raw, 10.0, 10));
  }
}

TEST(MatchingBuilderTest, RejectsBadInputs) {
  GeneratedData hotel = HotelExample();
  MatchingOptions opts;
  EXPECT_FALSE(BuildMatchingRelation(hotel.relation, {}, opts).ok());
  EXPECT_FALSE(
      BuildMatchingRelation(hotel.relation, {"NoSuchAttr"}, opts).ok());
  opts.dmax = 0;
  EXPECT_FALSE(BuildMatchingRelation(hotel.relation, {"Name"}, opts).ok());
  opts.dmax = 10;
  opts.metric_overrides["Name"] = "bogus_metric";
  EXPECT_FALSE(BuildMatchingRelation(hotel.relation, {"Name"}, opts).ok());
  opts.metric_overrides.clear();
  opts.scale_overrides["Name"] = -1.0;
  EXPECT_FALSE(BuildMatchingRelation(hotel.relation, {"Name"}, opts).ok());
}

TEST(MatchingBuilderTest, RejectsNonFiniteScale) {
  // An infinite scale makes 0 * inf = NaN reach the level rounding.
  GeneratedData hotel = HotelExample();
  for (const double scale : {std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
    MatchingOptions opts;
    opts.scale_overrides["Name"] = scale;
    const auto resolved =
        ResolveMatchingMetrics(hotel.relation.schema(), {"Name"}, opts);
    EXPECT_EQ(resolved.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(BuildMatchingRelation(hotel.relation, {"Name"}, opts).ok());
  }
}

// Levenshtein through the reference DP alone, registered under its own
// name so a matching build can run on it.
class ReferenceDpMetric : public DistanceMetric {
 public:
  std::string_view name() const override { return "reference_dp"; }
  double Distance(std::string_view a, std::string_view b) const override {
    return static_cast<double>(lev::ReferenceDp(a, b));
  }
};

// The kernel's oracle at the matching level: Rule 4's attributes on a
// citeseer slice whose descriptions exceed one 64-byte word. The full
// build (level tables and runs through the prepared column), a sampled
// build (each row's sampled partners as one run) and builds on the
// reference DP serialize byte-identically.
TEST(MatchingBuilderTest, CiteseerSliceMatchesReferenceDp) {
  const Status registered = MetricRegistry::Default().Register(
      "reference_dp", [] { return std::make_unique<ReferenceDpMetric>(); });
  ASSERT_TRUE(registered.ok() ||
              registered.code() == StatusCode::kAlreadyExists);
  CiteseerOptions citeseer;
  citeseer.num_entities = 60;
  auto slice = GenerateCiteseer(citeseer).relation.Slice(0, 120);
  ASSERT_TRUE(slice.ok());
  const Relation& relation = *slice;
  const std::vector<std::string> attrs = {"address", "affiliation",
                                          "description", "subject"};
  auto description = relation.schema().IndexOf("description");
  ASSERT_TRUE(description.ok());
  std::size_t long_values = 0;
  for (std::size_t r = 0; r < relation.num_rows(); ++r) {
    long_values += relation.at(r, *description).size() > 64 ? 1 : 0;
  }
  EXPECT_GT(long_values, 0u);

  // All pairs (level tables and one-vs-many runs), then a sample small
  // enough that no table pays off (the metric over each row's sampled
  // partners).
  for (const std::size_t max_pairs : {std::size_t{0}, std::size_t{1500}}) {
    MatchingOptions options;
    options.threads = 2;
    options.max_pairs = max_pairs;
    auto built = BuildMatchingRelation(relation, attrs, options);
    ASSERT_TRUE(built.ok());
    MatchingOptions reference = options;
    for (const std::string& attr : attrs) {
      reference.metric_overrides[attr] = "reference_dp";
    }
    auto m_reference = BuildMatchingRelation(relation, attrs, reference);
    ASSERT_TRUE(m_reference.ok());
    EXPECT_EQ(SerializeMatchingRelation(*built),
              SerializeMatchingRelation(*m_reference))
        << "max_pairs=" << max_pairs;
  }
}

// The value-pair distance cache (matching/value_cache.h): interning is
// first-occurrence-ordered and the precomputed level table agrees with a
// direct metric evaluation for every distinct pair.
TEST(ValueCacheTest, InternedTableMatchesDirectComputation) {
  GeneratedData hotel = HotelExample();
  auto region = hotel.relation.schema().IndexOf("Region");
  ASSERT_TRUE(region.ok());
  const AttributeValueIndex index = InternColumn(
      hotel.relation, AllRows(hotel.relation.num_rows()), *region);
  ASSERT_EQ(index.row_ids.size(), hotel.relation.num_rows());
  // Every row id maps back to its own value.
  for (std::size_t r = 0; r < hotel.relation.num_rows(); ++r) {
    EXPECT_EQ(index.values[index.row_ids[r]], hotel.relation.at(r, *region));
  }
  LevenshteinMetric lev;
  const int dmax = 10;
  auto table = ValuePairLevelTable::Build(index, *lev.Prepare(index.values),
                                          /*scale=*/1.0, dmax,
                                          /*threads=*/2);
  ASSERT_NE(table, nullptr);
  for (std::uint32_t a = 0; a < index.values.size(); ++a) {
    for (std::uint32_t b = 0; b < index.values.size(); ++b) {
      const double raw = lev.Distance(index.values[a], index.values[b]);
      EXPECT_EQ(table->LevelOf(a, b), BucketDistance(raw, 1.0, dmax))
          << "ids " << a << "," << b;
    }
  }
}

TEST(ValueCacheTest, BuildRespectsCellBudget) {
  // Fewer pairs to compute than table cells or row evaluations: neither
  // can pay off.
  EXPECT_EQ(ChooseLevelRoute(/*distinct=*/10, /*query_distinct=*/2,
                             /*pairs_to_compute=*/1),
            LevelRoute::kMetric);
  // One distinct value past the kMaxLevelTableCells bound must decline
  // a table, however many pairs would be computed; rows of every value
  // are past it too.
  std::uint64_t d = 2;
  while (d * (d - 1) / 2 <= kMaxLevelTableCells) ++d;
  EXPECT_EQ(ChooseLevelRoute(d, d, 1ull << 40), LevelRoute::kMetric);
  EXPECT_EQ(ChooseLevelRoute(d - 1, d - 1, 1ull << 40), LevelRoute::kTable);
  // A few query values fit in rows where the table does not.
  EXPECT_EQ(ChooseLevelRoute(d, 4, 1ull << 40), LevelRoute::kRows);
  const std::uint64_t q_max = kMaxLevelTableCells / d;
  EXPECT_EQ(ChooseLevelRoute(d, q_max, 1ull << 40), LevelRoute::kRows);
  EXPECT_EQ(ChooseLevelRoute(d, q_max + 1, 1ull << 40), LevelRoute::kMetric);
}

// The route with the fewest metric evaluations wins: a table at
// d(d-1)/2, rows at q(d-1), the metric at one per pair; ties go to the
// table, then to the metric. With every value a query (q = d) rows
// never win, which keeps every whole-relation producer's choice.
TEST(ValueCacheTest, RouteChoiceTakesFewestEvaluations) {
  // d = 200: table 19900, rows 199 per query value.
  EXPECT_EQ(ChooseLevelRoute(200, 16, 24000), LevelRoute::kRows);
  EXPECT_EQ(ChooseLevelRoute(200, 100, 24000), LevelRoute::kTable);
  EXPECT_EQ(ChooseLevelRoute(200, 16, 16 * 199), LevelRoute::kMetric);
  EXPECT_EQ(ChooseLevelRoute(200, 16, 16 * 199 + 1), LevelRoute::kRows);
  EXPECT_EQ(ChooseLevelRoute(201, 100, 1ull << 40), LevelRoute::kRows);
  EXPECT_EQ(ChooseLevelRoute(201, 101, 1ull << 40), LevelRoute::kTable);
  EXPECT_EQ(ChooseLevelRoute(200, 200, 19900), LevelRoute::kMetric);
  EXPECT_EQ(ChooseLevelRoute(200, 200, 19901), LevelRoute::kTable);
  // One distinct value: every pair takes the equal-value shortcut.
  EXPECT_EQ(ChooseLevelRoute(1, 1, 1000), LevelRoute::kMetric);
  for (std::uint64_t d = 2; d < 300; d += 7) {
    for (const std::uint64_t pairs : {d, d * d / 3, d * d, d * d * d}) {
      const LevelRoute route = ChooseLevelRoute(d, d, pairs);
      EXPECT_NE(route, LevelRoute::kRows) << d << " " << pairs;
      EXPECT_EQ(route == LevelRoute::kTable, d * (d - 1) / 2 < pairs)
          << d << " " << pairs;
    }
  }
}

// Level rows agree with a direct metric evaluation for every query value
// against every value, at any width, and count q(d-1) evaluations.
TEST(ValueCacheTest, LevelRowsMatchDirectComputation) {
  GeneratedData hotel = HotelExample();
  auto address = hotel.relation.schema().IndexOf("Address");
  ASSERT_TRUE(address.ok());
  const AttributeValueIndex index = InternColumn(
      hotel.relation, AllRows(hotel.relation.num_rows()), *address);
  const std::uint32_t d = static_cast<std::uint32_t>(index.distinct());
  ASSERT_GE(d, 4u);
  LevenshteinMetric lev;
  const auto column = lev.Prepare(index.values);
  const int dmax = 6;
  const std::vector<std::uint32_t> queries = {d - 1, 0, d / 2};
  for (const std::size_t threads : {1, 2, 3, 7}) {
    auto rows = ValueLevelRows::Build(index, queries, *column, /*scale=*/1.0,
                                      dmax, threads);
    ASSERT_NE(rows, nullptr);
    EXPECT_EQ(rows->distances_computed(), queries.size() * (d - 1));
    for (const std::uint32_t q : queries) {
      for (std::uint32_t id = 0; id < d; ++id) {
        const double raw = lev.Distance(index.values[q], index.values[id]);
        EXPECT_EQ(rows->Row(q)[id], BucketDistance(raw, 1.0, dmax))
            << "threads " << threads << " ids " << q << "," << id;
      }
    }
  }
}

// Empty columns own no buffer; comparing them must not hand memcmp a
// null pointer (caught by the ASan/UBSan job).
TEST(PackedColumnTest, EmptyColumnsCompareEqual) {
  for (const int dmax : {PackedColumn::kMaxPacked4Dmax, 255}) {
    const PackedColumn a(dmax);
    const PackedColumn b(dmax);
    EXPECT_EQ(a.packed4(), dmax <= PackedColumn::kMaxPacked4Dmax);
    EXPECT_TRUE(a == b) << dmax;
    PackedColumn c(dmax);
    c.PushBack(1);
    EXPECT_FALSE(a == c) << dmax;
  }
}

// Checks the zero-fill invariant: the padding nibble of an odd packed
// column and every byte past the live levels, up to capacity, are zero.
void ExpectZeroTail(const PackedColumn& col) {
  if (col.packed4() && col.size() % 2 == 1) {
    EXPECT_EQ(col.data()[col.size() / 2] >> 4, 0);
  }
  for (std::size_t b = col.packed_bytes(); b < col.capacity_bytes(); ++b) {
    ASSERT_EQ(col.data()[b], 0) << "byte " << b;
  }
}

// The run store writes what one Set per row writes, at either start
// parity, every short run length and both packings, in its single-
// writer and its concurrent form, from contiguous and strided levels.
// It leaves the rows around the run alone, including a neighbour
// sharing its first or last byte, and keeps the tail zero when the run
// ends at the last row.
TEST(PackedColumnTest, StoreRunMatchesPerRowSet) {
  for (const int dmax : {PackedColumn::kMaxPacked4Dmax,
                         PackedColumn::kMaxPacked4Dmax + 1}) {
    for (const std::size_t start : {std::size_t{2}, std::size_t{3}}) {
      for (std::size_t count = 0; count <= 9; ++count) {
        for (const std::size_t after : {std::size_t{0}, std::size_t{1}}) {
          for (const std::size_t stride : {std::size_t{1}, std::size_t{3}}) {
            for (const bool shared : {false, true}) {
              SCOPED_TRACE(::testing::Message()
                           << "dmax=" << dmax << " start=" << start
                           << " count=" << count << " after=" << after
                           << " stride=" << stride << " shared=" << shared);
              Rng rng(count * 100 + start * 10 + after);
              // Rows hold levels in [1, dmax] and the strided gaps 0, so
              // a clobbered neighbour or a misread level shows.
              PackedColumn expected(dmax);
              for (std::size_t r = 0; r < start + count + after; ++r) {
                expected.PushBack(static_cast<Level>(1 + rng.NextBounded(dmax)));
              }
              PackedColumn stored = expected;
              std::vector<Level> levels(count * stride, 0);
              for (std::size_t k = 0; k < count; ++k) {
                const Level v = static_cast<Level>(1 + rng.NextBounded(dmax));
                levels[k * stride] = v;
                expected.Set(start + k, v);
              }
              if (shared) {
                stored.StoreRunShared(start, levels.data(), count, stride);
              } else {
                stored.StoreRun(start, levels.data(), count, stride);
              }
              EXPECT_EQ(stored, expected);
              ExpectZeroTail(stored);
            }
          }
        }
      }
    }
  }
}

TEST(MatchingRelationTest, IndexOf) {
  MatchingRelation m({"a", "b"}, 5);
  auto idx = m.IndexOf("b");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx.value(), 1u);
  EXPECT_FALSE(m.IndexOf("c").ok());
}

// Three attributes, row r holding pair (r, r + 1) and seeded levels in
// [1, dmax], so a leftover level in a dropped byte reads nonzero.
MatchingRelation SeededRelation(int dmax, std::size_t rows) {
  MatchingRelation m({"a", "b", "c"}, dmax);
  Rng rng(static_cast<std::uint64_t>(dmax) * 1000 + rows);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<Level> levels(3);
    for (Level& level : levels) {
      level = static_cast<Level>(1 + rng.NextBounded(dmax));
    }
    m.AddTuple(static_cast<std::uint32_t>(r), static_cast<std::uint32_t>(r + 1),
               levels);
  }
  return m;
}

// Every matching tuple as (pair, levels), sorted: the order-free content.
std::vector<std::pair<std::pair<std::uint32_t, std::uint32_t>,
                      std::vector<Level>>>
SortedContent(const MatchingRelation& m) {
  std::vector<std::pair<std::pair<std::uint32_t, std::uint32_t>,
                        std::vector<Level>>>
      content;
  for (std::size_t r = 0; r < m.num_tuples(); ++r) {
    content.emplace_back(m.pair(r), m.RowLevels(r));
  }
  std::sort(content.begin(), content.end());
  return content;
}

// Removes `rows` and checks the survivors' content, the move bound, and
// the zero-fill invariant past the new size up to capacity.
void ExpectRemoveRows(int dmax, std::size_t size,
                      const std::vector<std::uint64_t>& rows) {
  SCOPED_TRACE(::testing::Message() << "dmax=" << dmax << " size=" << size
                                    << " removing " << rows.size());
  MatchingRelation m = SeededRelation(dmax, size);
  MatchingRelation expected(m.attribute_names(), dmax);
  for (std::size_t r = 0; r < size; ++r) {
    if (!std::binary_search(rows.begin(), rows.end(), r)) {
      expected.AddTuple(m.pair(r).first, m.pair(r).second, m.RowLevels(r));
    }
  }
  const std::size_t moved = m.RemoveRows(rows);
  EXPECT_LE(moved, rows.size());
  ASSERT_EQ(m.num_tuples(), size - rows.size());
  EXPECT_EQ(SortedContent(m), SortedContent(expected));
  for (std::size_t a = 0; a < m.num_attributes(); ++a) {
    const PackedColumn& col = m.column(a);
    EXPECT_EQ(col.packed4(), dmax <= PackedColumn::kMaxPacked4Dmax);
    ASSERT_EQ(col.size(), m.num_tuples());
    SCOPED_TRACE(::testing::Message() << "column " << a);
    ExpectZeroTail(col);
  }
}

TEST(MatchingRelationTest, RemoveRowsKeepsSurvivorsAndZeroTail) {
  for (const int dmax : {PackedColumn::kMaxPacked4Dmax,
                         PackedColumn::kMaxPacked4Dmax + 1}) {
    for (const std::size_t size : {std::size_t{1}, std::size_t{2},
                                   std::size_t{9}, std::size_t{200}}) {
      ExpectRemoveRows(dmax, size, {});
      ExpectRemoveRows(dmax, size, {0});
      ExpectRemoveRows(dmax, size, {size - 1});
      std::vector<std::uint64_t> all(size);
      for (std::size_t r = 0; r < size; ++r) all[r] = r;
      ExpectRemoveRows(dmax, size, all);
      if (size < 9) continue;
      // A run at the tail, and holes at odd and even nibbles.
      ExpectRemoveRows(dmax, size, {size - 4, size - 3, size - 2, size - 1});
      ExpectRemoveRows(dmax, size, {1, 3, 4, 6, size - 2});
      ExpectRemoveRows(dmax, size, {0, 2, 5, 6, 8});
      Rng rng(size);
      std::vector<std::uint64_t> some;
      for (std::size_t r = 0; r < size; ++r) {
        if (rng.NextBool(0.3)) some.push_back(r);
      }
      ExpectRemoveRows(dmax, size, some);
    }
  }
}

// Tail fill moves one row per hole in front of the survivors' tail and
// none for holes that are already at the tail.
TEST(MatchingRelationTest, RemoveRowsMovesOnlyTailRows) {
  for (const int dmax : {PackedColumn::kMaxPacked4Dmax,
                         PackedColumn::kMaxPacked4Dmax + 1}) {
    MatchingRelation m = SeededRelation(dmax, 10);
    EXPECT_EQ(m.RemoveRows(std::vector<std::uint64_t>{7, 8, 9}), 0u);
    EXPECT_EQ(m.RemoveRows(std::vector<std::uint64_t>{0, 6}), 1u);
    EXPECT_EQ(m.pair(0), (std::pair<std::uint32_t, std::uint32_t>{5, 6}));
    EXPECT_EQ(m.RemoveRows(std::vector<std::uint64_t>{0, 1}), 2u);
    EXPECT_EQ(m.num_tuples(), 3u);
  }
}

// AppendRows lays out the same relation as one AddTuple per row, for
// appends that start at odd and at even rows.
TEST(MatchingRelationTest, AppendRowsMatchesAddTuple) {
  for (const int dmax : {PackedColumn::kMaxPacked4Dmax,
                         PackedColumn::kMaxPacked4Dmax + 1}) {
    const MatchingRelation source = SeededRelation(dmax, 31);
    const std::span<const std::pair<std::uint32_t, std::uint32_t>> pairs =
        source.pairs();
    for (const std::size_t base : {std::size_t{2}, std::size_t{3}}) {
      SCOPED_TRACE(::testing::Message() << "dmax=" << dmax
                                        << " base=" << base);
      MatchingRelation added = SeededRelation(dmax, base);
      MatchingRelation appended = SeededRelation(dmax, base);
      std::size_t r = 0;
      for (const std::size_t count : {1, 2, 5, 4, 9, 10}) {
        std::vector<Level> levels;
        for (std::size_t k = r; k < r + count; ++k) {
          const std::vector<Level> row = source.RowLevels(k);
          added.AddTuple(source.pair(k).first, source.pair(k).second, row);
          levels.insert(levels.end(), row.begin(), row.end());
        }
        appended.AppendRows(pairs.subspan(r, count), levels.data());
        r += count;
      }
      ASSERT_EQ(r, source.num_tuples());
      appended.AppendRows({}, nullptr);
      EXPECT_EQ(appended.pairs(), added.pairs());
      for (std::size_t a = 0; a < added.num_attributes(); ++a) {
        EXPECT_EQ(appended.column(a), added.column(a)) << "column " << a;
        ExpectZeroTail(appended.column(a));
      }
    }
  }
}

// SortByPairs orders rows the same through a 32- and a 64-bit
// permutation (relations past 2^32 rows take the 64-bit one).
TEST(MatchingRelationTest, SortByPairsIndexWidthsAgree) {
  for (const int dmax : {PackedColumn::kMaxPacked4Dmax,
                         PackedColumn::kMaxPacked4Dmax + 1}) {
    SCOPED_TRACE(::testing::Message() << "dmax=" << dmax);
    const MatchingRelation sorted = SeededRelation(dmax, 37);
    std::vector<std::size_t> order(sorted.num_tuples());
    for (std::size_t r = 0; r < order.size(); ++r) order[r] = r;
    Rng rng(5);
    for (std::size_t r = order.size(); r > 1; --r) {
      std::swap(order[r - 1], order[rng.NextBounded(r)]);
    }
    MatchingRelation shuffled(sorted.attribute_names(), dmax);
    for (const std::size_t r : order) {
      shuffled.AddTuple(sorted.pair(r).first, sorted.pair(r).second,
                        sorted.RowLevels(r));
    }
    ASSERT_NE(SerializeMatchingRelation(shuffled),
              SerializeMatchingRelation(sorted));
    MatchingRelation narrow = shuffled;
    narrow.SortByPairsWith<std::uint32_t>();
    MatchingRelation wide = shuffled;
    wide.SortByPairsWith<std::uint64_t>();
    shuffled.SortByPairs();
    const std::string expected = SerializeMatchingRelation(sorted);
    EXPECT_EQ(SerializeMatchingRelation(narrow), expected);
    EXPECT_EQ(SerializeMatchingRelation(wide), expected);
    EXPECT_EQ(SerializeMatchingRelation(shuffled), expected);
  }
}

}  // namespace
}  // namespace dd
