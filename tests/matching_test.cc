#include "matching/builder.h"
#include "matching/packed_column.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <set>
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
// build (level tables and runs through BoundedDistanceMany), a sampled
// build (per-pair BoundedDistance) and builds on the reference DP
// serialize byte-identically.
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
  // enough that no table pays off (one BoundedDistance per pair).
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
    EXPECT_EQ(*index.values[index.row_ids[r]], hotel.relation.at(r, *region));
  }
  LevenshteinMetric lev;
  const int dmax = 10;
  auto table = ValuePairLevelTable::Build(index, lev, /*scale=*/1.0, dmax,
                                          /*pairs_to_compute=*/1u << 20,
                                          /*threads=*/2);
  ASSERT_NE(table, nullptr);
  for (std::uint32_t a = 0; a < index.values.size(); ++a) {
    for (std::uint32_t b = 0; b < index.values.size(); ++b) {
      const double raw = lev.Distance(*index.values[a], *index.values[b]);
      EXPECT_EQ(table->LevelOf(a, b), BucketDistance(raw, 1.0, dmax))
          << "ids " << a << "," << b;
    }
  }
}

TEST(ValueCacheTest, BuildRespectsCellBudget) {
  GeneratedData hotel = HotelExample();
  auto address = hotel.relation.schema().IndexOf("Address");
  ASSERT_TRUE(address.ok());
  const AttributeValueIndex index = InternColumn(
      hotel.relation, AllRows(hotel.relation.num_rows()), *address);
  LevenshteinMetric lev;
  // Fewer pairs to compute than table cells: caching cannot pay off.
  EXPECT_EQ(ValuePairLevelTable::Build(index, lev, 1.0, 10,
                                       /*pairs_to_compute=*/1,
                                       /*threads=*/1),
            nullptr);
  // One distinct value past the kMaxLevelTableCells bound must decline
  // to build, however many pairs would be computed.
  Relation wide(Schema({{"v", AttributeType::kString}}));
  std::uint64_t d = 2;
  while (d * (d - 1) / 2 <= kMaxLevelTableCells) ++d;
  for (std::uint64_t v = 0; v < d; ++v) {
    ASSERT_TRUE(wide.AddRow({std::to_string(v)}).ok());
  }
  const AttributeValueIndex wide_index =
      InternColumn(wide, AllRows(wide.num_rows()), 0);
  ASSERT_EQ(wide_index.distinct(), d);
  EXPECT_EQ(ValuePairLevelTable::Build(wide_index, lev, 1.0, 10,
                                       /*pairs_to_compute=*/1ull << 40,
                                       /*threads=*/1),
            nullptr);
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
    if (col.packed4() && col.size() % 2 == 1) {
      EXPECT_EQ(col.data()[col.size() / 2] >> 4, 0) << "column " << a;
    }
    for (std::size_t b = col.packed_bytes(); b < col.capacity_bytes(); ++b) {
      ASSERT_EQ(col.data()[b], 0) << "column " << a << " byte " << b;
    }
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

// AppendRows lays out the same relation as one AddTuple per row.
TEST(MatchingRelationTest, AppendRowsMatchesAddTuple) {
  for (const int dmax : {PackedColumn::kMaxPacked4Dmax,
                         PackedColumn::kMaxPacked4Dmax + 1}) {
    const MatchingRelation source = SeededRelation(dmax, 31);
    MatchingRelation added = SeededRelation(dmax, 3);
    MatchingRelation appended = SeededRelation(dmax, 3);
    std::vector<Level> levels;
    for (std::size_t r = 0; r < source.num_tuples(); ++r) {
      const std::vector<Level> row = source.RowLevels(r);
      added.AddTuple(source.pair(r).first, source.pair(r).second, row);
      levels.insert(levels.end(), row.begin(), row.end());
    }
    appended.AppendRows(source.pairs(), levels.data());
    appended.AppendRows({}, nullptr);
    EXPECT_EQ(appended.pairs(), added.pairs());
    for (std::size_t a = 0; a < added.num_attributes(); ++a) {
      EXPECT_EQ(appended.column(a), added.column(a)) << "column " << a;
    }
  }
}

}  // namespace
}  // namespace dd
