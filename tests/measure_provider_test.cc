#include "core/measure_provider.h"

#include <algorithm>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/measures.h"
#include "core/simd_count.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace dd {
namespace {

using testutil::MakeMatching;
using testutil::RandomMatching;

MatchingRelation TinyMatching() {
  // Columns: x, y. dmax = 4.
  return MakeMatching({"x", "y"}, 4,
                      {{0, 0}, {0, 4}, {1, 1}, {2, 3}, {4, 0}, {4, 4}});
}

ResolvedRule XyRule() { return ResolvedRule{{0}, {1}}; }

TEST(ScanProviderTest, CountsMatchManualEnumeration) {
  MatchingRelation m = TinyMatching();
  ScanMeasureProvider provider(m, XyRule());
  EXPECT_EQ(provider.total(), 6u);

  provider.SetLhs({1});
  EXPECT_EQ(provider.lhs_count(), 3u);  // rows with x <= 1
  EXPECT_EQ(provider.CountXY({0}), 1u);  // (0,0)
  EXPECT_EQ(provider.CountXY({1}), 2u);  // (0,0), (1,1)
  EXPECT_EQ(provider.CountXY({4}), 3u);

  provider.SetLhs({4});
  EXPECT_EQ(provider.lhs_count(), 6u);
  EXPECT_EQ(provider.CountXY({3}), 4u);
}

TEST(ScanProviderTest, KnownCountRebuildsStaleLhsBitmap) {
  // A known count only marks the ϕ[X] bitmap stale: the next CountXY
  // must count against the new ϕ[X], never the previous one's bitmap.
  MatchingRelation m = RandomMatching(3, 8, 500, 41);
  ResolvedRule rule{{0, 1}, {2}};
  ScanMeasureProvider reused(m, rule);
  ScanMeasureProvider fresh(m, rule);
  fresh.SetLhs({2, 3});
  reused.SetLhs({7, 6});
  reused.CountXY({4});
  reused.SetLhsWithKnownCount({2, 3}, fresh.lhs_count());
  for (int y = 0; y <= 8; ++y) {
    EXPECT_EQ(reused.CountXY({y}), fresh.CountXY({y})) << y;
  }
  // An impossible ϕ[X] (negative bound) matches nothing, whether it
  // arrives through SetLhs or as a known count after a broad ϕ[X].
  reused.SetLhs({-1, 8});
  EXPECT_EQ(reused.lhs_count(), 0u);
  EXPECT_EQ(reused.CountXY({8}), 0u);
  reused.SetLhs({8, 8});
  reused.CountXY({8});
  reused.SetLhsWithKnownCount({8, -1}, 0);
  EXPECT_EQ(reused.CountXY({8}), 0u);
}

// count(b ⊨ ϕ) straight from the level columns, over the attributes
// `attrs` at bounds `levels` (plus an optional second attribute list).
std::uint64_t NaiveCount(const MatchingRelation& m,
                         const std::vector<std::size_t>& attrs,
                         const Levels& levels,
                         const std::vector<std::size_t>& more_attrs = {},
                         const Levels& more_levels = {}) {
  std::uint64_t count = 0;
  for (std::size_t row = 0; row < m.num_tuples(); ++row) {
    bool ok = true;
    for (std::size_t a = 0; a < attrs.size() && ok; ++a) {
      ok = static_cast<int>(m.level(row, attrs[a])) <= levels[a];
    }
    for (std::size_t a = 0; a < more_attrs.size() && ok; ++a) {
      ok = static_cast<int>(m.level(row, more_attrs[a])) <= more_levels[a];
    }
    if (ok) ++count;
  }
  return count;
}

TEST(ScanProviderTest, IndexMatchesNaiveCount) {
  // dmax 14/15 straddle the 4-/8-bit packing boundary; the tuple counts
  // cover an empty relation, one partial word, exact words and a tail.
  // Bounds -1 (no tuple), dmax and beyond (every tuple, no bitmap) and
  // 300 (past any uint8) go through both SetLhs paths.
  std::uint64_t seed = 90;
  for (int dmax : {1, 10, 14, 15, 30}) {
    for (std::size_t tuples : {std::size_t{0}, std::size_t{1},
                               std::size_t{63}, std::size_t{64},
                               std::size_t{65}, std::size_t{1000}}) {
      MatchingRelation m = RandomMatching(4, dmax, tuples, ++seed);
      const ResolvedRule rule{{0, 2}, {1, 3}};
      ScanMeasureProvider provider(m, rule);
      ScanMeasureProvider known(m, rule);
      ASSERT_EQ(provider.total(), tuples);
      const std::string label =
          "dmax=" + std::to_string(dmax) + " M=" + std::to_string(tuples);
      const std::vector<int> bounds = {-1,       0,        dmax / 2, dmax - 1,
                                       dmax,     dmax + 1, 300};
      for (std::size_t i = 0; i < bounds.size(); ++i) {
        // Each bound meets the one three places on, so every bound
        // appears in both ϕ[X] slots.
        const Levels lhs = {bounds[i], bounds[(i + 3) % bounds.size()]};
        const std::uint64_t lhs_count = NaiveCount(m, rule.lhs, lhs);
        provider.SetLhs(lhs);
        ASSERT_EQ(provider.lhs_count(), lhs_count) << label;
        known.SetLhsWithKnownCount(lhs, lhs_count);
        ASSERT_EQ(known.lhs_count(), lhs_count) << label;
        for (int y0 : bounds) {
          for (int y1 : {-1, 0, dmax - 1, dmax, 300}) {
            const Levels rhs = {y0, y1};
            const std::uint64_t expected =
                NaiveCount(m, rule.lhs, lhs, rule.rhs, rhs);
            ASSERT_EQ(provider.CountXY(rhs), expected)
                << label << " lhs " << lhs[0] << "," << lhs[1] << " rhs "
                << y0 << "," << y1;
            ASSERT_EQ(known.CountXY(rhs), expected) << label;
          }
        }
      }
      // The index gauge reports (|X|+|Y|)·dmax·⌈M/64⌉·8 bytes.
      const std::uint64_t index_bytes =
          4 * static_cast<std::uint64_t>(dmax) * ((tuples + 63) / 64) * 8;
      EXPECT_EQ(provider.MemoryUsageBytes(), index_bytes) << label;
      EXPECT_EQ(obs::MetricsRegistry::Global()
                    .GetGauge("mem.scan_index_bytes")
                    .value(),
                static_cast<double>(index_bytes))
          << label;
    }
  }
}

TEST(ScanProviderTest, SparseAndDenseMasksMatchNaiveCount) {
  // 201 words, the last one a 37-row tail. Attribute 0's level is the
  // row's word index mod 8, so ϕ[X] bound t on it keeps (t+1)/8 of the
  // words: t = 0 is sparse (26 words), t = 1 just past the cut-off (51)
  // and larger t dense. Attribute 1 thins rows within words (levels 1..10) and is 0
  // at the last row only, whose attribute 0 is 9: ϕ[X] {10, 0} keeps
  // one row in the tail word and {0, 0} none through the AND path.
  constexpr int kDmax = 10;
  constexpr std::size_t kWords = 201;
  constexpr std::size_t kTuples = (kWords - 1) * 64 + 37;
  std::mt19937 rng(77);
  std::vector<std::vector<Level>> rows(kTuples, std::vector<Level>(4));
  for (std::size_t r = 0; r < kTuples; ++r) {
    rows[r][0] = static_cast<Level>((r / 64) % 8);
    rows[r][1] = static_cast<Level>(1 + rng() % kDmax);
    rows[r][2] = static_cast<Level>(rng() % (kDmax + 1));
    rows[r][3] = static_cast<Level>(rng() % (kDmax + 1));
  }
  rows.back()[0] = 9;
  rows.back()[1] = 0;
  MatchingRelation m = MakeMatching({"a", "b", "c", "d"}, kDmax, rows);
  const ResolvedRule rule{{0, 1}, {2, 3}};
  ScanMeasureProvider provider(m, rule);
  ScanMeasureProvider known(m, rule);
  ASSERT_EQ(simd::MaskWords(provider.total()), kWords);

  // The ϕ[X] mask's nonzero words, and how many index bitmaps `levels`
  // select (0 when a bound is negative: nothing is read).
  auto nonzero_words = [&](const Levels& lhs) {
    std::vector<bool> nonzero(kWords, false);
    for (std::size_t r = 0; r < kTuples; ++r) {
      bool ok = true;
      for (std::size_t a = 0; a < lhs.size(); ++a) {
        ok = ok && static_cast<int>(m.level(r, rule.lhs[a])) <= lhs[a];
      }
      if (ok) nonzero[r / 64] = true;
    }
    return static_cast<std::uint64_t>(
        std::count(nonzero.begin(), nonzero.end(), true));
  };
  auto bitmaps = [](const Levels& levels) -> std::uint64_t {
    std::uint64_t n = 0;
    for (int level : levels) {
      if (level < 0) return 0;
      if (level < kDmax) ++n;
    }
    return n;
  };

  std::size_t sparse_masks = 0;
  std::size_t dense_masks = 0;
  const std::vector<Levels> lhss = {{-1, 10}, {10, -1}, {0, 0}, {10, 0},
                                    {0, 10},  {0, 5},   {1, 10}, {1, 5},
                                    {2, 10},  {3, 3},   {7, 10}, {10, 10}};
  for (const Levels& lhs : lhss) {
    const std::string label =
        "lhs " + std::to_string(lhs[0]) + "," + std::to_string(lhs[1]);
    const std::uint64_t lhs_count = NaiveCount(m, rule.lhs, lhs);
    const std::uint64_t nonzero = nonzero_words(lhs);
    const bool sparse = nonzero * ScanMeasureProvider::kSparseWordRatio < kWords;
    const std::uint64_t lhs_bitmaps = bitmaps(lhs);
    const std::uint64_t words_before = provider.stats().words_scanned;
    provider.SetLhs(lhs);
    ASSERT_EQ(provider.lhs_count(), lhs_count) << label;
    EXPECT_EQ(provider.stats().words_scanned - words_before,
              lhs_bitmaps * kWords)
        << label;
    known.SetLhsWithKnownCount(lhs, lhs_count);
    for (int y0 : {-1, 0, 3, 9, 10}) {
      for (int y1 : {-1, 0, 5, 10}) {
        const Levels rhs = {y0, y1};
        const std::uint64_t expected =
            NaiveCount(m, rule.lhs, lhs, rule.rhs, rhs);
        const std::uint64_t before = provider.stats().words_scanned;
        ASSERT_EQ(provider.CountXY(rhs), expected)
            << label << " rhs " << y0 << "," << y1;
        ASSERT_EQ(known.CountXY(rhs), expected) << label;
        // The words read pin the branch: the nonzero words of a sparse
        // mask, every word of a dense one.
        const std::uint64_t inputs = y0 < 0 || y1 < 0 ? 0 : 1 + bitmaps(rhs);
        EXPECT_EQ(provider.stats().words_scanned - before,
                  inputs * (sparse ? nonzero : kWords))
            << label << " rhs " << y0 << "," << y1;
      }
    }
    ++(sparse ? sparse_masks : dense_masks);
  }
  EXPECT_GE(sparse_masks, 4u);
  EXPECT_GE(dense_masks, 4u);
}

TEST(GridProviderTest, AgreesWithScanProviderExhaustively) {
  MatchingRelation m = RandomMatching(2, 6, 300, 23);
  ResolvedRule rule{{0}, {1}};
  ScanMeasureProvider scan(m, rule);
  auto grid = GridMeasureProvider::Create(m, rule);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid.value()->total(), scan.total());
  for (int x = 0; x <= 6; ++x) {
    scan.SetLhs({x});
    grid.value()->SetLhs({x});
    EXPECT_EQ(scan.lhs_count(), grid.value()->lhs_count()) << x;
    for (int y = 0; y <= 6; ++y) {
      EXPECT_EQ(scan.CountXY({y}), grid.value()->CountXY({y}))
          << x << "," << y;
    }
  }
}

TEST(GridProviderTest, ThreeAttributesAgree) {
  MatchingRelation m = RandomMatching(3, 5, 400, 29);
  ResolvedRule rule{{0, 2}, {1}};
  ScanMeasureProvider scan(m, rule);
  auto grid = GridMeasureProvider::Create(m, rule);
  ASSERT_TRUE(grid.ok());
  for (int x0 = 0; x0 <= 5; ++x0) {
    for (int x1 = 0; x1 <= 5; ++x1) {
      scan.SetLhs({x0, x1});
      grid.value()->SetLhs({x0, x1});
      ASSERT_EQ(scan.lhs_count(), grid.value()->lhs_count());
      for (int y = 0; y <= 5; ++y) {
        ASSERT_EQ(scan.CountXY({y}), grid.value()->CountXY({y}));
      }
    }
  }
}

TEST(GridProviderTest, ApplyKeepsCloneSnapshot) {
  MatchingRelation m = TinyMatching();
  auto grid = GridMeasureProvider::Create(m, XyRule());
  ASSERT_TRUE(grid.ok());
  std::unique_ptr<MeasureProvider> clone = grid.value()->CloneForThread();
  ASSERT_NE(clone, nullptr);

  // Adds (1, 2) and (3, 3), removes (4, 4).
  MatchingDelta delta;
  delta.num_attributes = 2;
  delta.added_pairs = {{20, 21}, {22, 23}};
  delta.added_levels = {1, 2, 3, 3};
  delta.removed_pairs = {m.pair(5)};
  delta.removed_levels = {4, 4};
  // The clone keeps reading the pre-Apply grids on another thread
  // while the original swaps in new ones.
  std::thread reader([&clone] {
    for (int i = 0; i < 200; ++i) {
      clone->SetLhs({1});
      EXPECT_EQ(clone->lhs_count(), 3u);
      EXPECT_EQ(clone->CountXY({2}), 2u);  // (0,0), (1,1)
    }
  });
  grid.value()->Apply(delta);
  reader.join();

  EXPECT_EQ(clone->total(), 6u);
  clone->SetLhs({4});
  EXPECT_EQ(clone->CountXY({3}), 4u);  // (0,0), (1,1), (2,3), (4,0)
  GridMeasureProvider& applied = *grid.value();
  EXPECT_EQ(applied.total(), 7u);
  applied.SetLhs({1});
  EXPECT_EQ(applied.lhs_count(), 4u);
  EXPECT_EQ(applied.CountXY({2}), 3u);  // + (1,2)
  applied.SetLhs({4});
  EXPECT_EQ(applied.CountXY({3}), 6u);  // + (1,2), (3,3)
  EXPECT_EQ(applied.CountXY({4}), 7u);

  // An empty delta changes nothing.
  applied.Apply(MatchingDelta{});
  EXPECT_EQ(applied.total(), 7u);
  applied.SetLhs({1});
  EXPECT_EQ(applied.lhs_count(), 4u);
  EXPECT_EQ(applied.CountXY({2}), 3u);
  applied.SetLhs({4});
  EXPECT_EQ(applied.CountXY({3}), 6u);
}

TEST(GridProviderTest, RejectsOversizedGrid) {
  MatchingRelation m = RandomMatching(6, 200, 10, 31);
  ResolvedRule rule{{0, 1, 2}, {3, 4, 5}};
  EXPECT_FALSE(GridMeasureProvider::Create(m, rule, /*max_cells=*/1000).ok());
}

TEST(ProviderStatsTest, CountersTrackWork) {
  MatchingRelation m = TinyMatching();
  ScanMeasureProvider provider(m, XyRule());
  provider.SetLhs({2});
  provider.CountXY({2});
  provider.CountXY({3});
  EXPECT_EQ(provider.stats().lhs_evaluations, 1u);
  EXPECT_EQ(provider.stats().xy_evaluations, 2u);
  EXPECT_EQ(provider.stats().rows_scanned, 18u);  // 3 scans x 6 rows
  // ϕ[X] {2} is 4 rows, so its one-word mask is dense: SetLhs reads
  // the one ϕ[X] bitmap word, each CountXY the mask and a ϕ[Y] bitmap.
  EXPECT_EQ(provider.stats().words_scanned, 5u);
  provider.ResetStats();
  EXPECT_EQ(provider.stats().xy_evaluations, 0u);
  // A known count scans nothing; the CountXY after it still counts one
  // full pass, although it also rebuilds the deferred ϕ[X] bitmap.
  provider.SetLhsWithKnownCount({1}, 3);
  EXPECT_EQ(provider.stats().rows_scanned, 0u);
  EXPECT_EQ(provider.CountXY({1}), 2u);
  EXPECT_EQ(provider.stats().rows_scanned, 6u);
  EXPECT_EQ(provider.CountXY({4}), 3u);
  EXPECT_EQ(provider.stats().rows_scanned, 12u);
  // Unlike rows, the known count's mask rebuild reads its word; ϕ[Y]
  // {4} >= dmax needs no bitmap, so that CountXY reads the mask only.
  EXPECT_EQ(provider.stats().words_scanned, 4u);
}

TEST(ProviderStatsTest, KnownCountPathCountsLhsEvaluations) {
  // SetLhsWithKnownCount must be counted in lhs_evaluations on every
  // provider — scan and grid — exactly like SetLhs, so
  // the counter always means "LHS candidates processed" (DAP hands the
  // provider precomputed D(ϕ) counts through this path, and stats must
  // not depend on which entry point the search used).
  MatchingRelation m = TinyMatching();
  ResolvedRule rule = XyRule();
  ScanMeasureProvider scan(m, rule);
  auto grid = GridMeasureProvider::Create(m, rule);
  ASSERT_TRUE(grid.ok());
  MeasureProvider* providers[] = {&scan, grid.value().get()};
  for (MeasureProvider* provider : providers) {
    provider->SetLhs({2});
    const std::uint64_t known_count = provider->lhs_count();
    provider->ResetStats();
    provider->SetLhsWithKnownCount({2}, known_count);
    provider->CountXY({3});
    EXPECT_EQ(provider->stats().lhs_evaluations, 1u);
    EXPECT_EQ(provider->lhs_count(), known_count);
  }
}

TEST(ProviderStatsTest, GridNeverScansRows) {
  // rows_scanned counts query-time scans only; the grid provider
  // answers everything from its prefix-sum grid, so the counter must
  // stay 0 by contract (build cost is reported via the grid_build span
  // and provider.grid_cells gauge, not here).
  MatchingRelation m = RandomMatching(2, 6, 200, 37);
  ResolvedRule rule{{0}, {1}};
  auto grid = GridMeasureProvider::Create(m, rule);
  ASSERT_TRUE(grid.ok());
  for (int x = 0; x <= 6; ++x) {
    grid.value()->SetLhs({x});
    grid.value()->SetLhsWithKnownCount({x}, grid.value()->lhs_count());
    for (int y = 0; y <= 6; ++y) grid.value()->CountXY({y});
  }
  EXPECT_EQ(grid.value()->stats().rows_scanned, 0u);
  EXPECT_EQ(grid.value()->stats().words_scanned, 0u);
  EXPECT_GT(grid.value()->stats().lhs_evaluations, 0u);
  EXPECT_GT(grid.value()->stats().xy_evaluations, 0u);
}

TEST(MakeMeasureProviderTest, FactoryKinds) {
  MatchingRelation m = TinyMatching();
  ResolvedRule rule = XyRule();
  EXPECT_TRUE(MakeMeasureProvider(m, rule, "scan").ok());
  EXPECT_TRUE(MakeMeasureProvider(m, rule, "grid").ok());
  EXPECT_FALSE(MakeMeasureProvider(m, rule, "scan_subset").ok());
  EXPECT_FALSE(MakeMeasureProvider(m, rule, "bogus").ok());
}

TEST(MeasuresTest, FromCountsComputesAllStatistics) {
  Measures m = MeasuresFromCounts(100, 40, 30, {2, 2}, 10);
  EXPECT_DOUBLE_EQ(m.d, 0.4);
  EXPECT_DOUBLE_EQ(m.confidence, 0.75);
  EXPECT_DOUBLE_EQ(m.support, 0.3);
  EXPECT_DOUBLE_EQ(m.quality, 0.8);
  // S = C * D must hold (paper: S(ϕ) = C(ϕ)D(ϕ)).
  EXPECT_NEAR(m.support, m.confidence * m.d, 1e-12);
}

TEST(MeasuresTest, EmptyDenominators) {
  Measures m = MeasuresFromCounts(0, 0, 0, {1}, 10);
  EXPECT_DOUBLE_EQ(m.d, 0.0);
  EXPECT_DOUBLE_EQ(m.confidence, 0.0);
  EXPECT_DOUBLE_EQ(m.support, 0.0);
}

TEST(MeasuresTest, PaperDd1Example) {
  // D(dd1) = 6/15, C(dd1) = 4/6, S(dd1) = 4/15 on the Hotel instance.
  // Region threshold 4 is the plain-Levenshtein equivalent of the
  // paper's q-gram-based threshold 3 (see matching_test.cc).
  MatchingRelation m = testutil::HotelMatching(/*dmax=*/30);
  ResolvedRule rule{{0}, {1}};
  ScanMeasureProvider provider(m, rule);
  Measures measures =
      ComputeMeasures(&provider, Pattern{{8}, {4}}, /*dmax=*/30);
  EXPECT_NEAR(measures.d, 6.0 / 15.0, 1e-12);
  EXPECT_NEAR(measures.confidence, 4.0 / 6.0, 1e-12);
  EXPECT_NEAR(measures.support, 4.0 / 15.0, 1e-12);
}

}  // namespace
}  // namespace dd
