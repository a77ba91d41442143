#include "core/candidate_lattice.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dd {
namespace {

TEST(CandidateLatticeTest, SizeAndEncoding) {
  CandidateLattice lat(2, 9);
  EXPECT_EQ(lat.size(), 100u);
  EXPECT_EQ(lat.alive_count(), 100u);
  for (std::size_t idx = 0; idx < lat.size(); ++idx) {
    EXPECT_EQ(lat.IndexOf(lat.LevelsOf(idx)), idx);
  }
  EXPECT_EQ(lat.LevelsOf(0), (Levels{0, 0}));
  EXPECT_EQ(lat.LevelsOf(99), (Levels{9, 9}));
}

TEST(CandidateLatticeTest, KillIsIdempotent) {
  CandidateLattice lat(1, 4);
  EXPECT_TRUE(lat.Kill(2));
  EXPECT_FALSE(lat.Kill(2));
  EXPECT_EQ(lat.alive_count(), 4u);
  EXPECT_FALSE(lat.IsAlive(2));
  EXPECT_TRUE(lat.IsAlive(3));
}

TEST(CandidateLatticeTest, PruneKillsDominatedLowQualityOnly) {
  // dims=2, dmax=9. prune(<5,5>, 0.5): kills cells <= (5,5) with
  // Q <= 0.5, i.e. level sum >= 9.
  CandidateLattice lat(2, 9);
  std::size_t killed = lat.Prune({5, 5}, 0.5);
  // Cells in [0,5]^2 with sum >= 9: (4,5),(5,4),(5,5) -> 3 cells.
  EXPECT_EQ(killed, 3u);
  EXPECT_FALSE(lat.IsAlive(lat.IndexOf({5, 5})));
  EXPECT_FALSE(lat.IsAlive(lat.IndexOf({4, 5})));
  EXPECT_FALSE(lat.IsAlive(lat.IndexOf({5, 4})));
  EXPECT_TRUE(lat.IsAlive(lat.IndexOf({3, 5})));   // sum 8, Q > 0.5
  EXPECT_TRUE(lat.IsAlive(lat.IndexOf({9, 9})));   // not dominated
  EXPECT_TRUE(lat.IsAlive(lat.IndexOf({6, 3})));   // outside the box
}

TEST(CandidateLatticeTest, PruneWithFullDominatorIsGlobalQualityCut) {
  // prune(ϕ0 = all-dmax, q) implements S0 of Proposition 1.
  CandidateLattice lat(2, 4);
  std::size_t killed = lat.Prune({4, 4}, 0.25);
  // Q <= 0.25 <=> sum >= 6: cells (2,4),(3,3),(3,4),(4,2),(4,3),(4,4),(2..)
  // sum>=6 over [0,4]^2: count pairs with a+b >= 6 -> (2,4),(3,3),(3,4),
  // (4,2),(4,3),(4,4) = 6.
  EXPECT_EQ(killed, 6u);
  EXPECT_EQ(lat.alive_count(), 25u - 6u);
}

TEST(CandidateLatticeTest, PruneQualityAboveOneKillsWholeBox) {
  CandidateLattice lat(2, 3);
  std::size_t killed = lat.Prune({1, 1}, 1.0);
  EXPECT_EQ(killed, 4u);  // The whole [0,1]^2 box.
}

TEST(CandidateLatticeTest, PruneCountsOnlyAliveCells) {
  CandidateLattice lat(1, 5);
  lat.Kill(lat.IndexOf({5}));
  std::size_t killed = lat.Prune({5}, 0.0);  // Only level 5 has Q = 0.
  EXPECT_EQ(killed, 0u);
}

TEST(CandidateLatticeTest, BoundaryQualityIsPruned) {
  // Proposition 1 prunes Q(ϕk) <= Vmax inclusively.
  CandidateLattice lat(1, 10);
  lat.Prune({10}, 0.5);  // Q(5) = 0.5 exactly must die.
  EXPECT_FALSE(lat.IsAlive(lat.IndexOf({5})));
  EXPECT_TRUE(lat.IsAlive(lat.IndexOf({4})));  // Q = 0.6
}

class OrderTest : public ::testing::TestWithParam<ProcessingOrder> {};

TEST_P(OrderTest, IsAPermutation) {
  auto order = CandidateLattice::MakeOrder(2, 9, GetParam());
  EXPECT_EQ(order.size(), 100u);
  std::set<std::uint32_t> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), 100u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 99u);
}

INSTANTIATE_TEST_SUITE_P(AllOrders, OrderTest,
                         ::testing::Values(ProcessingOrder::kMidFirst,
                                           ProcessingOrder::kTopFirst,
                                           ProcessingOrder::kBottomFirst,
                                           ProcessingOrder::kLexicographic));

TEST(OrderTest, TopFirstStartsAtAllDmax) {
  auto order = CandidateLattice::MakeOrder(2, 9, ProcessingOrder::kTopFirst);
  CandidateLattice lat(2, 9);
  EXPECT_EQ(lat.LevelsOf(order.front()), (Levels{9, 9}));
  EXPECT_EQ(lat.LevelsOf(order.back()), (Levels{0, 0}));
}

TEST(OrderTest, BottomFirstStartsAtZero) {
  auto order =
      CandidateLattice::MakeOrder(2, 9, ProcessingOrder::kBottomFirst);
  CandidateLattice lat(2, 9);
  EXPECT_EQ(lat.LevelsOf(order.front()), (Levels{0, 0}));
}

TEST(OrderTest, MidFirstStartsNearMiddleSum) {
  auto order = CandidateLattice::MakeOrder(2, 9, ProcessingOrder::kMidFirst);
  CandidateLattice lat(2, 9);
  Levels first = lat.LevelsOf(order.front());
  EXPECT_EQ(LevelSum(first), 9);  // dims*dmax/2 = 9 for 2x9.
  // The extremes come last.
  Levels last = lat.LevelsOf(order.back());
  EXPECT_TRUE(LevelSum(last) == 0 || LevelSum(last) == 18);
}

TEST(OrderTest, ProcessingOrderNames) {
  EXPECT_STREQ(ProcessingOrderName(ProcessingOrder::kMidFirst), "mid-first");
  EXPECT_STREQ(ProcessingOrderName(ProcessingOrder::kTopFirst), "top-first");
}

TEST(CandidateLatticeTest, ResetRevivesEveryCell) {
  CandidateLattice lat(2, 4);
  lat.Kill(3);
  lat.Prune({4, 4}, 0.5);
  lat.Reset();
  EXPECT_EQ(lat.alive_count(), lat.size());
  for (std::size_t idx = 0; idx < lat.size(); ++idx) {
    EXPECT_TRUE(lat.IsAlive(idx)) << idx;
  }
}

// The cells prune(dominator, q) must kill, ascending: every alive cell
// dominated by `dominator` whose Q is <= q, checked cell by cell.
std::vector<std::size_t> NaivePrune(const CandidateLattice& lat,
                                    const Levels& dominator, double q) {
  std::vector<std::size_t> kills;
  for (std::size_t idx = 0; idx < lat.size(); ++idx) {
    if (!lat.IsAlive(idx)) continue;
    const Levels levels = lat.LevelsOf(idx);
    bool dominated = true;
    for (std::size_t d = 0; d < levels.size(); ++d) {
      dominated = dominated && levels[d] <= dominator[d];
    }
    if (dominated && DependentQuality(levels, lat.dmax()) <= q) {
      kills.push_back(idx);
    }
  }
  return kills;
}

TEST(CandidateLatticeTest, PruneMatchesNaiveReference) {
  struct Shape {
    std::size_t dims;
    int dmax;
  };
  std::vector<Shape> shapes;
  for (std::size_t dims = 1; dims <= 4; ++dims) {
    for (int dmax : {1, 2, 15, 16}) shapes.push_back({dims, dmax});
  }
  shapes.push_back({1, 255});
  Rng rng(20260);
  for (const Shape& shape : shapes) {
    CandidateLattice lat(shape.dims, shape.dmax);
    const long max_sum = static_cast<long>(shape.dims) * shape.dmax;
    for (int round = 0; round < 6; ++round) {
      lat.Reset();
      // Kill a random few cells first, so some dominated cells are dead.
      for (int k = 0; k < 3; ++k) lat.Kill(rng.NextBounded(lat.size()));
      // A few prunes per round, each against the naive reference.
      for (int call = 0; call < 8; ++call) {
        Levels dominator(shape.dims);
        for (int& level : dominator) {
          level = static_cast<int>(
              rng.NextBounded(static_cast<std::uint64_t>(shape.dmax) + 1));
        }
        if (call == 0) dominator.assign(shape.dims, shape.dmax);  // S0
        double q;
        switch (call % 4) {
          case 0:
          case 1: {
            // Exactly at a level-sum boundary: Q of the cells with that
            // sum, computed as DependentQuality computes it.
            const long sum = static_cast<long>(
                rng.NextBounded(static_cast<std::uint64_t>(max_sum) + 1));
            q = 1.0 - static_cast<double>(sum) / static_cast<double>(max_sum);
            break;
          }
          case 2:
            q = call < 4 ? 0.0 : 1.0;
            break;
          default:
            q = rng.NextDouble();
            break;
        }
        const std::vector<std::size_t> expected =
            NaivePrune(lat, dominator, q);
        const std::size_t alive_before = lat.alive_count();
        std::vector<std::size_t> kills;
        const std::size_t killed = lat.Prune(
            dominator, q, [&](std::size_t idx) { kills.push_back(idx); });
        ASSERT_EQ(kills, expected)
            << "dims=" << shape.dims << " dmax=" << shape.dmax
            << " dominator=" << LevelsToString(dominator) << " q=" << q;
        EXPECT_EQ(killed, expected.size());
        EXPECT_EQ(lat.alive_count(), alive_before - killed);
        for (std::size_t idx : expected) EXPECT_FALSE(lat.IsAlive(idx));
      }
    }
  }
}

TEST(CandidateLatticeTest, PruneOverloadsAgree) {
  // The two-argument form kills what the callback form kills; a q far
  // above 1 (Vmax over a tiny confidence) kills the whole box.
  CandidateLattice with_callback(3, 15);
  CandidateLattice plain(3, 15);
  std::size_t calls = 0;
  const std::size_t a =
      with_callback.Prune({9, 15, 4}, 1e30, [&](std::size_t) { ++calls; });
  const std::size_t b = plain.Prune({9, 15, 4}, 1e30);
  EXPECT_EQ(a, 10u * 16u * 5u);
  EXPECT_EQ(b, a);
  EXPECT_EQ(calls, a);
  for (std::size_t idx = 0; idx < plain.size(); ++idx) {
    EXPECT_EQ(plain.IsAlive(idx), with_callback.IsAlive(idx)) << idx;
  }
}

TEST(CandidateLatticeTest, ThreeDimensionalEncoding) {
  CandidateLattice lat(3, 4);
  EXPECT_EQ(lat.size(), 125u);
  Levels l = {1, 2, 3};
  EXPECT_EQ(lat.LevelsOf(lat.IndexOf(l)), l);
}

}  // namespace
}  // namespace dd
