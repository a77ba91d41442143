// Invariant tests for the worker-pool stats collector
// (src/obs/pool_stats.h) over real ParallelFor executions: chunk
// accounting matches EffectiveChunks, busy+wait never exceeds the
// invocation wall, the recorded shape is identical at every thread
// count, and recording never perturbs determination output
// (DESIGN.md §12's bit-identity contract).

#include "obs/pool_stats.h"

#include <atomic>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/determiner.h"
#include "core/result_io.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "matching/builder.h"

namespace dd {
namespace {

obs::PoolStatsCollector& Collector() {
  return obs::PoolStatsCollector::Global();
}

// Finds a phase in the snapshot; nullptr when absent.
const obs::PoolPhaseStats* FindPhase(const obs::PoolStatsSnapshot& snapshot,
                                     const std::string& name) {
  for (const obs::PoolPhaseStats& phase : snapshot.phases) {
    if (phase.phase == name) return &phase;
  }
  return nullptr;
}

TEST(PoolStatsTest, DisabledRecordsNothing) {
  Collector().Disable();
  Collector().Reset();
  std::atomic<std::size_t> items{0};
  ParallelFor("pool_test.disabled", 100, 4,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                items += end - begin;
              });
  EXPECT_EQ(items.load(), 100u);
  const obs::PoolStatsSnapshot snapshot = Collector().Snapshot();
  EXPECT_EQ(FindPhase(snapshot, "pool_test.disabled"), nullptr);
}

TEST(PoolStatsTest, ChunkAccountingMatchesEffectiveChunks) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{7}}) {
    Collector().Enable();
    Collector().Reset();
    constexpr std::size_t kCount = 103;
    std::atomic<std::size_t> items{0};
    ParallelFor("pool_test.accounting", kCount, threads,
                [&](std::size_t, std::size_t begin, std::size_t end) {
                  items += end - begin;
                });
    const obs::PoolStatsSnapshot snapshot = Collector().Snapshot();
    Collector().Disable();
    ASSERT_EQ(items.load(), kCount);

    const obs::PoolPhaseStats* phase =
        FindPhase(snapshot, "pool_test.accounting");
    ASSERT_NE(phase, nullptr) << "threads=" << threads;
    EXPECT_EQ(phase->invocations, 1u) << "threads=" << threads;
    EXPECT_EQ(phase->items, kCount) << "threads=" << threads;
    EXPECT_EQ(phase->chunks, EffectiveChunks(kCount, threads))
        << "threads=" << threads;

    // Per-worker chunk counts partition the invocation's chunks.
    std::uint64_t worker_chunks = 0;
    std::uint64_t worker_items = 0;
    for (const obs::PoolWorkerStats& worker : phase->workers) {
      worker_chunks += worker.chunks;
      worker_items += worker.items;
    }
    EXPECT_EQ(worker_chunks, phase->chunks) << "threads=" << threads;
    EXPECT_EQ(worker_items, phase->items) << "threads=" << threads;
  }
}

TEST(PoolStatsTest, BusyPlusWaitBoundedByWall) {
  Collector().Enable();
  Collector().Reset();
  // Enough work per item that busy times are non-trivial.
  std::atomic<std::uint64_t> sink{0};
  for (int repeat = 0; repeat < 3; ++repeat) {
    ParallelFor("pool_test.busywait", 64, 4,
                [&](std::size_t, std::size_t begin, std::size_t end) {
                  std::uint64_t local = 0;
                  for (std::size_t i = begin; i < end; ++i) {
                    for (std::uint64_t k = 0; k < 5000; ++k) {
                      local += i * k + 1;
                    }
                  }
                  sink += local;
                });
  }
  const obs::PoolStatsSnapshot snapshot = Collector().Snapshot();
  Collector().Disable();
  const obs::PoolPhaseStats* phase = FindPhase(snapshot, "pool_test.busywait");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->invocations, 3u);
  EXPECT_GT(phase->busy_ns, 0u);
  // Every worker's busy + wait is bounded by the phase's summed
  // invocation wall time: wait is computed per participated invocation
  // as wall − busy-in-that-invocation (clamped at 0).
  for (const obs::PoolWorkerStats& worker : phase->workers) {
    EXPECT_LE(worker.busy_ns + worker.wait_ns, phase->wall_ns)
        << "slot=" << worker.slot;
  }
  // Busy time can never exceed chunks' share of wall summed across
  // workers times the wall itself; the speedup bound is >= 1 whenever
  // any work was recorded.
  EXPECT_GE(phase->SpeedupBound(), 1.0);
  EXPECT_GE(phase->ImbalancePercent(), 0.0);
  EXPECT_LE(phase->ImbalancePercent(), 100.0);
  EXPECT_GE(phase->CallerShare(), 0.0);
  EXPECT_LE(phase->CallerShare(), 1.0);
}

TEST(PoolStatsTest, ShapeIdenticalAcrossThreadCounts) {
  // The event-stream shape (phases present, invocation and item
  // totals) must not depend on the thread count — only chunk counts
  // do, and those follow EffectiveChunks deterministically.
  struct Shape {
    std::uint64_t invocations;
    std::uint64_t items;
  };
  std::vector<Shape> shapes;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{7}}) {
    Collector().Enable();
    Collector().Reset();
    for (int i = 0; i < 4; ++i) {
      ParallelFor("pool_test.shape", 50, threads,
                  [&](std::size_t, std::size_t, std::size_t) {});
    }
    const obs::PoolStatsSnapshot snapshot = Collector().Snapshot();
    Collector().Disable();
    const obs::PoolPhaseStats* phase = FindPhase(snapshot, "pool_test.shape");
    ASSERT_NE(phase, nullptr) << "threads=" << threads;
    EXPECT_EQ(phase->chunks, 4 * EffectiveChunks(50, threads))
        << "threads=" << threads;
    shapes.push_back({phase->invocations, phase->items});
  }
  ASSERT_EQ(shapes.size(), 3u);
  for (std::size_t i = 1; i < shapes.size(); ++i) {
    EXPECT_EQ(shapes[i].invocations, shapes[0].invocations);
    EXPECT_EQ(shapes[i].items, shapes[0].items);
  }
}

TEST(PoolStatsTest, NestedParallelForNotDoubleCounted) {
  Collector().Enable();
  Collector().Reset();
  // A nested ParallelFor inside a chunk runs inline and must not
  // produce its own events — its work is inside the outer chunk.
  ParallelFor("pool_test.outer", 8, 2,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                  ParallelFor("pool_test.inner", 16, 4,
                              [](std::size_t, std::size_t, std::size_t) {});
                }
              });
  const obs::PoolStatsSnapshot snapshot = Collector().Snapshot();
  Collector().Disable();
  EXPECT_NE(FindPhase(snapshot, "pool_test.outer"), nullptr);
  EXPECT_EQ(FindPhase(snapshot, "pool_test.inner"), nullptr);
}

TEST(PoolStatsTest, ResetClearsRecordedEvents) {
  Collector().Enable();
  ParallelFor("pool_test.reset", 32, 2,
              [](std::size_t, std::size_t, std::size_t) {});
  Collector().Reset();
  const obs::PoolStatsSnapshot snapshot = Collector().Snapshot();
  Collector().Disable();
  EXPECT_EQ(FindPhase(snapshot, "pool_test.reset"), nullptr);
}

// The acceptance contract: determination output is byte-identical with
// the collector on and off (recording never perturbs the partition or
// any merge order).
TEST(PoolStatsTest, DeterminationOutputByteIdenticalWithStatsOn) {
  CoraOptions gopts;
  gopts.num_entities = 24;
  const GeneratedData data = GenerateCora(gopts);
  const RuleSpec rule{{"author", "title"}, {"venue", "year"}};
  MatchingOptions mopts;
  mopts.dmax = 10;
  mopts.max_pairs = 4000;
  auto matching =
      BuildMatchingRelation(data.relation, rule.AllAttributes(), mopts);
  ASSERT_TRUE(matching.ok()) << matching.status().ToString();

  // DA's LHS sweep is the pooled determination phase (DAP runs
  // serially), so the run under test records pool work.
  DetermineOptions dopts;
  dopts.lhs_algorithm = LhsAlgorithm::kDa;
  dopts.threads = 4;

  Collector().Disable();
  auto off = DetermineThresholds(*matching, rule, dopts);
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  off->elapsed_seconds = 0.0;  // Wall time is the one legitimate diff.
  const std::string off_json = DetermineResultToJson(*off, rule);

  Collector().Enable();
  Collector().Reset();
  auto on = DetermineThresholds(*matching, rule, dopts);
  const obs::PoolStatsSnapshot snapshot = Collector().Snapshot();
  Collector().Disable();
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  on->elapsed_seconds = 0.0;
  const std::string on_json = DetermineResultToJson(*on, rule);

  EXPECT_EQ(off_json, on_json);
  // And the run actually recorded pooled work.
  EXPECT_FALSE(snapshot.empty());
}

}  // namespace
}  // namespace dd
