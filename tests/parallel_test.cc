#include "common/parallel.h"

#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/determiner.h"
#include "core/measure_provider.h"
#include "data/generators.h"
#include "matching/builder.h"
#include "matching/serialization.h"
#include "obs/explain/recorder.h"
#include "obs/pool_stats.h"
#include "tests/test_util.h"

namespace dd {
namespace {

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 4u, 7u}) {
    for (std::size_t count : {0u, 1u, 5u, 100u, 1001u}) {
      std::vector<std::atomic<int>> hits(count);
      for (auto& h : hits) h = 0;
      ParallelFor(count, threads,
                  [&](std::size_t, std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) ++hits[i];
                  });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelForTest, ChunkIndicesAreDistinct) {
  std::mutex mu;
  std::set<std::size_t> chunks;
  ParallelFor(1000, 4, [&](std::size_t chunk, std::size_t, std::size_t) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.insert(chunk);
  });
  EXPECT_EQ(chunks.size(), 4u);
}

TEST(ParallelForTest, EffectiveChunksBounds) {
  EXPECT_EQ(EffectiveChunks(100, 1), 1u);
  EXPECT_EQ(EffectiveChunks(100, 4), 4u);
  EXPECT_EQ(EffectiveChunks(2, 8), 2u);  // Never more chunks than items.
  EXPECT_EQ(EffectiveChunks(0, 8), 1u);
  EXPECT_EQ(EffectiveChunks(100, 0), 1u);
}

TEST(ParallelForTest, ZeroCountDoesNotInvoke) {
  bool invoked = false;
  ParallelFor(0, 4, [&](std::size_t, std::size_t, std::size_t) {
    invoked = true;
  });
  EXPECT_FALSE(invoked);
}

// ---------------------------------------------------------------------
// Bit-identity at any thread count (DESIGN.md §12). The determinism
// contract is exact equality — same serialization bytes, same patterns
// in the same order with the same double utilities, same DaStats and
// ProviderStats — not tolerance-based closeness.

std::vector<std::size_t> TestThreadCounts() {
  std::vector<std::size_t> counts = {2, 7};
  if (DefaultThreads() > 1) counts.push_back(DefaultThreads());
  return counts;
}

// Matching build: same .ddmr bytes (v2 format carries an FNV-1a body
// checksum) at every pool size, for the full and the sampled pair
// paths.
TEST(ParallelDeterminismTest, MatchingBuildSerializationIdentical) {
  const GeneratedData cora = [] {
    CoraOptions options;
    options.num_entities = 40;
    return GenerateCora(options);
  }();
  const std::vector<std::string> attrs = {"author", "title", "venue"};
  for (std::size_t max_pairs : {std::size_t{0}, std::size_t{1500}}) {
    MatchingOptions base;
    base.dmax = 8;
    base.max_pairs = max_pairs;
    base.threads = 1;
    auto reference = BuildMatchingRelation(cora.relation, attrs, base);
    ASSERT_TRUE(reference.ok());
    const std::string expected = SerializeMatchingRelation(*reference);
    for (std::size_t threads : TestThreadCounts()) {
      MatchingOptions options = base;
      options.threads = threads;
      auto built = BuildMatchingRelation(cora.relation, attrs, options);
      ASSERT_TRUE(built.ok());
      EXPECT_EQ(SerializeMatchingRelation(*built), expected)
          << "threads=" << threads << " max_pairs=" << max_pairs;
    }
  }
}

void ExpectSameResult(const DetermineResult& a, const DetermineResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.patterns.size(), b.patterns.size()) << label;
  for (std::size_t p = 0; p < a.patterns.size(); ++p) {
    EXPECT_EQ(a.patterns[p].pattern.lhs, b.patterns[p].pattern.lhs) << label;
    EXPECT_EQ(a.patterns[p].pattern.rhs, b.patterns[p].pattern.rhs) << label;
    EXPECT_EQ(a.patterns[p].utility, b.patterns[p].utility) << label;
    EXPECT_EQ(a.patterns[p].measures.xy_count, b.patterns[p].measures.xy_count)
        << label;
    EXPECT_EQ(a.patterns[p].measures.lhs_count,
              b.patterns[p].measures.lhs_count)
        << label;
  }
  EXPECT_EQ(a.prior_mean_cq, b.prior_mean_cq) << label;
  EXPECT_EQ(a.stats.lhs_total, b.stats.lhs_total) << label;
  EXPECT_EQ(a.stats.lhs_evaluated, b.stats.lhs_evaluated) << label;
  EXPECT_EQ(a.stats.rhs.lattice_size, b.stats.rhs.lattice_size) << label;
  EXPECT_EQ(a.stats.rhs.evaluated, b.stats.rhs.evaluated) << label;
  EXPECT_EQ(a.stats.rhs.pruned, b.stats.rhs.pruned) << label;
  EXPECT_EQ(a.provider_stats.lhs_evaluations, b.provider_stats.lhs_evaluations)
      << label;
  EXPECT_EQ(a.provider_stats.xy_evaluations, b.provider_stats.xy_evaluations)
      << label;
  EXPECT_EQ(a.provider_stats.rows_scanned, b.provider_stats.rows_scanned)
      << label;
}

// Property test: every {DA, DAP} × {PA, PAP} × provider combination over
// Cora, Hotel, and a randomized relation returns the exact sequential
// answer — thresholds, top-l order, utilities, DaStats, ProviderStats —
// at every pool size.
TEST(ParallelDeterminismTest, DeterminationBitIdenticalAcrossThreads) {
  struct Workload {
    std::string name;
    MatchingRelation matching;
    RuleSpec rule;
  };
  std::vector<Workload> workloads;
  {
    CoraOptions options;
    options.num_entities = 30;
    GeneratedData cora = GenerateCora(options);
    MatchingOptions mopts;
    mopts.dmax = 8;
    mopts.max_pairs = 1200;
    auto m = BuildMatchingRelation(cora.relation, {"author", "title", "venue"},
                                   mopts);
    ASSERT_TRUE(m.ok());
    workloads.push_back(
        {"cora", std::move(m).value(), RuleSpec{{"author", "title"}, {"venue"}}});
  }
  workloads.push_back({"hotel", testutil::HotelMatching(),
                       RuleSpec{{"Address"}, {"Region"}}});
  workloads.push_back({"random", testutil::RandomMatching(3, 7, 900, 123),
                       RuleSpec{{"a0", "a1"}, {"a2"}}});

  const LhsAlgorithm lhs_algos[] = {LhsAlgorithm::kDa, LhsAlgorithm::kDap};
  const RhsAlgorithm rhs_algos[] = {RhsAlgorithm::kPa, RhsAlgorithm::kPap};
  for (const Workload& w : workloads) {
    for (LhsAlgorithm lhs : lhs_algos) {
      for (RhsAlgorithm rhs : rhs_algos) {
        for (const char* provider : {"scan", "grid"}) {
          DetermineOptions options;
          options.lhs_algorithm = lhs;
          options.rhs_algorithm = rhs;
          options.provider = provider;
          options.top_l = 3;
          options.threads = 1;
          auto sequential = DetermineThresholds(w.matching, w.rule, options);
          ASSERT_TRUE(sequential.ok());
          for (std::size_t threads : TestThreadCounts()) {
            options.threads = threads;
            auto parallel = DetermineThresholds(w.matching, w.rule, options);
            ASSERT_TRUE(parallel.ok());
            const std::string label =
                w.name + " " + LhsAlgorithmName(lhs) + "+" +
                RhsAlgorithmName(rhs) + " " + provider + " threads=" +
                std::to_string(threads);
            ExpectSameResult(*sequential, *parallel, label);
          }
        }
      }
    }
  }
}

// The MFD / MD special-case determinations obey the same contract.
TEST(ParallelDeterminismTest, SpecialCasesBitIdenticalAcrossThreads) {
  MatchingRelation m = testutil::RandomMatching(3, 6, 700, 55);
  const RuleSpec rule{{"a0", "a1"}, {"a2"}};
  DetermineOptions options;
  options.order = ProcessingOrder::kMidFirst;
  options.top_l = 3;
  const std::vector<std::size_t> thread_counts = TestThreadCounts();
  SetDefaultThreads(1);
  auto mfd_seq = DetermineMfdThresholds(m, rule, options);
  auto md_seq = DetermineMdThresholds(m, rule, options);
  ASSERT_TRUE(mfd_seq.ok());
  ASSERT_TRUE(md_seq.ok());
  for (std::size_t threads : thread_counts) {
    SetDefaultThreads(threads);
    auto mfd = DetermineMfdThresholds(m, rule, options);
    auto md = DetermineMdThresholds(m, rule, options);
    ASSERT_TRUE(mfd.ok());
    ASSERT_TRUE(md.ok());
    ExpectSameResult(*mfd_seq, *mfd, "mfd threads=" + std::to_string(threads));
    ExpectSameResult(*md_seq, *md, "md threads=" + std::to_string(threads));
  }
  SetDefaultThreads(0);
}

// EXPLAIN-instrumented runs: the waterfall totals (and the accounting
// identity evaluated + pruned == candidates) are identical at any
// thread count — audit runs pin the search order, so the parallel gate
// stands down rather than reordering the decision record.
TEST(ParallelDeterminismTest, ExplainWaterfallIdenticalAcrossThreads) {
  MatchingRelation m = testutil::RandomMatching(2, 6, 500, 31);
  const RuleSpec rule{{"a0"}, {"a1"}};
  auto run = [&](std::size_t threads) {
    DetermineOptions options;
    options.threads = threads;
    options.top_l = 2;
    obs::ExplainRecorder& recorder = obs::ExplainRecorder::Global();
    recorder.Enable(obs::ExplainConfig{});
    auto result = DetermineThresholds(m, rule, options);
    obs::ExplainSnapshot snapshot = recorder.Snapshot();
    recorder.Disable();
    EXPECT_TRUE(result.ok());
    return snapshot;
  };
  const obs::ExplainSnapshot base = run(1);
  EXPECT_TRUE(base.waterfall.Accounted());
  for (std::size_t threads : TestThreadCounts()) {
    const obs::ExplainSnapshot snap = run(threads);
    EXPECT_TRUE(snap.waterfall.Accounted()) << threads;
    EXPECT_EQ(snap.waterfall.lhs_seen, base.waterfall.lhs_seen) << threads;
    EXPECT_EQ(snap.waterfall.lhs_bounded_out, base.waterfall.lhs_bounded_out)
        << threads;
    EXPECT_EQ(snap.waterfall.candidates, base.waterfall.candidates) << threads;
    EXPECT_EQ(snap.waterfall.evaluated, base.waterfall.evaluated) << threads;
    EXPECT_EQ(snap.waterfall.pruned_s0, base.waterfall.pruned_s0) << threads;
    EXPECT_EQ(snap.waterfall.pruned_s1, base.waterfall.pruned_s1) << threads;
    EXPECT_EQ(snap.waterfall.pruned_zero_conf,
              base.waterfall.pruned_zero_conf)
        << threads;
    EXPECT_EQ(snap.waterfall.offered, base.waterfall.offered) << threads;
    EXPECT_EQ(snap.events.size(), base.events.size()) << threads;
  }
}

// Determination parallelism has one level (DESIGN.md §12): the pool
// splits C_X across provider clones, never the search inside one LHS
// nor a single count. A scan-provider run at threads=4 must therefore
// record no pool phase besides DA's LHS sweep (DAP records none), and
// still return the sequential answer.
TEST(ParallelProviderTest, PoolPhasesAreAcrossLhsOnly) {
  MatchingRelation m = testutil::RandomMatching(3, 7, 1200, 99);
  const RuleSpec rule{{"a0", "a1"}, {"a2"}};
  obs::PoolStatsCollector& collector = obs::PoolStatsCollector::Global();
  const std::pair<LhsAlgorithm, RhsAlgorithm> algos[] = {
      {LhsAlgorithm::kDa, RhsAlgorithm::kPa},
      {LhsAlgorithm::kDap, RhsAlgorithm::kPap}};
  for (const auto& [lhs, rhs] : algos) {
    DetermineOptions options;
    options.lhs_algorithm = lhs;
    options.rhs_algorithm = rhs;
    options.provider = "scan";
    options.top_l = 3;
    options.threads = 1;
    auto sequential = DetermineThresholds(m, rule, options);
    ASSERT_TRUE(sequential.ok());

    options.threads = 4;
    collector.Enable();
    collector.Reset();
    auto parallel = DetermineThresholds(m, rule, options);
    const obs::PoolStatsSnapshot snapshot = collector.Snapshot();
    collector.Disable();
    ASSERT_TRUE(parallel.ok());

    const std::string label =
        std::string(LhsAlgorithmName(lhs)) + "+" + RhsAlgorithmName(rhs);
    EXPECT_EQ(snapshot.empty(), lhs == LhsAlgorithm::kDap) << label;
    for (const obs::PoolPhaseStats& phase : snapshot.phases) {
      EXPECT_EQ(phase.phase, "da.lhs_search") << label;
    }
    ExpectSameResult(*sequential, *parallel, label);
  }
}

TEST(ParallelProviderTest, DeterminationMatchesSerial) {
  MatchingRelation m = testutil::RandomMatching(2, 6, 600, 77);
  RuleSpec rule{{"a0"}, {"a1"}};
  DetermineOptions serial;
  DetermineOptions parallel;
  parallel.threads = 4;
  auto a = DetermineThresholds(m, rule, serial);
  auto b = DetermineThresholds(m, rule, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_FALSE(a->patterns.empty());
  ASSERT_FALSE(b->patterns.empty());
  EXPECT_NEAR(a->patterns[0].utility, b->patterns[0].utility, 1e-12);
  EXPECT_EQ(a->patterns[0].measures.xy_count, b->patterns[0].measures.xy_count);
}

}  // namespace
}  // namespace dd
