// Tests for the Determination EXPLAIN layer (DESIGN.md §11): recorder
// accounting identity, sampling invariance, ring retention, the
// one-thread contract, audit/landscape formatting, and the
// metrics-registry integration.

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/determiner.h"
#include "data/generators.h"
#include "matching/builder.h"
#include "obs/explain/audit.h"
#include "obs/explain/recorder.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "test_util.h"

namespace dd {
namespace {

// Ensures the global recorder is off when a test scope exits, so one
// test's recording can never leak into another binary-shared test.
struct ScopedRecording {
  explicit ScopedRecording(const obs::ExplainConfig& config) {
    obs::ExplainRecorder::Global().Enable(config);
  }
  ~ScopedRecording() { obs::ExplainRecorder::Global().Disable(); }
};

MatchingRelation CoraMatching() {
  CoraOptions options;
  options.num_entities = 40;
  GeneratedData data = GenerateCora(options);
  MatchingOptions mopts;
  mopts.dmax = 10;
  mopts.max_pairs = 4000;
  auto matching = BuildMatchingRelation(
      data.relation, {"author", "title", "venue", "year"}, mopts);
  return std::move(matching).value();
}

struct ExplainedRun {
  DetermineResult result;
  obs::ExplainSnapshot snapshot;
};

ExplainedRun DetermineWithExplain(const MatchingRelation& matching,
                                  const RuleSpec& rule,
                                  const DetermineOptions& options,
                                  const obs::ExplainConfig& config) {
  ScopedRecording recording(config);
  auto result = DetermineThresholds(matching, rule, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  ExplainedRun run;
  run.result = std::move(*result);
  run.snapshot = obs::ExplainRecorder::Global().Snapshot();
  return run;
}

void ExpectSamePatterns(const std::vector<DeterminedPattern>& a,
                        const std::vector<DeterminedPattern>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pattern.lhs, b[i].pattern.lhs) << "pattern " << i;
    EXPECT_EQ(a[i].pattern.rhs, b[i].pattern.rhs) << "pattern " << i;
    // Bitwise: the recorder must not perturb any arithmetic.
    EXPECT_EQ(a[i].utility, b[i].utility) << "pattern " << i;
    EXPECT_EQ(a[i].measures.confidence, b[i].measures.confidence);
    EXPECT_EQ(a[i].measures.quality, b[i].measures.quality);
  }
}

DetermineOptions Combo(LhsAlgorithm lhs, RhsAlgorithm rhs) {
  DetermineOptions options;
  options.lhs_algorithm = lhs;
  options.rhs_algorithm = rhs;
  options.top_l = 3;
  options.provider = "grid";
  return options;
}

TEST(ExplainRecorderTest, DisabledRecorderIsInert) {
  obs::ExplainRecorder::Global().Disable();
  EXPECT_EQ(obs::ExplainRecorder::Active(), nullptr);
  // A determination with the recorder off must not create any state.
  MatchingRelation matching = testutil::HotelMatching();
  RuleSpec rule{{"Address"}, {"Region"}};
  auto result = DetermineThresholds(matching, rule, DetermineOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(obs::ExplainRecorder::Active(), nullptr);
}

TEST(ExplainRecorderTest, EnableResetsPreviousRun) {
  MatchingRelation matching = testutil::HotelMatching();
  RuleSpec rule{{"Address"}, {"Region"}};
  obs::ExplainConfig config;
  ExplainedRun first = DetermineWithExplain(
      matching, rule, Combo(LhsAlgorithm::kDa, RhsAlgorithm::kPa), config);
  ExplainedRun second = DetermineWithExplain(
      matching, rule, Combo(LhsAlgorithm::kDa, RhsAlgorithm::kPa), config);
  // The second Enable started from zero, not from accumulated totals.
  EXPECT_EQ(first.snapshot.waterfall.candidates,
            second.snapshot.waterfall.candidates);
  EXPECT_EQ(first.snapshot.events.size(), second.snapshot.events.size());
}

// Satellite: the per-event recorder cross-checks the aggregate
// `pruned = lattice_size - evaluated` accounting of PaStats/DaStats —
// every lattice candidate accounted for exactly once, on Cora and
// Hotel, for all four algorithm combinations, recorder on or off.
TEST(ExplainAccountingTest, AccountsEveryCandidateExactlyOnce) {
  const MatchingRelation cora = CoraMatching();
  const MatchingRelation hotel = testutil::HotelMatching();
  const RuleSpec cora_rule{{"author", "title"}, {"venue", "year"}};
  const RuleSpec hotel_rule{{"Address"}, {"Region"}};
  const struct {
    const MatchingRelation* matching;
    const RuleSpec* rule;
  } datasets[] = {{&cora, &cora_rule}, {&hotel, &hotel_rule}};
  const struct {
    LhsAlgorithm lhs;
    RhsAlgorithm rhs;
  } combos[] = {{LhsAlgorithm::kDa, RhsAlgorithm::kPa},
                {LhsAlgorithm::kDa, RhsAlgorithm::kPap},
                {LhsAlgorithm::kDap, RhsAlgorithm::kPa},
                {LhsAlgorithm::kDap, RhsAlgorithm::kPap}};

  for (const auto& dataset : datasets) {
    for (const auto& combo : combos) {
      const DetermineOptions options = Combo(combo.lhs, combo.rhs);
      auto plain = DetermineThresholds(*dataset.matching, *dataset.rule,
                                       options);
      ASSERT_TRUE(plain.ok());
      ExplainedRun explained = DetermineWithExplain(
          *dataset.matching, *dataset.rule, options, obs::ExplainConfig{});
      const obs::ExplainWaterfall& w = explained.snapshot.waterfall;
      SCOPED_TRACE(StrFormat("lhs_algo=%s rhs_algo=%s rhs_dims=%zu",
                             LhsAlgorithmName(combo.lhs),
                             RhsAlgorithmName(combo.rhs),
                             dataset.rule->rhs.size()));
      // The waterfall identity, against the recorder's own totals…
      EXPECT_TRUE(w.Accounted())
          << "evaluated " << w.evaluated << " + pruned " << w.Pruned()
          << " != candidates " << w.candidates;
      // …and against the aggregate stats the algorithms always kept.
      // An LHS that DAP skipped unsearched counts its C_Y cells as
      // pruned in the stats but never enters the recorder's lattices.
      const DaStats& stats = explained.result.stats;
      std::uint64_t rhs_cells = 1;
      for (std::size_t d = 0; d < explained.snapshot.rhs_dims; ++d) {
        rhs_cells *= static_cast<std::uint64_t>(explained.snapshot.dmax) + 1;
      }
      const std::uint64_t skipped_cells = w.lhs_skipped * rhs_cells;
      EXPECT_EQ(w.candidates + skipped_cells, stats.rhs.lattice_size);
      EXPECT_EQ(w.evaluated, stats.rhs.evaluated);
      EXPECT_EQ(w.Pruned() + skipped_cells, stats.rhs.pruned);
      EXPECT_EQ(w.lhs_seen, stats.lhs_evaluated);
      EXPECT_EQ(w.lhs_skipped, stats.lhs_bounded);
      EXPECT_EQ(w.lhs_seen + w.lhs_skipped, stats.lhs_total);
      // Recording on vs off returns identical answers.
      ExpectSamePatterns(plain->patterns, explained.result.patterns);
      // With sample_every == 1 every candidate decision is in the ring.
      EXPECT_EQ(explained.snapshot.events.size(), w.candidates);
      EXPECT_EQ(explained.snapshot.sampled_out, 0u);
    }
  }
}

// Satellite: property test — enabling the recorder at any sample rate
// (and with a pathologically small ring) never changes the determined
// thresholds, utilities, or top-l ranking.
TEST(ExplainInvarianceTest, RecorderNeverChangesResults) {
  const MatchingRelation matching = testutil::RandomMatching(4, 8, 600, 7);
  const RuleSpec rule{{"a0", "a1"}, {"a2", "a3"}};
  DetermineOptions options = Combo(LhsAlgorithm::kDap, RhsAlgorithm::kPap);
  options.top_l = 5;
  auto baseline = DetermineThresholds(matching, rule, options);
  ASSERT_TRUE(baseline.ok());
  ASSERT_FALSE(baseline->patterns.empty());

  for (const std::size_t sample_every : {1u, 5u, 64u}) {
    obs::ExplainConfig config;
    config.sample_every = sample_every;
    config.ring_capacity = 8;  // Force overwrites; totals must survive.
    ExplainedRun explained =
        DetermineWithExplain(matching, rule, options, config);
    SCOPED_TRACE(StrFormat("sample_every=%zu", sample_every));
    ExpectSamePatterns(baseline->patterns, explained.result.patterns);
    EXPECT_TRUE(explained.snapshot.waterfall.Accounted());
    // The ring kept at most its capacity, but exact totals survived
    // regardless.
    EXPECT_EQ(explained.snapshot.waterfall.candidates,
              baseline->stats.rhs.lattice_size);
  }
}

// Every field of a recorded event except the sampled eval latency, which
// is a wall-clock reading.
void ExpectSameEvents(const std::vector<obs::ExplainEvent>& a,
                      const std::vector<obs::ExplainEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(a[i].lhs_seq, b[i].lhs_seq);
    EXPECT_EQ(a[i].rhs_index, b[i].rhs_index);
    EXPECT_EQ(a[i].rank, b[i].rank);
    EXPECT_EQ(a[i].outcome, b[i].outcome);
    EXPECT_EQ(a[i].bound_kind, b[i].bound_kind);
    EXPECT_EQ(a[i].offered, b[i].offered);
    EXPECT_EQ(a[i].forced, b[i].forced);
    EXPECT_EQ(a[i].xy_count, b[i].xy_count);
    EXPECT_EQ(a[i].confidence, b[i].confidence);
    EXPECT_EQ(a[i].quality, b[i].quality);
    EXPECT_EQ(a[i].cq, b[i].cq);
    EXPECT_EQ(a[i].bound, b[i].bound);
  }
}

// What a fresh recording with an `n`-event ring reports for the run
// `full` recorded without overwrites: its newest n events, the rest
// counted as dropped, every total unchanged.
obs::ExplainSnapshot NewestEvents(const obs::ExplainSnapshot& full,
                                  std::size_t n) {
  obs::ExplainSnapshot expected = full;
  expected.config.ring_capacity = n;
  if (expected.events.size() > n) {
    expected.events.erase(expected.events.begin(),
                          expected.events.end() - static_cast<long>(n));
  }
  expected.recorded = expected.events.size();
  expected.dropped = full.recorded - expected.recorded;
  return expected;
}

void ExpectSameSnapshot(const obs::ExplainSnapshot& a,
                        const obs::ExplainSnapshot& b) {
  EXPECT_EQ(a.config.sample_every, b.config.sample_every);
  EXPECT_EQ(a.config.ring_capacity, b.config.ring_capacity);
  EXPECT_EQ(a.run_label, b.run_label);
  EXPECT_EQ(a.rhs_dims, b.rhs_dims);
  EXPECT_EQ(a.dmax, b.dmax);
  const obs::ExplainWaterfall& aw = a.waterfall;
  const obs::ExplainWaterfall& bw = b.waterfall;
  EXPECT_EQ(aw.lhs_seen, bw.lhs_seen);
  EXPECT_EQ(aw.lhs_bounded_out, bw.lhs_bounded_out);
  EXPECT_EQ(aw.lhs_skipped, bw.lhs_skipped);
  EXPECT_EQ(aw.candidates, bw.candidates);
  EXPECT_EQ(aw.evaluated, bw.evaluated);
  EXPECT_EQ(aw.pruned_s0, bw.pruned_s0);
  EXPECT_EQ(aw.pruned_s1, bw.pruned_s1);
  EXPECT_EQ(aw.pruned_zero_conf, bw.pruned_zero_conf);
  EXPECT_EQ(aw.offered, bw.offered);
  EXPECT_EQ(a.recorded, b.recorded);
  EXPECT_EQ(a.sampled_out, b.sampled_out);
  EXPECT_EQ(a.dropped, b.dropped);
  ASSERT_EQ(a.lhs.size(), b.lhs.size());
  for (std::size_t i = 0; i < a.lhs.size(); ++i) {
    EXPECT_EQ(a.lhs[i].levels, b.lhs[i].levels);
    EXPECT_EQ(a.lhs[i].lhs_count, b.lhs[i].lhs_count);
    EXPECT_EQ(a.lhs[i].initial_bound, b.lhs[i].initial_bound);
    EXPECT_EQ(a.lhs[i].initial_kind, b.lhs[i].initial_kind);
  }
  ExpectSameEvents(a.events, b.events);
}

// An 8-event ring keeps exactly the newest 8 kept events of the run, in
// seq order; every candidate is recorded, sampled out or dropped.
TEST(ExplainRetentionTest, SmallRingKeepsTheNewestEventsOfTheFullRun) {
  const MatchingRelation matching = CoraMatching();
  const RuleSpec rule{{"author", "title"}, {"venue", "year"}};
  const DetermineOptions options =
      Combo(LhsAlgorithm::kDap, RhsAlgorithm::kPap);
  obs::ExplainConfig config;
  config.sample_every = 4;
  const ExplainedRun full =
      DetermineWithExplain(matching, rule, options, config);
  config.ring_capacity = 8;
  const ExplainedRun small =
      DetermineWithExplain(matching, rule, options, config);

  ASSERT_GT(full.snapshot.recorded, 8u);
  EXPECT_EQ(full.snapshot.dropped, 0u);
  for (std::size_t i = 1; i < full.snapshot.events.size(); ++i) {
    ASSERT_LT(full.snapshot.events[i - 1].seq, full.snapshot.events[i].seq);
  }
  ExpectSameSnapshot(small.snapshot, NewestEvents(full.snapshot, 8));
  EXPECT_EQ(small.snapshot.recorded, 8u);
  EXPECT_EQ(small.snapshot.dropped, full.snapshot.recorded - 8);
  EXPECT_EQ(small.snapshot.recorded + small.snapshot.sampled_out +
                small.snapshot.dropped,
            small.snapshot.waterfall.candidates);
}

// The ring is replaced only when a recording asks for more capacity, and
// cleared otherwise: shrinking and regrowing it between recordings must
// leave nothing of an earlier run behind.
TEST(ExplainRetentionTest, EveryEnableMatchesAFreshRecording) {
  const MatchingRelation matching = CoraMatching();
  const RuleSpec rule{{"author", "title"}, {"venue", "year"}};
  const DetermineOptions options =
      Combo(LhsAlgorithm::kDa, RhsAlgorithm::kPap);
  obs::ExplainConfig large;
  large.sample_every = 4;
  large.ring_capacity = std::size_t{1} << 16;
  obs::ExplainConfig small = large;
  small.ring_capacity = 8;

  const ExplainedRun first =
      DetermineWithExplain(matching, rule, options, large);
  const ExplainedRun shrunk =
      DetermineWithExplain(matching, rule, options, small);
  const ExplainedRun regrown =
      DetermineWithExplain(matching, rule, options, large);
  ASSERT_EQ(first.snapshot.dropped, 0u);
  {
    SCOPED_TRACE("ring_capacity 8");
    ExpectSameSnapshot(shrunk.snapshot, NewestEvents(first.snapshot, 8));
  }
  {
    SCOPED_TRACE("ring_capacity 2^16 again");
    ExpectSameSnapshot(regrown.snapshot, first.snapshot);
  }
}

// Forced events come from the recording's own offers and skyline: an
// evaluated candidate is forced exactly when it was offered or no
// earlier evaluated candidate of the same recording dominates its
// (D·C, C, Q). A front left over from an earlier recording (Hotel's,
// for the Cora run) would unforce some of them.
TEST(ExplainEventsTest, ForcedEventsComeFromTheRecordingsOwnSkyline) {
  const MatchingRelation hotel = testutil::HotelMatching();
  const MatchingRelation cora = CoraMatching();
  const RuleSpec hotel_rule{{"Address"}, {"Region"}};
  const RuleSpec cora_rule{{"author", "title"}, {"venue", "year"}};
  const DetermineOptions options =
      Combo(LhsAlgorithm::kDa, RhsAlgorithm::kPap);
  for (const auto& [matching, rule] :
       {std::pair{&hotel, &hotel_rule}, std::pair{&cora, &cora_rule}}) {
    const ExplainedRun run =
        DetermineWithExplain(*matching, *rule, options, obs::ExplainConfig{});
    ASSERT_EQ(run.snapshot.sampled_out + run.snapshot.dropped, 0u);
    std::vector<std::array<double, 3>> earlier;
    for (const obs::ExplainEvent& e : run.snapshot.events) {
      if (e.outcome != obs::ExplainOutcome::kEvaluated) continue;
      const obs::ExplainLhsInfo& lhs = run.snapshot.lhs[e.lhs_seq];
      const double d = static_cast<double>(lhs.lhs_count) /
                       static_cast<double>(lhs.total);
      const std::array<double, 3> point = {d * e.confidence, e.confidence,
                                           e.quality};
      const bool dominated = std::any_of(
          earlier.begin(), earlier.end(), [&](const std::array<double, 3>& f) {
            return f[0] >= point[0] && f[1] >= point[1] &&
                   f[2] >= point[2] && f != point;
          });
      ASSERT_EQ(e.forced, e.offered || !dominated) << "seq " << e.seq;
      earlier.push_back(point);
    }
  }
}

// A recording belongs to the thread that enabled it (recorder.h): an
// LHS begun on any other thread aborts instead of interleaving events.
TEST(ExplainRecorderDeathTest, BeginLhsOffTheEnablingThreadAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        obs::ExplainRecorder::Global().Enable(obs::ExplainConfig{});
        std::thread other([] {
          obs::ExplainRecorder::Global().BeginLhs(
              {1}, 1, 2, 0.0, obs::ExplainBound::kInitial);
        });
        other.join();
      },
      "CHECK failed");
}

TEST(ExplainAuditTest, DecodeRhsLevelsRoundTrips) {
  const std::size_t dims = 3;
  const int dmax = 4;
  const std::uint32_t base = static_cast<std::uint32_t>(dmax) + 1;
  for (std::uint32_t idx = 0; idx < base * base * base; ++idx) {
    const obs::ExplainLevels levels = DecodeRhsLevels(idx, dims, dmax);
    std::uint32_t back = 0;
    for (std::size_t d = dims; d-- > 0;) {
      back = back * base + static_cast<std::uint32_t>(levels[d]);
    }
    EXPECT_EQ(back, idx);
  }
}

TEST(ExplainAuditTest, AuditJsonIsValidAndFullPrecision) {
  const MatchingRelation matching = testutil::HotelMatching();
  const RuleSpec rule{{"Address"}, {"Region"}};
  const DetermineOptions options =
      Combo(LhsAlgorithm::kDap, RhsAlgorithm::kPap);
  ExplainedRun run = DetermineWithExplain(matching, rule, options,
                                          obs::ExplainConfig{});
  ASSERT_FALSE(run.result.patterns.empty());
  const std::string audit = ExplainAuditToJson(run.snapshot, run.result, rule,
                                               options.utility);
  testutil::JsonChecker checker(audit);
  EXPECT_TRUE(checker.Valid()) << audit;
  // The winner's decomposition appears at full (%.17g) precision: the
  // audit must match the run report bit-for-bit.
  const DeterminedPattern& winner = run.result.patterns[0];
  EXPECT_NE(audit.find(StrFormat("%.17g", winner.utility)),
            std::string::npos);
  EXPECT_NE(audit.find(StrFormat("%.17g", winner.measures.confidence)),
            std::string::npos);
  EXPECT_NE(audit.find(StrFormat("%.17g", winner.measures.quality)),
            std::string::npos);
  EXPECT_NE(audit.find("\"accounted\": true"), std::string::npos);
  EXPECT_NE(audit.find("DAP+PAP"), std::string::npos);
}

// Satellite: golden rendering of the pruning waterfall — stable stage
// ordering and column widths.
TEST(ExplainAuditTest, WaterfallGoldenText) {
  obs::ExplainSnapshot snapshot;
  snapshot.run_label = "golden";
  snapshot.waterfall.lhs_seen = 4;
  snapshot.waterfall.lhs_bounded_out = 1;
  snapshot.waterfall.lhs_skipped = 3;
  snapshot.waterfall.candidates = 100;
  snapshot.waterfall.pruned_s0 = 40;
  snapshot.waterfall.pruned_s1 = 25;
  snapshot.waterfall.pruned_zero_conf = 5;
  snapshot.waterfall.evaluated = 30;
  snapshot.waterfall.offered = 6;
  DetermineResult result;
  result.patterns.resize(2);

  const std::string expected =
      "Pruning waterfall (golden)\n"
      "  stage                                 count    remaining\n"
      "  candidates                              100          100\n"
      "  - pruned by S0 (Prop. 1)                 40           60\n"
      "  - pruned by S1 (Prop. 2)                 25           35\n"
      "  - pruned (zero confidence)                5           30\n"
      "  = evaluated                              30\n"
      "  entered top-l heap                        6\n"
      "  answers returned                          2\n"
      "  LHS searched: 4 (bounded out: 1); skipped by the utility bound: 3\n";
  EXPECT_EQ(PruningWaterfallToText(snapshot, result), expected);
}

TEST(ExplainAuditTest, WaterfallWarnsOnAccountingMismatch) {
  obs::ExplainSnapshot snapshot;
  snapshot.waterfall.candidates = 10;
  snapshot.waterfall.evaluated = 3;  // 7 candidates unaccounted.
  DetermineResult result;
  const std::string text = PruningWaterfallToText(snapshot, result);
  EXPECT_NE(text.find("WARNING: accounting mismatch"), std::string::npos);
}

TEST(ExplainAuditTest, WhyChosenDiffsWinnerAgainstRunnerUp) {
  const MatchingRelation matching = testutil::HotelMatching();
  const RuleSpec rule{{"Address"}, {"Region"}};
  DetermineOptions options = Combo(LhsAlgorithm::kDa, RhsAlgorithm::kPa);
  auto result = DetermineThresholds(matching, rule, options);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->patterns.size(), 2u);
  const std::string why = WhyChosenToText(*result);
  EXPECT_NE(why.find("winner"), std::string::npos);
  EXPECT_NE(why.find("runner-up"), std::string::npos);
  EXPECT_NE(why.find("utility"), std::string::npos);
  // No winner at all degrades gracefully.
  DetermineResult empty;
  EXPECT_NE(WhyChosenToText(empty).find("no pattern"), std::string::npos);
}

TEST(ExplainAuditTest, LandscapeExportsOneRowPerEvaluatedEvent) {
  const MatchingRelation matching = testutil::HotelMatching();
  const RuleSpec rule{{"Address"}, {"Region"}};
  const DetermineOptions options = Combo(LhsAlgorithm::kDa, RhsAlgorithm::kPa);
  ExplainedRun run = DetermineWithExplain(matching, rule, options,
                                          obs::ExplainConfig{});
  std::size_t evaluated_events = 0;
  for (const obs::ExplainEvent& e : run.snapshot.events) {
    if (e.outcome == obs::ExplainOutcome::kEvaluated) ++evaluated_events;
  }
  ASSERT_GT(evaluated_events, 0u);

  const std::string csv = LandscapeToCsv(run.snapshot, rule, options.utility,
                                         run.result.prior_mean_cq);
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, evaluated_events + 1);  // Header + one row per event.
  EXPECT_EQ(csv.find("lhs_Address,rhs_Region,d,confidence,quality,cq,utility"),
            0u);

  const std::string jsonl = LandscapeToJsonl(run.snapshot, rule,
                                             options.utility,
                                             run.result.prior_mean_cq);
  std::size_t start = 0;
  std::size_t rows = 0;
  while (start < jsonl.size()) {
    const std::size_t end = jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    std::string line = jsonl.substr(start, end - start);
    testutil::JsonChecker checker(line);
    EXPECT_TRUE(checker.Valid()) << line;
    ++rows;
    start = end + 1;
  }
  EXPECT_EQ(rows, evaluated_events);
}

TEST(ExplainMetricsTest, ExplainCountersAppearInMetricsJson) {
  const MatchingRelation matching = testutil::HotelMatching();
  const RuleSpec rule{{"Address"}, {"Region"}};
  DetermineWithExplain(matching, rule,
                       Combo(LhsAlgorithm::kDap, RhsAlgorithm::kPap),
                       obs::ExplainConfig{});
  const std::string json =
      obs::MetricsSnapshotToJson(obs::MetricsRegistry::Global().Snapshot());
  EXPECT_NE(json.find("\"explain.events_recorded\""), std::string::npos);
  EXPECT_NE(json.find("\"explain.evaluated\""), std::string::npos);
  EXPECT_NE(json.find("\"explain.candidates\""), std::string::npos);
  EXPECT_NE(json.find("\"explain.eval_latency_us\""), std::string::npos);
}

TEST(ExplainSpecialCasesTest, MfdAndMdRunsSatisfyAccounting) {
  const MatchingRelation matching = testutil::HotelMatching();
  const RuleSpec rule{{"Address"}, {"Region"}};
  DetermineOptions options;
  options.order = ProcessingOrder::kMidFirst;
  options.top_l = 3;

  {
    ScopedRecording recording((obs::ExplainConfig()));
    auto mfd = DetermineMfdThresholds(matching, rule, options);
    ASSERT_TRUE(mfd.ok());
    const obs::ExplainSnapshot snapshot =
        obs::ExplainRecorder::Global().Snapshot();
    EXPECT_TRUE(snapshot.waterfall.Accounted());
    EXPECT_EQ(snapshot.waterfall.candidates, mfd->stats.rhs.lattice_size);
    EXPECT_EQ(snapshot.run_label, "MFD determination");
  }
  {
    ScopedRecording recording((obs::ExplainConfig()));
    auto md = DetermineMdThresholds(matching, rule, options);
    ASSERT_TRUE(md.ok());
    const obs::ExplainSnapshot snapshot =
        obs::ExplainRecorder::Global().Snapshot();
    EXPECT_TRUE(snapshot.waterfall.Accounted());
    EXPECT_EQ(snapshot.waterfall.candidates, md->stats.rhs.lattice_size);
    EXPECT_EQ(snapshot.waterfall.evaluated, md->stats.rhs.evaluated);
    EXPECT_EQ(snapshot.run_label, "MD determination");
  }
}

TEST(ExplainEventsTest, WinnerAndBoundAdvancingEventsSurviveSampling) {
  const MatchingRelation matching = testutil::HotelMatching();
  const RuleSpec rule{{"Address"}, {"Region"}};
  obs::ExplainConfig config;
  config.sample_every = 1000000;  // Sample out (almost) everything.
  ExplainedRun run = DetermineWithExplain(
      matching, rule, Combo(LhsAlgorithm::kDap, RhsAlgorithm::kPap), config);
  ASSERT_FALSE(run.result.patterns.empty());
  // Every offered (bound-advancing) event was force-kept, so the event
  // stream still explains where the winner came from.
  std::uint64_t offered_kept = 0;
  for (const obs::ExplainEvent& e : run.snapshot.events) {
    if (e.offered) {
      ++offered_kept;
      EXPECT_TRUE(e.forced);
    }
  }
  EXPECT_EQ(offered_kept, run.snapshot.waterfall.offered);
  // Exact totals survive aggressive sampling.
  EXPECT_TRUE(run.snapshot.waterfall.Accounted());
}

}  // namespace
}  // namespace dd
