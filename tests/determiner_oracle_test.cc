// Every determination path against the naive determiner
// (testutil::NaiveDetermine): DA/DAP × PA/PAP × {scan, grid, grid
// brought to M through Apply} at 1 and 4 threads, two C_Y orders and
// l ∈ {1, 4, 1000}, plus the pinned-side MFD and MD entry points.
// Utility sequences must be bit-equal to the oracle's, patterns must
// match wherever a utility is unique among the eligible candidates, and
// the search stats must account for every lattice cell: every ϕ[X] is
// either searched or skipped by DAP's utility bound, and a skipped one
// still counts its C_Y cells.

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/determiner.h"
#include "core/measure_provider.h"
#include "data/generators.h"
#include "matching/builder.h"
#include "matching/delta.h"
#include "obs/explain/recorder.h"
#include "tests/test_util.h"

namespace dd {
namespace {

using testutil::NaiveDetermination;
using testutil::NaivePin;

std::size_t LatticeCells(std::size_t dims, int dmax) {
  std::size_t cells = 1;
  for (std::size_t d = 0; d < dims; ++d) {
    cells *= static_cast<std::size_t>(dmax) + 1;
  }
  return cells;
}

void ExpectMatchesOracle(const DetermineResult& got,
                         const NaiveDetermination& want,
                         const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(got.patterns.size(), want.answers.size());
  for (std::size_t i = 0; i < want.answers.size(); ++i) {
    const DeterminedPattern& p = got.patterns[i];
    const testutil::NaiveAnswer& w = want.answers[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(p.utility),
              std::bit_cast<std::uint64_t>(w.utility))
        << "rank " << i << ": " << p.utility << " vs " << w.utility;
    if (!want.UtilityIsUnique(w.utility)) continue;
    EXPECT_EQ(p.pattern.lhs, w.lhs) << "rank " << i;
    EXPECT_EQ(p.pattern.rhs, w.rhs) << "rank " << i;
    EXPECT_EQ(p.measures.lhs_count, w.lhs_count) << "rank " << i;
    EXPECT_EQ(p.measures.xy_count, w.xy_count) << "rank " << i;
  }
}

// `rhs_cells` is the size of each per-LHS search's lattice. Only DAP
// under the closed-form utility may skip a ϕ[X] (`may_skip`); every
// other path searches all of C_X.
void ExpectAccounted(const DaStats& stats, std::size_t lhs_cells,
                     std::size_t rhs_cells, bool pruning, bool may_skip,
                     const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(stats.lhs_total, lhs_cells);
  if (!may_skip) {
    EXPECT_EQ(stats.lhs_bounded, 0u);
  }
  EXPECT_EQ(stats.lhs_evaluated + stats.lhs_bounded, stats.lhs_total);
  EXPECT_EQ(stats.rhs.lattice_size, lhs_cells * rhs_cells);
  EXPECT_EQ(stats.rhs.evaluated + stats.rhs.pruned, stats.rhs.lattice_size);
  if (!pruning) {
    // Only the cells of skipped LHS candidates go unevaluated.
    EXPECT_EQ(stats.rhs.pruned, stats.lhs_bounded * rhs_cells);
  }
}

// A grid provider over M reached through Apply: built over the first
// half of M's rows plus a few rows that are not in M, then one delta
// adds the second half and removes the extra rows.
std::unique_ptr<GridMeasureProvider> GridThroughApply(
    const MatchingRelation& m, const ResolvedRule& rule) {
  const std::size_t attrs = m.num_attributes();
  const std::size_t half = m.num_tuples() / 2;
  MatchingRelation base(m.attribute_names(), m.dmax());
  for (std::size_t r = 0; r < half; ++r) {
    base.AddTuple(m.pair(r).first, m.pair(r).second, m.RowLevels(r));
  }
  MatchingDelta delta;
  delta.num_attributes = attrs;
  Rng rng(m.num_tuples() + 17);
  for (std::uint32_t extra = 0; extra < 3; ++extra) {
    std::vector<Level> levels(attrs);
    for (Level& l : levels) {
      l = static_cast<Level>(
          rng.NextBounded(static_cast<std::uint64_t>(m.dmax()) + 1));
    }
    const std::pair<std::uint32_t, std::uint32_t> pair{1000000 + 2 * extra,
                                                       1000001 + 2 * extra};
    base.AddTuple(pair.first, pair.second, levels);
    delta.removed_pairs.push_back(pair);
    delta.removed_levels.insert(delta.removed_levels.end(), levels.begin(),
                                levels.end());
  }
  for (std::size_t r = half; r < m.num_tuples(); ++r) {
    const std::vector<Level> levels = m.RowLevels(r);
    delta.added_pairs.push_back(m.pair(r));
    delta.added_levels.insert(delta.added_levels.end(), levels.begin(),
                              levels.end());
  }
  auto grid = GridMeasureProvider::Create(base, rule);
  EXPECT_TRUE(grid.ok());
  if (!grid.ok()) return nullptr;
  (*grid)->Apply(delta);
  EXPECT_EQ((*grid)->total(), m.num_tuples());
  return std::move(grid).value();
}

// Runs every determination path over (m, rule) and checks each against
// the oracle. `base` carries the prior and utility settings.
void CheckAgainstOracle(const MatchingRelation& m, const RuleSpec& rule,
                        const DetermineOptions& base,
                        const std::string& name) {
  auto resolved = ResolveRule(m, rule);
  ASSERT_TRUE(resolved.ok()) << name;
  const std::size_t lhs_cells = LatticeCells(rule.lhs.size(), m.dmax());
  const std::size_t rhs_cells = LatticeCells(rule.rhs.size(), m.dmax());
  // Every run estimates the same prior (the counts are identical), so
  // the oracle is evaluated at the first run's prior.
  std::optional<double> prior;

  // l = 1000 exceeds every lattice here: the answers are then every
  // eligible candidate, down to the smallest C·Q.
  for (std::size_t top_l :
       {std::size_t{1}, std::size_t{4}, std::size_t{1000}}) {
    // The oracle's answers for DD, MFD and MD, in NaivePin order.
    std::vector<NaiveDetermination> want;
    for (LhsAlgorithm lhs : {LhsAlgorithm::kDa, LhsAlgorithm::kDap}) {
      for (RhsAlgorithm rhs : {RhsAlgorithm::kPa, RhsAlgorithm::kPap}) {
        for (ProcessingOrder order :
             {ProcessingOrder::kTopFirst, ProcessingOrder::kMidFirst}) {
          for (const char* provider : {"scan", "grid", "grid+apply"}) {
            for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
              DetermineOptions options = base;
              options.lhs_algorithm = lhs;
              options.rhs_algorithm = rhs;
              options.order = order;
              options.top_l = top_l;
              options.threads = threads;
              const std::string label =
                  name + " " + LhsAlgorithmName(lhs) + "+" +
                  RhsAlgorithmName(rhs) + " " + ProcessingOrderName(order) +
                  " " + provider + " l=" + std::to_string(top_l) +
                  " threads=" + std::to_string(threads);
              Result<DetermineResult> got =
                  Status::InvalidArgument("not run");
              if (std::string(provider) == "grid+apply") {
                std::unique_ptr<GridMeasureProvider> grid =
                    GridThroughApply(m, *resolved);
                ASSERT_NE(grid, nullptr) << label;
                got = DetermineWithProvider(grid.get(), rule.lhs.size(),
                                            rule.rhs.size(), m.dmax(),
                                            options, provider);
              } else {
                options.provider = provider;
                got = DetermineThresholds(m, rule, options);
              }
              ASSERT_TRUE(got.ok()) << label << ": " << got.status().message();
              if (!prior) prior = got->prior_mean_cq;
              EXPECT_EQ(got->prior_mean_cq, *prior) << label;
              if (want.empty()) {
                for (NaivePin pin :
                     {NaivePin::kNone, NaivePin::kLhs, NaivePin::kRhs}) {
                  want.push_back(testutil::NaiveDetermine(
                      m, *resolved, top_l, *prior,
                      base.utility.prior_strength, pin));
                }
              }
              ExpectMatchesOracle(*got, want[0], label);
              ExpectAccounted(
                  got->stats, lhs_cells, rhs_cells, rhs == RhsAlgorithm::kPap,
                  lhs == LhsAlgorithm::kDap &&
                      base.utility.method == UtilityMethod::kClosedForm,
                  label);
            }
          }
        }
      }
    }
    // The pinned sides: MFD searches C_Y at ϕ[X] = 0, MD every ϕ[X]
    // against ϕ[Y] = 0.
    for (RhsAlgorithm rhs : {RhsAlgorithm::kPa, RhsAlgorithm::kPap}) {
      for (const char* provider : {"scan", "grid"}) {
        DetermineOptions options = base;
        options.rhs_algorithm = rhs;
        options.order = ProcessingOrder::kMidFirst;
        options.top_l = top_l;
        options.provider = provider;
        const std::string label = name + " " + RhsAlgorithmName(rhs) + " " +
                                  provider + " l=" + std::to_string(top_l);
        auto mfd = DetermineMfdThresholds(m, rule, options);
        ASSERT_TRUE(mfd.ok()) << label;
        EXPECT_EQ(mfd->prior_mean_cq, *prior) << label;
        ExpectMatchesOracle(*mfd, want[1], "MFD " + label);
        ExpectAccounted(mfd->stats, 1, rhs_cells, rhs == RhsAlgorithm::kPap,
                        /*may_skip=*/false, "MFD " + label);
        auto md = DetermineMdThresholds(m, rule, options);
        ASSERT_TRUE(md.ok()) << label;
        EXPECT_EQ(md->prior_mean_cq, *prior) << label;
        ExpectMatchesOracle(*md, want[2], "MD " + label);
        ExpectAccounted(md->stats, lhs_cells, 1, /*pruning=*/false,
                        /*may_skip=*/false, "MD " + label);
      }
    }
  }
}

const std::vector<RuleSpec>& ThreeAttributeRules() {
  static const std::vector<RuleSpec> rules = {
      {{"a0"}, {"a1"}}, {{"a0", "a1"}, {"a2"}}, {{"a0"}, {"a1", "a2"}}};
  return rules;
}

void CheckRandomRelations(int dmax) {
  for (std::uint64_t seed : {11u, 29u}) {
    const MatchingRelation m = testutil::RandomMatching(3, dmax, 240, seed);
    for (const RuleSpec& rule : ThreeAttributeRules()) {
      CheckAgainstOracle(m, rule, DetermineOptions{},
                         "dmax=" + std::to_string(dmax) +
                             " seed=" + std::to_string(seed) + " " +
                             rule.lhs[0] + "->" + rule.rhs[0]);
    }
  }
}

TEST(DetermineOracleTest, RandomRelationsAtDmax14) {
  CheckRandomRelations(14);
}

TEST(DetermineOracleTest, RandomRelationsAtDmax15) {
  CheckRandomRelations(15);
}

TEST(DetermineOracleTest, OneRowRelation) {
  const MatchingRelation m =
      testutil::MakeMatching({"a0", "a1", "a2"}, 15, {{3, 7, 15}});
  for (const RuleSpec& rule : ThreeAttributeRules()) {
    CheckAgainstOracle(m, rule, DetermineOptions{}, "one row");
  }
}

TEST(DetermineOracleTest, AllIdenticalRelation) {
  const MatchingRelation m = testutil::MakeMatching(
      {"a0", "a1", "a2"}, 14,
      std::vector<std::vector<Level>>(50, std::vector<Level>{5, 2, 9}));
  for (const RuleSpec& rule : ThreeAttributeRules()) {
    CheckAgainstOracle(m, rule, DetermineOptions{}, "all identical");
  }
}

// Skewed support, where DAP's utility bound bites: a generated
// restaurant M has a few ϕ[X] of high D and a long tail of low-D ones
// whose best possible Ū cannot reach the top-l. Every path still
// agrees with the oracle, DAP skips part of C_X, and at l ∈ {1, 4} the
// exact threshold τ seeds some search above formula 6. Under numeric
// integration the same runs skip nothing.
TEST(DetermineOracleTest, SkewedSupportRestaurant) {
  RestaurantOptions generate;
  generate.num_entities = 40;
  generate.seed = 7;
  const GeneratedData data = GenerateRestaurant(generate);
  MatchingOptions matching;
  matching.dmax = 6;
  matching.max_pairs = 600;
  auto m = BuildMatchingRelation(data.relation,
                                 {"name", "address", "city", "type"},
                                 matching);
  ASSERT_TRUE(m.ok()) << m.status().message();
  const RuleSpec rule{{"name", "address"}, {"city", "type"}};
  CheckAgainstOracle(*m, rule, DetermineOptions{}, "restaurant");

  for (std::size_t top_l : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("l=" + std::to_string(top_l));
    DetermineOptions options;  // DAP+PAP over the scan provider
    options.top_l = top_l;
    obs::ExplainRecorder& recorder = obs::ExplainRecorder::Global();
    recorder.Enable(obs::ExplainConfig{});
    auto got = DetermineThresholds(*m, rule, options);
    const obs::ExplainSnapshot snapshot = recorder.Snapshot();
    recorder.Disable();
    ASSERT_TRUE(got.ok());
    EXPECT_GT(got->stats.lhs_bounded, 0u);
    EXPECT_EQ(snapshot.waterfall.lhs_skipped, got->stats.lhs_bounded);
    std::size_t tau_seeded = 0;
    for (const obs::ExplainLhsInfo& lhs : snapshot.lhs) {
      tau_seeded += lhs.initial_kind == obs::ExplainBound::kUtility;
    }
    EXPECT_GT(tau_seeded, 0u);

    // Under the numeric-integration utility DAP is the paper's
    // formula-6 DAP: the same M skips no ϕ[X].
    options.utility.method = UtilityMethod::kNumericIntegration;
    for (RhsAlgorithm rhs : {RhsAlgorithm::kPa, RhsAlgorithm::kPap}) {
      options.rhs_algorithm = rhs;
      auto numeric = DetermineThresholds(*m, rule, options);
      ASSERT_TRUE(numeric.ok());
      ExpectAccounted(numeric->stats, LatticeCells(2, m->dmax()),
                      LatticeCells(2, m->dmax()), rhs == RhsAlgorithm::kPap,
                      /*may_skip=*/false,
                      std::string("numeric DAP+") + RhsAlgorithmName(rhs));
    }
  }
}

// The skip's boundary: every row with a0 <= 3 (about a tenth of M) has
// a2 = 0, so each ϕ[X] with ϕ[a0] <= 3 has a ϕ[Y] = <0> with C·Q = 1
// exactly, whose Ū is the skip bound Ū(n, 1) itself. The top-l then
// holds such low-support patterns, and many ϕ[X] of similar support are
// decided by the skip or by τ alone. DAP must skip and agree with the
// oracle.
TEST(DetermineOracleTest, PerfectDependencyAtLowSupport) {
  constexpr int kDmax = 10;
  Rng rng(13);
  std::vector<std::vector<Level>> rows;
  for (int r = 0; r < 400; ++r) {
    const bool near = rng.NextBool(0.1);
    const auto level = [&](std::uint64_t lo, std::uint64_t hi) {
      return static_cast<Level>(lo + rng.NextBounded(hi - lo + 1));
    };
    rows.push_back({near ? level(0, 3) : level(4, kDmax), level(0, kDmax),
                    near ? Level{0} : level(0, kDmax)});
  }
  const MatchingRelation m =
      testutil::MakeMatching({"a0", "a1", "a2"}, kDmax, rows);
  const std::vector<RuleSpec> rules = {{{"a0"}, {"a2"}},
                                       {{"a0", "a1"}, {"a2"}}};
  for (const RuleSpec& rule : rules) {
    const std::string name = "perfect " + rule.lhs.back() + "->a2";
    CheckAgainstOracle(m, rule, DetermineOptions{}, name);
    for (std::size_t top_l : {std::size_t{1}, std::size_t{4}}) {
      DetermineOptions options;
      options.top_l = top_l;
      auto got = DetermineThresholds(m, rule, options);
      ASSERT_TRUE(got.ok());
      EXPECT_GT(got->stats.lhs_bounded, 0u) << name << " l=" << top_l;
    }
  }
}

// Ties in Ū by construction: every row appears again with its two LHS
// levels swapped, so ϕ[X] = (i, j) and (j, i) have the same counts, and
// at a fixed prior their utilities are bit-equal.
TEST(DetermineOracleTest, ForcedUtilityTies) {
  const MatchingRelation random = testutil::RandomMatching(3, 14, 120, 7);
  std::vector<std::vector<Level>> rows;
  for (std::size_t r = 0; r < random.num_tuples(); ++r) {
    std::vector<Level> levels = random.RowLevels(r);
    rows.push_back(levels);
    std::swap(levels[0], levels[1]);
    rows.push_back(levels);
  }
  const MatchingRelation m =
      testutil::MakeMatching({"a0", "a1", "a2"}, 14, rows);
  DetermineOptions options;
  options.prior_sample_size = 0;
  options.utility.prior_mean_cq = 0.3;
  CheckAgainstOracle(m, {{"a0", "a1"}, {"a2"}}, options, "swapped lhs");
  // A tie must actually show up among the oracle's answers.
  auto resolved = ResolveRule(m, {{"a0", "a1"}, {"a2"}});
  ASSERT_TRUE(resolved.ok());
  const NaiveDetermination want =
      testutil::NaiveDetermine(m, *resolved, 4, 0.3, 0.05);
  bool tied = false;
  for (const testutil::NaiveAnswer& a : want.answers) {
    tied = tied || !want.UtilityIsUnique(a.utility);
  }
  EXPECT_TRUE(tied);
}

}  // namespace
}  // namespace dd
