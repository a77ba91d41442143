// Drift-triggered re-determination over a live instance: the engine
// owns the delta-maintained matching relation and count grids for one
// rule, tracks how far the published threshold pattern's statistics
// (D(ϕ*), C(ϕ*), and hence Ū(ϕ*)) have drifted since publication, and
// re-runs the paper's determination only when the drift exceeds a bound
// derived from the utility gap to the runner-up pattern — the intuition
// being that while ϕ*'s own expected utility has moved by less than
// (a configurable fraction of) its lead, the ranking is unlikely to
// have flipped. This is a heuristic, not a guarantee: a challenger can
// overtake a perfectly stable champion. drift_fraction < 0 forces
// re-determination every batch (the exact but expensive policy, used by
// the equivalence property tests); larger fractions trade staleness for
// fewer searches. Every published change is emitted on a change-feed of
// ThresholdUpdate events.
//
// Per batch of b changes against N live tuples the engine costs
// O(b·N) distance evaluations + O(d^c) grid merge + O(1) drift probe;
// a triggered re-determination costs one DA/DAP search over the
// maintained grids (every count O(1) — no rebuild of anything).

#ifndef DD_INCR_MAINTENANCE_H_
#define DD_INCR_MAINTENANCE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/determiner.h"
#include "core/measure_provider.h"
#include "incr/incremental_builder.h"

namespace dd {

struct MaintenanceOptions {
  IncrementalOptions incremental;
  // Search configuration. `provider` is ignored — the engine always
  // searches its own delta-maintained grids; top_l is raised to at
  // least 2 so a runner-up (and thus the utility gap) exists.
  // `determine.threads` applies to the search as usual.
  DetermineOptions determine;
  // Re-determine when |Ū_now(ϕ*) − Ū_published(ϕ*)| exceeds
  // drift_fraction · (Ū(ϕ*) − Ū(runner-up)), both measured at
  // publication time. 0 re-determines on any drift; negative values
  // re-determine every batch.
  double drift_fraction = 0.5;
  // Cell budget of the maintained grid (Create fails beyond it).
  std::size_t max_cells = std::size_t{1} << 27;
};

enum class UpdateReason { kInitial, kDrift };

const char* UpdateReasonName(UpdateReason reason);

// One entry of the change-feed: a (re-)publication of the threshold.
struct ThresholdUpdate {
  std::uint64_t batch_seq = 0;
  UpdateReason reason = UpdateReason::kInitial;
  DeterminedPattern published;
  // Lead of the published pattern over the runner-up (0 when the search
  // returned a single pattern); the next drift bound derives from it.
  double utility_gap = 0.0;
  bool changed = true;  // false when re-determination kept the pattern
};

// What one ApplyBatch did, for callers driving a feed (ddtool watch).
struct BatchOutcome {
  std::uint64_t batch_seq = 0;
  std::size_t pairs_computed = 0;
  std::size_t matching_added = 0;
  std::size_t matching_removed = 0;
  double drift = 0.0;
  double bound = 0.0;
  bool redetermined = false;
  // The update emitted by this batch, when one was.
  std::optional<ThresholdUpdate> update;
};

class MaintenanceEngine {
 public:
  // The matching relation is built over rule.AllAttributes(); fails on
  // bad rules, metrics, or an over-budget grid.
  static Result<MaintenanceEngine> Create(const Schema& schema, RuleSpec rule,
                                          MaintenanceOptions options);

  // Applies one instance batch end to end: delta-build the matching,
  // merge the delta into the grids, probe the published pattern's
  // drift, and re-determine if warranted.
  Result<BatchOutcome> ApplyBatch(
      const std::vector<std::vector<std::string>>& inserts,
      const std::vector<std::uint32_t>& deletes);

  // Currently published best pattern, or nullptr before the first
  // determination (empty instance).
  const DeterminedPattern* published() const {
    return has_published_ ? &published_ : nullptr;
  }
  const std::vector<ThresholdUpdate>& updates() const { return updates_; }
  std::uint64_t redeterminations() const { return redeterminations_; }
  std::uint64_t skipped() const { return skipped_; }

  const IncrementalMatchingBuilder& builder() const { return *builder_; }
  const RuleSpec& rule() const { return rule_; }

 private:
  MaintenanceEngine(RuleSpec rule, MaintenanceOptions options)
      : rule_(std::move(rule)), options_(std::move(options)) {}

  // Runs determination on the maintained grids and publishes the
  // winner; appends to the change-feed.
  void Redetermine(UpdateReason reason, BatchOutcome* outcome);

  RuleSpec rule_;
  MaintenanceOptions options_;
  std::unique_ptr<IncrementalMatchingBuilder> builder_;
  ResolvedRule resolved_;
  std::unique_ptr<GridMeasureProvider> provider_;

  bool has_published_ = false;
  DeterminedPattern published_;
  double published_gap_ = 0.0;
  UtilityOptions published_utility_;  // prior frozen at publication
  std::vector<ThresholdUpdate> updates_;
  std::uint64_t batch_seq_ = 0;
  std::uint64_t redeterminations_ = 0;
  std::uint64_t skipped_ = 0;
};

}  // namespace dd

#endif  // DD_INCR_MAINTENANCE_H_
