#include "incr/maintenance.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "core/expected_utility.h"
#include "core/measures.h"
#include "obs/diag/crash_dump.h"
#include "obs/diag/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"

namespace dd {

const char* UpdateReasonName(UpdateReason reason) {
  return reason == UpdateReason::kInitial ? "initial" : "drift";
}

Result<MaintenanceEngine> MaintenanceEngine::Create(const Schema& schema,
                                                    RuleSpec rule,
                                                    MaintenanceOptions options) {
  if (options.determine.top_l == 0) {
    return Status::InvalidArgument("top_l must be >= 1");
  }
  MaintenanceEngine engine(std::move(rule), std::move(options));
  DD_ASSIGN_OR_RETURN(
      IncrementalMatchingBuilder builder,
      IncrementalMatchingBuilder::Create(schema, engine.rule_.AllAttributes(),
                                         engine.options_.incremental));
  engine.builder_ =
      std::make_unique<IncrementalMatchingBuilder>(std::move(builder));
  DD_ASSIGN_OR_RETURN(engine.resolved_,
                      ResolveRule(engine.builder_->matching(), engine.rule_));
  DD_ASSIGN_OR_RETURN(
      engine.provider_,
      GridMeasureProvider::Create(engine.builder_->matching(),
                                  engine.resolved_, engine.options_.max_cells));
  return engine;
}

Result<BatchOutcome> MaintenanceEngine::ApplyBatch(
    const std::vector<std::vector<std::string>>& inserts,
    const std::vector<std::uint32_t>& deletes) {
  obs::TraceSpan span("incr/maintain");
  // Re-renders the crash dump's metrics preamble on every way out, so a
  // dump carries the metrics as of the last applied batch. A no-op
  // unless diagnostics are enabled.
  struct RefreshPreambleOnReturn {
    ~RefreshPreambleOnReturn() { obs::diag::RefreshPreamble(); }
  } refresh_preamble;
  static obs::Counter& skipped_counter =
      obs::MetricsRegistry::Global().GetCounter(
          "incr.redeterminations_skipped");
  // Engine-state gauges: these put the batch sequence alongside the
  // counters in the run report and the crash dump's metrics section,
  // so either joins against the `ddtool watch` change feed by
  // (run_id, incr.batch_seq).
  static obs::Gauge& batch_gauge =
      obs::MetricsRegistry::Global().GetGauge("incr.batch_seq");
  static obs::Gauge& live_gauge =
      obs::MetricsRegistry::Global().GetGauge("incr.live_tuples");
  static obs::Gauge& matching_gauge =
      obs::MetricsRegistry::Global().GetGauge("incr.matching_tuples");
  static obs::Gauge& drift_gauge =
      obs::MetricsRegistry::Global().GetGauge("incr.drift");
  static obs::Gauge& bound_gauge =
      obs::MetricsRegistry::Global().GetGauge("incr.drift_bound");

  DD_ASSIGN_OR_RETURN(MatchingDelta delta,
                      builder_->ApplyBatch(inserts, deletes));
  provider_->Apply(delta);

  BatchOutcome outcome;
  outcome.batch_seq = ++batch_seq_;
  outcome.pairs_computed = delta.pairs_computed();
  outcome.matching_added = delta.num_added();
  outcome.matching_removed = delta.num_removed();
  batch_gauge.Set(static_cast<double>(outcome.batch_seq));
  obs::diag::FlightRecord(obs::diag::EventType::kBatch, "apply_batch",
                          outcome.batch_seq, inserts.size());
  live_gauge.Set(static_cast<double>(builder_->store().num_live()));
  matching_gauge.Set(static_cast<double>(builder_->matching().num_tuples()));
  // Byte-size accounting after every batch: the evolving structures are
  // exactly the ones a long-running `serve` loop can grow without bound.
  obs::SetMemoryGauge("tuple_store", builder_->store().MemoryUsageBytes());
  obs::SetMemoryGauge("matching", builder_->matching().MemoryUsageBytes());
  obs::SetMemoryGauge("grid", provider_->MemoryUsageBytes());

  // An empty instance has no candidate worth publishing; a previously
  // published pattern stays on the feed until data returns.
  if (provider_->total() == 0) return outcome;

  if (!has_published_) {
    Redetermine(UpdateReason::kInitial, &outcome);
    return outcome;
  }

  // Probe the published pattern's current statistics (three O(1) grid
  // reads) and compare its utility — under the prior frozen at
  // publication, so only count drift registers — against what was
  // published.
  const Measures now = ComputeMeasures(provider_.get(), published_.pattern,
                                       builder_->dmax());
  const double utility_now =
      ExpectedUtility(now.total, now.lhs_count, now.confidence, now.quality,
                      published_utility_);
  outcome.drift = std::fabs(utility_now - published_.utility);
  const bool force = options_.drift_fraction < 0.0;
  outcome.bound = force ? 0.0 : options_.drift_fraction * published_gap_;
  drift_gauge.Set(outcome.drift);
  bound_gauge.Set(outcome.bound);
  if (force || outcome.drift > outcome.bound) {
    Redetermine(UpdateReason::kDrift, &outcome);
  } else {
    ++skipped_;
    skipped_counter.Increment();
    DD_VLOG(1) << "batch " << outcome.batch_seq << ": drift " << outcome.drift
               << " within bound " << outcome.bound
               << ", keeping published threshold";
  }
  return outcome;
}

void MaintenanceEngine::Redetermine(UpdateReason reason,
                                    BatchOutcome* outcome) {
  obs::TraceSpan span("incr/redetermine");
  static obs::Counter& redetermine_counter =
      obs::MetricsRegistry::Global().GetCounter("incr.redeterminations");

  // top_l >= 2 keeps a runner-up around: its utility deficit is the gap
  // the next drift bound derives from.
  DetermineOptions det = options_.determine;
  det.top_l = std::max<std::size_t>(2, det.top_l);
  Result<DetermineResult> result =
      DetermineWithProvider(provider_.get(), resolved_.lhs.size(),
                            resolved_.rhs.size(), builder_->dmax(), det, "grid");
  DD_CHECK(result.ok());  // It fails only on top_l == 0.
  const std::vector<DeterminedPattern>& patterns = result->patterns;
  obs::diag::FlightRecord(obs::diag::EventType::kDetermined, "redetermine",
                          patterns.size(), batch_seq_);
  redetermine_counter.Increment();
  ++redeterminations_;
  outcome->redetermined = true;
  if (patterns.empty()) return;  // Nothing beat the zero bound; keep as-is.

  const bool changed =
      !has_published_ || !(patterns[0].pattern == published_.pattern);
  published_ = patterns[0];
  published_gap_ =
      patterns.size() > 1 ? patterns[0].utility - patterns[1].utility : 0.0;
  published_utility_ = det.utility;
  published_utility_.prior_mean_cq = result->prior_mean_cq;
  has_published_ = true;

  ThresholdUpdate update;
  update.batch_seq = batch_seq_;
  update.reason = reason;
  update.published = published_;
  update.utility_gap = published_gap_;
  update.changed = changed;
  updates_.push_back(update);
  outcome->update = std::move(update);
  DD_LOG(INFO) << "batch " << batch_seq_ << ": re-determined ("
               << UpdateReasonName(reason) << "), published "
               << PatternToString(published_.pattern) << " utility "
               << published_.utility << " gap " << published_gap_
               << (changed ? "" : " (unchanged)");
}

}  // namespace dd
