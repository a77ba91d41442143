#include "core/determiner.h"

#include <memory>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/expected_utility.h"
#include "core/measure_provider.h"
#include "obs/diag/flight_recorder.h"
#include "obs/explain/recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dd {

const char* LhsAlgorithmName(LhsAlgorithm algorithm) {
  return algorithm == LhsAlgorithm::kDa ? "DA" : "DAP";
}

const char* RhsAlgorithmName(RhsAlgorithm algorithm) {
  return algorithm == RhsAlgorithm::kPa ? "PA" : "PAP";
}

void PublishDetermineMetrics(const DaStats& stats,
                             const ProviderStats& provider_stats) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("determine.runs").Increment();
  registry.GetCounter("determine.lhs_evaluated").Add(stats.lhs_evaluated);
  registry.GetCounter("determine.rhs_lattice").Add(stats.rhs.lattice_size);
  registry.GetCounter("determine.rhs_evaluated").Add(stats.rhs.evaluated);
  registry.GetCounter("determine.rhs_pruned").Add(stats.rhs.pruned);
  registry.GetCounter("provider.lhs_evaluations")
      .Add(provider_stats.lhs_evaluations);
  registry.GetCounter("provider.xy_evaluations")
      .Add(provider_stats.xy_evaluations);
  registry.GetCounter("provider.rows_scanned").Add(provider_stats.rows_scanned);
  registry.GetGauge("determine.pruning_rate").Set(stats.PruningRate());
}

Result<DetermineResult> DetermineWithProvider(
    MeasureProvider* provider, std::size_t lhs_dims, std::size_t rhs_dims,
    int dmax, const DetermineOptions& options,
    const std::string& provider_label) {
  if (options.top_l == 0) {
    return Status::InvalidArgument("top_l must be >= 1");
  }
  obs::TraceSpan determine_span("determine");
  Stopwatch total_timer;
  if (obs::ExplainRecorder* rec = obs::ExplainRecorder::Active()) {
    rec->SetRunLabel(StrFormat(
        "%s+%s provider=%s order=%s top_l=%zu",
        LhsAlgorithmName(options.lhs_algorithm),
        RhsAlgorithmName(options.rhs_algorithm), provider_label.c_str(),
        ProcessingOrderName(options.order), options.top_l));
  }
  DetermineResult result;
  UtilityOptions utility = options.utility;
  if (options.prior_sample_size > 0) {
    obs::TraceSpan span("prior_estimation");
    utility.prior_mean_cq =
        EstimatePriorMeanCq(provider, lhs_dims, rhs_dims, dmax,
                            options.prior_sample_size, options.prior_seed);
  }
  result.prior_mean_cq = utility.prior_mean_cq;
  // Stats contract (see measure_provider.h): provider stats accumulate
  // across every call, so reset here to exclude prior-estimation probes
  // — result.provider_stats must reflect search work only.
  provider->ResetStats();

  DaOptions da;
  da.advanced_bound = options.lhs_algorithm == LhsAlgorithm::kDap;
  da.pa.prune = options.rhs_algorithm == RhsAlgorithm::kPap;
  da.pa.order = options.order;
  da.pa.top_l = options.top_l;
  da.top_l = options.top_l;
  da.utility = utility;
  da.threads = options.threads;

  Stopwatch timer;
  {
    obs::TraceSpan span("search");
    result.patterns = DetermineBestPatterns(provider, lhs_dims, rhs_dims, dmax,
                                            da, &result.stats);
  }
  result.elapsed_seconds = timer.ElapsedSeconds();
  result.provider_stats = provider->stats();
  PublishDetermineMetrics(result.stats, result.provider_stats);
  obs::diag::FlightRecord(obs::diag::EventType::kDetermined, "determine",
                          result.patterns.size(), provider->total());
  DD_LOG(INFO) << LhsAlgorithmName(options.lhs_algorithm) << "+"
               << RhsAlgorithmName(options.rhs_algorithm) << " determined "
               << result.patterns.size() << " pattern(s) over |M|="
               << provider->total() << " in " << total_timer.ElapsedSeconds()
               << "s (pruning rate " << result.stats.PruningRate() << ")";
  return result;
}

Result<DetermineResult> DetermineThresholds(const MatchingRelation& matching,
                                            const RuleSpec& rule,
                                            const DetermineOptions& options) {
  if (options.top_l == 0) {
    return Status::InvalidArgument("top_l must be >= 1");
  }
  DD_ASSIGN_OR_RETURN(ResolvedRule resolved, ResolveRule(matching, rule));
  std::unique_ptr<MeasureProvider> provider;
  {
    obs::TraceSpan span("provider_build");
    DD_ASSIGN_OR_RETURN(provider, MakeMeasureProvider(matching, resolved,
                                                      options.provider));
  }
  return DetermineWithProvider(provider.get(), resolved.lhs.size(),
                               resolved.rhs.size(), matching.dmax(), options,
                               options.provider);
}

}  // namespace dd
