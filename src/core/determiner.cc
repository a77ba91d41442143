#include "core/determiner.h"

#include <algorithm>
#include <memory>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/candidate_lattice.h"
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

namespace {

// Publishes a finished run's search statistics into the global
// obs::MetricsRegistry (counters "determine.*" / "provider.*" and the
// "determine.pruning_rate" gauge).
void PublishDetermineMetrics(const DaStats& stats,
                             const ProviderStats& provider_stats) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("determine.runs").Increment();
  registry.GetCounter("determine.lhs_evaluated").Add(stats.lhs_evaluated);
  registry.GetCounter("determine.lhs_bounded").Add(stats.lhs_bounded);
  registry.GetCounter("determine.rhs_lattice").Add(stats.rhs.lattice_size);
  registry.GetCounter("determine.rhs_evaluated").Add(stats.rhs.evaluated);
  registry.GetCounter("determine.rhs_pruned").Add(stats.rhs.pruned);
  registry.GetCounter("provider.lhs_evaluations")
      .Add(provider_stats.lhs_evaluations);
  registry.GetCounter("provider.xy_evaluations")
      .Add(provider_stats.xy_evaluations);
  registry.GetCounter("provider.rows_scanned").Add(provider_stats.rows_scanned);
  registry.GetCounter("provider.words_scanned")
      .Add(provider_stats.words_scanned);
  registry.GetGauge("determine.pruning_rate").Set(stats.PruningRate());
}

// One determination's search over `provider` at the estimated utility
// prior: fills result->patterns and result->stats.
using SearchFn = void (*)(MeasureProvider* provider, std::size_t lhs_dims,
                          std::size_t rhs_dims, int dmax,
                          const DetermineOptions& options,
                          const UtilityOptions& utility,
                          DetermineResult* result);

PaOptions PaOptionsOf(const DetermineOptions& options) {
  PaOptions pa;
  pa.prune = options.rhs_algorithm == RhsAlgorithm::kPap;
  pa.order = options.order;
  pa.top_l = options.top_l;
  return pa;
}

// DD: the configured {DA, DAP} × {PA, PAP} search over C_X × C_Y.
void SearchDd(MeasureProvider* provider, std::size_t lhs_dims,
              std::size_t rhs_dims, int dmax, const DetermineOptions& options,
              const UtilityOptions& utility, DetermineResult* result) {
  DaOptions da;
  da.advanced_bound = options.lhs_algorithm == LhsAlgorithm::kDap;
  da.pa = PaOptionsOf(options);
  da.utility = utility;
  da.threads = options.threads;
  result->patterns = DetermineBestPatterns(provider, lhs_dims, rhs_dims, dmax,
                                           da, &result->stats);
}

// MFD: the per-LHS step at ϕ[X] = <0,...,0>, one PA/PAP pass over C_Y.
// The answers stay in FindBestRhs order.
void SearchMfd(MeasureProvider* provider, std::size_t lhs_dims,
               std::size_t rhs_dims, int dmax, const DetermineOptions& options,
               const UtilityOptions& utility, DetermineResult* result) {
  const Levels lhs(lhs_dims, 0);
  provider->SetLhs(lhs);
  result->patterns =
      DetermineForLhs(provider, lhs, rhs_dims, dmax, /*bound=*/0.0,
                      PaOptionsOf(options), utility, &result->stats.rhs);
  result->stats.lhs_total += 1;
  result->stats.lhs_evaluated += 1;
}

// MD: every ϕ[X] against ϕ[Y] = <0,...,0>. Q(<0,...,0>) = 1, so the
// expected utility ranks LHS candidates by their (D, C) trade-off alone;
// every candidate is one, C = 0 included.
void SearchMd(MeasureProvider* provider, std::size_t lhs_dims,
              std::size_t rhs_dims, int dmax, const DetermineOptions& options,
              const UtilityOptions& utility, DetermineResult* result) {
  const Levels rhs(rhs_dims, 0);
  obs::ExplainRecorder* rec = obs::ExplainRecorder::Active();
  if (rec != nullptr) rec->SetRhsGeometry(rhs_dims, dmax);
  CandidateLattice lhs_lattice(lhs_dims, dmax);
  for (std::size_t idx = 0; idx < lhs_lattice.size(); ++idx) {
    const Levels lhs = lhs_lattice.LevelsOf(idx);
    provider->SetLhs(lhs);
    const std::uint64_t n = provider->lhs_count();
    const std::uint64_t xy = provider->CountXY(rhs);
    DeterminedPattern p = MakeDeterminedPattern(lhs, rhs, provider->total(),
                                                n, xy, dmax, utility);
    if (rec != nullptr) {
      // The MD search has one RHS candidate (the pinned equality
      // pattern) per LHS — mirror that in the waterfall so the MD
      // stats contract (rhs.lattice_size grows by |C_X|) still
      // satisfies the accounting identity.
      rec->AddCandidates(1);
      const std::uint32_t lhs_seq =
          rec->BeginLhs(lhs, n, provider->total(), 0.0,
                        obs::ExplainBound::kInitial);
      rec->RecordEvaluated(lhs_seq, /*rhs_index=*/0, /*rank=*/0, xy,
                           p.measures.confidence, p.measures.quality,
                           p.measures.confidence * p.measures.quality,
                           /*bound=*/0.0, obs::ExplainBound::kInitial,
                           /*offered=*/false, /*eval_ns=*/0.0);
    }
    result->patterns.push_back(std::move(p));
  }
  // Stats contract: accumulate field-wise, matching DetermineBestPatterns.
  result->stats.lhs_total += lhs_lattice.size();
  result->stats.lhs_evaluated += lhs_lattice.size();
  result->stats.rhs.Add({lhs_lattice.size(), lhs_lattice.size(), 0});
  std::vector<DeterminedPattern>& patterns = result->patterns;
  std::sort(patterns.begin(), patterns.end(),
            [](const DeterminedPattern& a, const DeterminedPattern& b) {
              return a.utility > b.utility;
            });
  if (patterns.size() > options.top_l) patterns.resize(options.top_l);
  // Drop useless all-zero-utility answers for symmetry with the DD
  // search's "strictly exceeds the bound" convention.
  while (!patterns.empty() && patterns.back().utility <= 0.0) {
    patterns.pop_back();
  }
}

// The EXPLAIN run label of a DD search, e.g.
// "DAP+PAP provider=scan order=top-first top_l=1".
std::string DdRunLabel(const DetermineOptions& options,
                       const std::string& provider_label) {
  return StrFormat("%s+%s provider=%s order=%s top_l=%zu",
                   LhsAlgorithmName(options.lhs_algorithm),
                   RhsAlgorithmName(options.rhs_algorithm),
                   provider_label.c_str(), ProcessingOrderName(options.order),
                   options.top_l);
}

// The driver every determination shares: the top-l check, the spans,
// the EXPLAIN run label, the utility prior, the stats reset, the timer,
// and the metrics, flight record and log line of the finished run.
// `search` is the only part that differs.
Result<DetermineResult> RunDetermination(MeasureProvider* provider,
                                         std::size_t lhs_dims,
                                         std::size_t rhs_dims, int dmax,
                                         const DetermineOptions& options,
                                         const std::string& run_label,
                                         SearchFn search) {
  if (options.top_l == 0) {
    return Status::InvalidArgument("top_l must be >= 1");
  }
  obs::TraceSpan determine_span("determine");
  Stopwatch total_timer;
  if (obs::ExplainRecorder* rec = obs::ExplainRecorder::Active()) {
    rec->SetRunLabel(run_label);
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

  Stopwatch timer;
  {
    obs::TraceSpan span("search");
    search(provider, lhs_dims, rhs_dims, dmax, options, utility, &result);
  }
  result.elapsed_seconds = timer.ElapsedSeconds();
  result.provider_stats = provider->stats();
  PublishDetermineMetrics(result.stats, result.provider_stats);
  obs::diag::FlightRecord(obs::diag::EventType::kDetermined, "determine",
                          result.patterns.size(), provider->total());
  DD_LOG(INFO) << run_label << ": " << result.patterns.size()
               << " pattern(s) over |M|=" << provider->total() << " in "
               << total_timer.ElapsedSeconds() << "s (pruning rate "
               << result.stats.PruningRate() << ")";
  return result;
}

// Resolves `rule`, builds options.provider over `matching`, and runs
// `search` on it through RunDetermination.
Result<DetermineResult> RunOnMatching(const MatchingRelation& matching,
                                      const RuleSpec& rule,
                                      const DetermineOptions& options,
                                      const std::string& run_label,
                                      SearchFn search) {
  DD_ASSIGN_OR_RETURN(ResolvedRule resolved, ResolveRule(matching, rule));
  std::unique_ptr<MeasureProvider> provider;
  {
    obs::TraceSpan span("provider_build");
    DD_ASSIGN_OR_RETURN(provider, MakeMeasureProvider(matching, resolved,
                                                      options.provider));
  }
  return RunDetermination(provider.get(), resolved.lhs.size(),
                          resolved.rhs.size(), matching.dmax(), options,
                          run_label, search);
}

}  // namespace

Result<DetermineResult> DetermineWithProvider(
    MeasureProvider* provider, std::size_t lhs_dims, std::size_t rhs_dims,
    int dmax, const DetermineOptions& options,
    const std::string& provider_label) {
  return RunDetermination(provider, lhs_dims, rhs_dims, dmax, options,
                          DdRunLabel(options, provider_label), SearchDd);
}

Result<DetermineResult> DetermineThresholds(const MatchingRelation& matching,
                                            const RuleSpec& rule,
                                            const DetermineOptions& options) {
  return RunOnMatching(matching, rule, options,
                       DdRunLabel(options, options.provider), SearchDd);
}

Result<DetermineResult> DetermineMfdThresholds(
    const MatchingRelation& matching, const RuleSpec& rule,
    const DetermineOptions& options) {
  return RunOnMatching(matching, rule, options, "MFD determination",
                       SearchMfd);
}

Result<DetermineResult> DetermineMdThresholds(const MatchingRelation& matching,
                                              const RuleSpec& rule,
                                              const DetermineOptions& options) {
  return RunOnMatching(matching, rule, options, "MD determination", SearchMd);
}

}  // namespace dd
