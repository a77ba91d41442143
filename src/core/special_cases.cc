#include "core/special_cases.h"

#include <algorithm>
#include <memory>

#include "common/stopwatch.h"
#include "core/candidate_lattice.h"
#include "core/expected_utility.h"
#include "core/measure_provider.h"
#include "core/pa.h"
#include "obs/explain/recorder.h"
#include "obs/trace.h"

namespace dd {

namespace {

Result<DetermineResult> DetermineWithPinnedSide(
    const MatchingRelation& matching, const RuleSpec& rule,
    const SpecialCaseOptions& options, bool pin_lhs) {
  if (options.top_l == 0) {
    return Status::InvalidArgument("top_l must be >= 1");
  }
  obs::TraceSpan determine_span("determine");
  obs::ExplainRecorder* rec = obs::ExplainRecorder::Active();
  if (rec != nullptr) {
    rec->SetRunLabel(pin_lhs ? "MFD determination" : "MD determination");
  }
  DD_ASSIGN_OR_RETURN(ResolvedRule resolved, ResolveRule(matching, rule));
  std::unique_ptr<MeasureProvider> provider;
  {
    obs::TraceSpan span("provider_build");
    DD_ASSIGN_OR_RETURN(provider, MakeMeasureProvider(matching, resolved,
                                                      options.provider));
  }
  const int dmax = matching.dmax();

  DetermineResult result;
  UtilityOptions utility = options.utility;
  if (options.prior_sample_size > 0) {
    obs::TraceSpan span("prior_estimation");
    utility.prior_mean_cq = EstimatePriorMeanCq(
        provider.get(), resolved.lhs.size(), resolved.rhs.size(), dmax,
        options.prior_sample_size, options.prior_seed);
  }
  result.prior_mean_cq = utility.prior_mean_cq;
  // Stats contract (measure_provider.h): reset so the reported stats
  // cover search work only, mirroring DetermineThresholds.
  provider->ResetStats();
  Stopwatch timer;
  obs::TraceSpan search_span("search");

  PaOptions pa;
  pa.prune = options.prune;
  pa.order = options.order;
  pa.top_l = options.top_l;

  if (pin_lhs) {
    // MFD: ϕ[X] = equality; one PAP/PA pass over C_Y.
    const Levels lhs(resolved.lhs.size(), 0);
    provider->SetLhs(lhs);
    const std::uint64_t n = provider->lhs_count();
    PaStats pa_stats;
    std::vector<RhsCandidate> best = FindBestRhs(
        provider.get(), resolved.rhs.size(), dmax, 0.0, pa, &pa_stats);
    for (RhsCandidate& c : best) {
      DeterminedPattern p;
      p.pattern.lhs = lhs;
      p.pattern.rhs = std::move(c.rhs);
      p.measures = MeasuresFromCounts(provider->total(), n, c.xy_count,
                                      p.pattern.rhs, dmax);
      p.utility = ExpectedUtility(provider->total(), n,
                                  p.measures.confidence, p.measures.quality,
                                  utility);
      result.patterns.push_back(std::move(p));
    }
    // Stats contract: accumulate field-wise, matching DetermineBestPatterns.
    result.stats.lhs_total += 1;
    result.stats.lhs_evaluated += 1;
    result.stats.rhs.lattice_size += pa_stats.lattice_size;
    result.stats.rhs.evaluated += pa_stats.evaluated;
    result.stats.rhs.pruned += pa_stats.pruned;
  } else {
    // MD: ϕ[Y] = equality; evaluate every ϕ[X] against the fixed RHS.
    // Q(<0,...,0>) = 1, so the expected utility ranks LHS candidates by
    // their (D, C) trade-off alone.
    const Levels rhs(resolved.rhs.size(), 0);
    if (rec != nullptr) rec->SetRhsGeometry(resolved.rhs.size(), dmax);
    CandidateLattice lhs_lattice(resolved.lhs.size(), dmax);
    for (std::size_t idx = 0; idx < lhs_lattice.size(); ++idx) {
      const Levels lhs = lhs_lattice.LevelsOf(idx);
      provider->SetLhs(lhs);
      const std::uint64_t n = provider->lhs_count();
      const std::uint64_t xy = provider->CountXY(rhs);
      DeterminedPattern p;
      p.pattern.lhs = lhs;
      p.pattern.rhs = rhs;
      p.measures = MeasuresFromCounts(provider->total(), n, xy, rhs, dmax);
      p.utility = ExpectedUtility(provider->total(), n,
                                  p.measures.confidence, p.measures.quality,
                                  utility);
      if (rec != nullptr) {
        // The MD search has one RHS candidate (the pinned equality
        // pattern) per LHS — mirror that in the waterfall so the MD
        // stats contract (rhs.lattice_size grows by |C_X|) still
        // satisfies the accounting identity.
        rec->AddCandidates(1);
        const std::uint32_t lhs_seq =
            rec->BeginLhs(lhs, n, provider->total(), 0.0, false);
        rec->RecordEvaluated(lhs_seq, /*rhs_index=*/0, /*rank=*/0, xy,
                             p.measures.confidence, p.measures.quality,
                             p.measures.confidence * p.measures.quality,
                             /*bound=*/0.0, obs::ExplainBound::kInitial,
                             /*offered=*/false, /*eval_ns=*/0.0);
      }
      result.patterns.push_back(std::move(p));
      ++result.stats.lhs_evaluated;
    }
    // Stats contract: accumulate field-wise, matching DetermineBestPatterns.
    result.stats.lhs_total += lhs_lattice.size();
    result.stats.rhs.lattice_size += lhs_lattice.size();
    result.stats.rhs.evaluated += lhs_lattice.size();
    std::sort(result.patterns.begin(), result.patterns.end(),
              [](const DeterminedPattern& a, const DeterminedPattern& b) {
                return a.utility > b.utility;
              });
    if (result.patterns.size() > options.top_l) {
      result.patterns.resize(options.top_l);
    }
    // Drop useless all-zero-utility answers for symmetry with the DD
    // determiner's "strictly exceeds the bound" convention.
    while (!result.patterns.empty() && result.patterns.back().utility <= 0.0) {
      result.patterns.pop_back();
    }
  }

  result.elapsed_seconds = timer.ElapsedSeconds();
  result.provider_stats = provider->stats();
  PublishDetermineMetrics(result.stats, result.provider_stats);
  return result;
}

}  // namespace

Result<DetermineResult> DetermineMfdThresholds(
    const MatchingRelation& matching, const RuleSpec& rule,
    const SpecialCaseOptions& options) {
  return DetermineWithPinnedSide(matching, rule, options, /*pin_lhs=*/true);
}

Result<DetermineResult> DetermineMdThresholds(
    const MatchingRelation& matching, const RuleSpec& rule,
    const SpecialCaseOptions& options) {
  return DetermineWithPinnedSide(matching, rule, options, /*pin_lhs=*/false);
}

}  // namespace dd
