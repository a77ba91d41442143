#include "approx/refine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/string_util.h"
#include "core/expected_utility.h"
#include "core/result_io.h"
#include "obs/diag/flight_recorder.h"
#include "obs/explain/recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dd::approx {

namespace {

// Geometric growth factor of the tail sample between rounds.
constexpr double kGrowth = 2.0;

PatternIntervals ComputeIntervals(ApproxMeasureProvider* provider,
                                  const DeterminedPattern& determined,
                                  const UtilityOptions& utility) {
  PatternIntervals iv;
  provider->SetLhs(determined.pattern.lhs);
  iv.lhs_count = provider->LhsCountInterval();
  iv.xy_count = provider->XyCountInterval(determined.pattern.rhs);
  const double total = static_cast<double>(provider->total());
  iv.d = total > 0.0 ? Interval{iv.lhs_count.lo / total,
                                iv.lhs_count.hi / total}
                     : Interval{0.0, 0.0};
  // Conservative dependent-ratio bounds: the smallest confidence pairs
  // the XY floor with the LHS ceiling, and vice versa.
  double c_lo = 0.0;
  double c_hi = 0.0;
  if (iv.lhs_count.hi > 0.0) {
    c_lo = Clamp(iv.xy_count.lo / iv.lhs_count.hi, 0.0, 1.0);
  }
  if (iv.lhs_count.lo > 0.0) {
    c_hi = Clamp(iv.xy_count.hi / iv.lhs_count.lo, 0.0, 1.0);
  } else {
    c_hi = iv.xy_count.hi > 0.0 ? 1.0 : c_lo;
  }
  iv.confidence = {c_lo, std::max(c_lo, c_hi)};
  iv.quality = determined.measures.quality;

  // Ū corners over {D_lo,D_hi} × {C_lo,C_hi}: exact bounds for the
  // closed form (monotone in CQ at fixed D, monotone in D at fixed CQ),
  // conservative corner-sampling for the numeric-integration method.
  const std::uint64_t lhs_corners[2] = {
      static_cast<std::uint64_t>(std::llround(iv.lhs_count.lo)),
      static_cast<std::uint64_t>(std::llround(iv.lhs_count.hi))};
  const double c_corners[2] = {iv.confidence.lo, iv.confidence.hi};
  double u_lo = 0.0;
  double u_hi = 0.0;
  bool first = true;
  for (std::uint64_t lhs : lhs_corners) {
    for (double c : c_corners) {
      const double u =
          ExpectedUtility(provider->total(), lhs, c, iv.quality, utility);
      u_lo = first ? u : std::min(u_lo, u);
      u_hi = first ? u : std::max(u_hi, u);
      first = false;
    }
  }
  iv.utility = {u_lo, u_hi};
  return iv;
}

// One search round at the sample's current size. `search_l` may exceed
// options.determine.top_l to expose the runner-up.
Result<ApproxDetermineResult> RunRound(const SampledMatchingBuilder& sample,
                                       const RuleSpec& rule,
                                       const ApproxDetermineOptions& options,
                                       std::size_t search_l) {
  DD_ASSIGN_OR_RETURN(
      std::unique_ptr<ApproxMeasureProvider> provider,
      ApproxMeasureProvider::Create(sample, rule));

  DetermineOptions determine = options.determine;
  determine.top_l = search_l;
  DD_ASSIGN_OR_RETURN(
      DetermineResult run,
      DetermineWithProvider(provider.get(), rule.lhs.size(), rule.rhs.size(),
                            sample.dmax(), determine, "approx"));

  ApproxDetermineResult result;
  result.determine = std::move(run);
  result.total_pairs = sample.total_pairs();
  result.near_pairs = sample.near_pairs();
  result.sampled_pairs = sample.tail_sampled();
  result.sample_fraction = sample.sample_fraction();
  result.exhaustive = sample.exhaustive();

  // Interval probes run OUTSIDE the reported search stats window on
  // purpose: they are reporting overhead, not search work.
  UtilityOptions utility = options.determine.utility;
  utility.prior_mean_cq = result.determine.prior_mean_cq;
  result.intervals.reserve(result.determine.patterns.size());
  for (const DeterminedPattern& determined : result.determine.patterns) {
    result.intervals.push_back(
        ComputeIntervals(provider.get(), determined, utility));
  }
  return result;
}

std::vector<Pattern> TopPatterns(const ApproxDetermineResult& result,
                                 std::size_t top_l) {
  std::vector<Pattern> top;
  const std::size_t n = std::min(top_l, result.determine.patterns.size());
  top.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    top.push_back(result.determine.patterns[i].pattern);
  }
  return top;
}

void Truncate(ApproxDetermineResult* result, std::size_t top_l) {
  if (result->determine.patterns.size() > top_l) {
    result->determine.patterns.resize(top_l);
    result->intervals.resize(top_l);
  }
}

void PublishApproxMetrics(const ApproxDetermineResult& result) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("approx.refine_rounds").Add(result.rounds);
  registry.GetGauge("approx.sample_fraction").Set(result.sample_fraction);
  registry.GetGauge("approx.rounds").Set(static_cast<double>(result.rounds));
  if (obs::ExplainRecorder* rec = obs::ExplainRecorder::Active()) {
    rec->SetEstimated(!result.exhaustive);
  }
}

}  // namespace

Result<ApproxDetermineResult> ApproxDetermineWithSample(
    const SampledMatchingBuilder& sample, const RuleSpec& rule,
    const ApproxDetermineOptions& options) {
  if (options.determine.top_l == 0) {
    return Status::InvalidArgument("top_l must be >= 1");
  }
  const std::size_t top_l = options.determine.top_l;
  const std::size_t search_l = sample.exhaustive() ? top_l : top_l + 1;
  DD_ASSIGN_OR_RETURN(ApproxDetermineResult result,
                      RunRound(sample, rule, options, search_l));
  result.rounds = 1;
  result.converged = sample.exhaustive();
  Truncate(&result, top_l);
  PublishApproxMetrics(result);
  return result;
}

Result<ApproxDetermineResult> ApproxDetermineThresholds(
    const Relation& relation, const RuleSpec& rule,
    const MatchingOptions& matching, const ApproxDetermineOptions& options) {
  obs::TraceSpan span("approx_determine");
  if (options.determine.top_l == 0) {
    return Status::InvalidArgument("top_l must be >= 1");
  }
  const std::size_t top_l = options.determine.top_l;
  DD_ASSIGN_OR_RETURN(
      std::unique_ptr<SampledMatchingBuilder> sample,
      SampledMatchingBuilder::Build(relation, rule.AllAttributes(), matching,
                                    options.approx));

  ApproxDetermineResult result;
  std::vector<Pattern> previous_top;
  std::size_t rounds = 0;
  while (true) {
    ++rounds;
    // Exhaustive samples run the plain top_l search: weight 1 makes the
    // round bit-identical to the exact pipeline, runner-up separation
    // is moot, and the extra answer would only perturb DAP's bound
    // bookkeeping relative to the exact run.
    const std::size_t search_l = sample->exhaustive() ? top_l : top_l + 1;
    DD_ASSIGN_OR_RETURN(result, RunRound(*sample, rule, options, search_l));
    result.rounds = rounds;
    obs::diag::FlightRecord(obs::diag::EventType::kApproxRound, "refine",
                            rounds, sample->tail_sampled());
    if (sample->exhaustive()) {
      result.converged = true;
      break;
    }

    const std::vector<Pattern> top = TopPatterns(result, top_l);
    bool stable = rounds > 1 && top == previous_top;
    if (stable && result.determine.patterns.size() > top_l) {
      const double lo_l = result.intervals[top_l - 1].utility.lo;
      const double hi_runner_up = result.intervals[top_l].utility.hi;
      stable = lo_l >= hi_runner_up - options.approx.epsilon;
    }
    if (stable) {
      result.converged = true;
      break;
    }
    if (rounds >= options.approx.max_rounds) break;
    previous_top = top;

    const std::uint64_t target = static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(std::max<std::uint64_t>(
                      sample->tail_sampled(), 1)) *
                  kGrowth));
    sample->GrowTo(std::max(target, sample->tail_sampled() + 1));
  }
  Truncate(&result, top_l);
  PublishApproxMetrics(result);
  DD_LOG(INFO) << "approx determination: " << result.rounds << " round(s), "
               << "fraction " << result.sample_fraction << ", "
               << (result.converged ? "converged" : "round cap hit")
               << (result.exhaustive ? " (exhaustive = exact)" : "");
  return result;
}

std::string ApproxResultToJson(const ApproxDetermineResult& result,
                               const RuleSpec& rule) {
  std::string inner = DetermineResultToJson(result.determine, rule);
  // Splice the approx metadata into the inner document's top level and
  // attach per-pattern interval rows alongside the point estimates.
  std::string out = "{";
  out += StrFormat(
      "\"estimated\": %s, \"converged\": %s, \"rounds\": %zu, "
      "\"sample_fraction\": %.6f, \"total_pairs\": %llu, "
      "\"near_pairs\": %llu, \"sampled_pairs\": %llu, ",
      result.exhaustive ? "false" : "true",
      result.converged ? "true" : "false", result.rounds,
      result.sample_fraction,
      static_cast<unsigned long long>(result.total_pairs),
      static_cast<unsigned long long>(result.near_pairs),
      static_cast<unsigned long long>(result.sampled_pairs));
  out += "\"intervals\": [";
  for (std::size_t i = 0; i < result.intervals.size(); ++i) {
    const PatternIntervals& iv = result.intervals[i];
    if (i > 0) out += ", ";
    out += StrFormat(
        "{\"d_lo\": %.9f, \"d_hi\": %.9f, "
        "\"confidence_lo\": %.9f, \"confidence_hi\": %.9f, "
        "\"quality\": %.9f, \"utility_lo\": %.9f, \"utility_hi\": %.9f}",
        iv.d.lo, iv.d.hi, iv.confidence.lo, iv.confidence.hi, iv.quality,
        iv.utility.lo, iv.utility.hi);
  }
  out += "], \"result\": ";
  out += inner;
  out += "}";
  return out;
}

}  // namespace dd::approx
