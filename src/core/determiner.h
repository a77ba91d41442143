// Facade tying the whole determination pipeline together: resolve a
// rule against a matching relation, pick a measure provider, estimate
// the utility prior from the data, and run the configured combination of
// {DA, DAP} × {PA, PAP} with a processing order and answer size l —
// i.e. the full parameter-free threshold determination of the paper.
//
// The same driver runs the two special cases of DDs from the paper's
// related work, each the search with one side pinned to equality:
//
//  * Metric functional dependencies (MFDs, Koudas et al. ICDE 2009):
//    equality on the determinant side X, metric thresholds on the
//    dependent side Y. Determination fixes ϕ[X] = <0,...,0> and searches
//    C_Y only — "the threshold determination techniques proposed in
//    this study can be directly applied to MFDs".
//
//  * Matching dependencies (MDs, Fan et al. PVLDB 2009; discovery in
//    Song & Chen CIKM 2009): metric thresholds on X with (near-)
//    identification on Y. Determination fixes ϕ[Y] = <0,...,0> and
//    searches C_X for the thresholds with the maximum expected utility.

#ifndef DD_CORE_DETERMINER_H_
#define DD_CORE_DETERMINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/da.h"
#include "core/rule.h"
#include "matching/matching_relation.h"

namespace dd {

enum class LhsAlgorithm { kDa, kDap };
enum class RhsAlgorithm { kPa, kPap };

const char* LhsAlgorithmName(LhsAlgorithm algorithm);
const char* RhsAlgorithmName(RhsAlgorithm algorithm);

struct DetermineOptions {
  LhsAlgorithm lhs_algorithm = LhsAlgorithm::kDap;
  RhsAlgorithm rhs_algorithm = RhsAlgorithm::kPap;
  // C_Y processing order. The paper's default recommendation: top-first
  // (best with DAP; DA+PAP slightly prefers mid-first, see Table V).
  ProcessingOrder order = ProcessingOrder::kTopFirst;
  // Number of answers (l-th largest expected utility extension).
  std::size_t top_l = 1;
  // Measure provider: "scan" (paper-faithful) or "grid".
  std::string provider = "scan";
  // Concurrency of the search (0 = DefaultThreads(), i.e. the --threads
  // flag / DD_THREADS env). Parallelism is across LHS candidates only,
  // and only under DA (DaOptions::threads): DAP, each per-LHS PA/PAP
  // search and every provider count run on one thread. Results are
  // bit-identical at any value; 1 forces the fully sequential path.
  std::size_t threads = 0;
  // Prior CQ̄ estimation sample; 0 keeps utility.prior_mean_cq as given.
  std::size_t prior_sample_size = 200;
  std::uint64_t prior_seed = 99;
  UtilityOptions utility;
};

struct DetermineResult {
  // Up to top_l patterns, descending expected utility.
  std::vector<DeterminedPattern> patterns;
  // Search-phase work only: the facade resets the provider's stats after
  // prior estimation, so neither field below includes the prior probes
  // (see the stats contract in core/measure_provider.h).
  DaStats stats;
  ProviderStats provider_stats;
  double prior_mean_cq = 0.0;
  double elapsed_seconds = 0.0;
};

// Runs the determination. Fails on unresolvable rules or providers.
Result<DetermineResult> DetermineThresholds(const MatchingRelation& matching,
                                            const RuleSpec& rule,
                                            const DetermineOptions& options);

// MFD determination: ϕ[X] is pinned to equality and one PA/PAP pass
// (options.rhs_algorithm, options.order) searches C_Y. Returns up to
// top_l patterns in that pass's order (descending C·Q, hence descending
// utility). options.lhs_algorithm and options.threads do not apply.
Result<DetermineResult> DetermineMfdThresholds(const MatchingRelation& matching,
                                               const RuleSpec& rule,
                                               const DetermineOptions& options);

// MD determination: ϕ[Y] is pinned to equality (exact identification)
// and every ϕ[X] of C_X is evaluated. Returns the top_l patterns by
// expected utility, dropping those with utility <= 0. Only top_l,
// provider and the prior/utility settings of `options` apply.
Result<DetermineResult> DetermineMdThresholds(const MatchingRelation& matching,
                                              const RuleSpec& rule,
                                              const DetermineOptions& options);

// The provider-agnostic core of DetermineThresholds: prior estimation,
// stats reset, the DA/PA search, and metrics publication against an
// already-built provider. Shared with pipelines that own provider
// construction themselves (the approx refinement driver,
// approx/refine.h, runs it repeatedly against growing samples).
// `options.provider` is ignored; `provider_label` feeds the EXPLAIN run
// label instead.
Result<DetermineResult> DetermineWithProvider(MeasureProvider* provider,
                                              std::size_t lhs_dims,
                                              std::size_t rhs_dims, int dmax,
                                              const DetermineOptions& options,
                                              const std::string& provider_label);

}  // namespace dd

#endif  // DD_CORE_DETERMINER_H_
