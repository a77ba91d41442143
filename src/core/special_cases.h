// Special cases of DDs discussed in the paper's related work, exposed
// as first-class determination entry points:
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

#ifndef DD_CORE_SPECIAL_CASES_H_
#define DD_CORE_SPECIAL_CASES_H_

#include "common/result.h"
#include "core/determiner.h"

namespace dd {

struct SpecialCaseOptions {
  // PAP pruning and order for the searched side.
  bool prune = true;
  ProcessingOrder order = ProcessingOrder::kMidFirst;
  std::size_t top_l = 1;
  std::string provider = "scan";
  std::size_t prior_sample_size = 200;
  std::uint64_t prior_seed = 99;
  UtilityOptions utility;
};

// MFD determination: ϕ[X] is pinned to equality; returns the top-l
// dependent-side patterns by expected utility.
Result<DetermineResult> DetermineMfdThresholds(
    const MatchingRelation& matching, const RuleSpec& rule,
    const SpecialCaseOptions& options);

// MD determination: ϕ[Y] is pinned to equality (exact identification);
// returns the top-l determinant-side patterns by expected utility.
Result<DetermineResult> DetermineMdThresholds(
    const MatchingRelation& matching, const RuleSpec& rule,
    const SpecialCaseOptions& options);

}  // namespace dd

#endif  // DD_CORE_SPECIAL_CASES_H_
