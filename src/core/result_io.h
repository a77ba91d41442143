// Serialization of determination results for pipeline integration:
// compact JSON (hand-rolled, no dependencies) and CSV rows.

#ifndef DD_CORE_RESULT_IO_H_
#define DD_CORE_RESULT_IO_H_

#include <string>

#include "core/determiner.h"
#include "core/rule.h"

namespace dd {

// {"rule": {...}, "prior_mean_cq": ..., "elapsed_seconds": ...,
//  "pruning_rate": ..., "patterns": [{"lhs": [...], "rhs": [...],
//  "d": ..., "confidence": ..., "support": ..., "quality": ...,
//  "utility": ...}, ...]}
std::string DetermineResultToJson(const DetermineResult& result,
                                  const RuleSpec& rule);

// CSV with one row per pattern and a header:
// lhs,rhs,d,confidence,support,quality,utility
std::string DetermineResultToCsv(const DetermineResult& result);

}  // namespace dd

#endif  // DD_CORE_RESULT_IO_H_
