#include "core/result_io.h"

#include "common/string_util.h"

namespace dd {

namespace {

std::string LevelsToJsonArray(const Levels& levels) {
  std::string out = "[";
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("%d", levels[i]);
  }
  out += "]";
  return out;
}

std::string NamesToJsonArray(const std::vector<std::string>& names) {
  std::string out = "[";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ",";
    // Sequential appends sidestep a GCC 12 -Wrestrict false positive
    // (PR105329) on "literal" + std::string operator chains.
    out += "\"";
    out += JsonEscape(names[i]);
    out += "\"";
  }
  out += "]";
  return out;
}

}  // namespace

std::string DetermineResultToJson(const DetermineResult& result,
                                  const RuleSpec& rule) {
  std::string out = "{";
  out += "\"rule\":{\"lhs\":" + NamesToJsonArray(rule.lhs) +
         ",\"rhs\":" + NamesToJsonArray(rule.rhs) + "}";
  out += StrFormat(",\"prior_mean_cq\":%.6f", result.prior_mean_cq);
  out += StrFormat(",\"elapsed_seconds\":%.6f", result.elapsed_seconds);
  out += StrFormat(",\"pruning_rate\":%.6f", result.stats.PruningRate());
  out += ",\"patterns\":[";
  for (std::size_t i = 0; i < result.patterns.size(); ++i) {
    const DeterminedPattern& p = result.patterns[i];
    if (i > 0) out += ",";
    out += "{\"lhs\":" + LevelsToJsonArray(p.pattern.lhs);
    out += ",\"rhs\":" + LevelsToJsonArray(p.pattern.rhs);
    out += StrFormat(",\"d\":%.6f", p.measures.d);
    out += StrFormat(",\"confidence\":%.6f", p.measures.confidence);
    out += StrFormat(",\"support\":%.6f", p.measures.support);
    out += StrFormat(",\"quality\":%.6f", p.measures.quality);
    out += StrFormat(",\"utility\":%.6f", p.utility);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string DetermineResultToCsv(const DetermineResult& result) {
  std::string out = "lhs,rhs,d,confidence,support,quality,utility\n";
  for (const DeterminedPattern& p : result.patterns) {
    std::string lhs = LevelsToString(p.pattern.lhs);
    std::string rhs = LevelsToString(p.pattern.rhs);
    out += StrFormat("\"%s\",\"%s\",%.6f,%.6f,%.6f,%.6f,%.6f\n", lhs.c_str(),
                     rhs.c_str(), p.measures.d, p.measures.confidence,
                     p.measures.support, p.measures.quality, p.utility);
  }
  return out;
}

}  // namespace dd
