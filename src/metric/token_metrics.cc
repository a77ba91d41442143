// Jaccard and cosine distances on whitespace tokens.

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "metric/metric.h"

namespace dd {

double JaccardMetric::Distance(std::string_view a, std::string_view b) const {
  if (a == b) return 0.0;
  std::unordered_set<std::string> sa;
  std::unordered_set<std::string> sb;
  for (auto& t : SplitWhitespace(a)) sa.insert(ToLower(t));
  for (auto& t : SplitWhitespace(b)) sb.insert(ToLower(t));
  if (sa.empty() && sb.empty()) return 0.0;
  std::size_t inter = 0;
  for (const auto& t : sa) {
    if (sb.count(t) > 0) ++inter;
  }
  const std::size_t uni = sa.size() + sb.size() - inter;
  return 1.0 - static_cast<double>(inter) / static_cast<double>(uni);
}

double CosineMetric::Distance(std::string_view a, std::string_view b) const {
  if (a == b) return 0.0;
  std::unordered_map<std::string, double> va;
  std::unordered_map<std::string, double> vb;
  for (auto& t : SplitWhitespace(a)) va[ToLower(t)] += 1.0;
  for (auto& t : SplitWhitespace(b)) vb[ToLower(t)] += 1.0;
  if (va.empty() && vb.empty()) return 0.0;
  if (va.empty() || vb.empty()) return 1.0;
  double dot = 0.0;
  for (const auto& [t, w] : va) {
    auto it = vb.find(t);
    if (it != vb.end()) dot += w * it->second;
  }
  double na = 0.0;
  double nb = 0.0;
  for (const auto& [t, w] : va) na += w * w;
  for (const auto& [t, w] : vb) nb += w * w;
  const double cos = dot / (std::sqrt(na) * std::sqrt(nb));
  // Guard against floating-point overshoot.
  return 1.0 - std::min(1.0, std::max(0.0, cos));
}

double NumericAbsMetric::Distance(std::string_view a, std::string_view b) const {
  if (a == b) return 0.0;
  double xa = 0.0;
  double xb = 0.0;
  if (!ParseDouble(a, &xa) || !ParseDouble(b, &xb)) {
    return std::numeric_limits<double>::infinity();
  }
  // "nan" against anything, or two spellings of the same infinity,
  // give a NaN difference; the level bucketing would clamp it to the
  // "identical" level 0.
  const double d = std::fabs(xa - xb);
  return std::isnan(d) ? std::numeric_limits<double>::infinity() : d;
}

}  // namespace dd
