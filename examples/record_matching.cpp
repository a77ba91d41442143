// Record matching with matching dependencies (MDs) — the related-work
// application the paper suggests its techniques extend to (Fan et al.
// 2009; Song & Chen, CIKM 2009). An MD identifies duplicates: if two
// records are within the determined thresholds on X (here name and
// address), they refer to the same real-world entity (equality on an
// identifier attribute). DetermineMdThresholds (core/determiner.h) runs
// the determination with ϕ[Y] pinned to equality and finds the X
// thresholds with the maximum expected utility; we then
// score the implied duplicate detection against the generator's entity
// ids.
//
// Usage: record_matching [num_entities]

#include <cstdio>
#include <cstdlib>

#include "core/determiner.h"
#include "data/generators.h"
#include "detect/detection_eval.h"
#include "matching/builder.h"

int main(int argc, char** argv) {
  const std::size_t num_entities =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 100;

  dd::RestaurantOptions gopts;
  gopts.num_entities = num_entities;
  dd::GeneratedData data = dd::GenerateRestaurant(gopts);
  std::printf("restaurant instance: %zu rows, %zu entities\n",
              data.relation.num_rows(), num_entities);

  // city acts as the identification attribute here: a pure MD setting
  // would use a key, so we emulate one by adding the entity's canonical
  // city — records of the same entity agree on it up to format noise.
  dd::RuleSpec rule{{"name", "address"}, {"city"}};
  dd::MatchingOptions mopts;
  mopts.dmax = 10;
  auto matching =
      dd::BuildMatchingRelation(data.relation, rule.AllAttributes(), mopts);
  if (!matching.ok()) {
    std::fprintf(stderr, "%s\n", matching.status().ToString().c_str());
    return 1;
  }

  // Only top_l, the provider and the prior settings apply to an MD run.
  dd::DetermineOptions options;
  options.top_l = 5;
  auto md = dd::DetermineMdThresholds(*matching, rule, options);
  if (!md.ok()) {
    std::fprintf(stderr, "%s\n", md.status().ToString().c_str());
    return 1;
  }
  std::printf("\nMD candidates (Y pinned to equality):\n");
  std::printf("%-24s %8s %8s %9s\n", "pattern", "D", "C", "utility");
  for (const auto& p : md->patterns) {
    std::printf("%-24s %8.4f %8.4f %9.4f\n",
                dd::PatternToString(p.pattern).c_str(), p.measures.d,
                p.measures.confidence, p.utility);
  }
  if (md->patterns.empty()) return 1;

  // Duplicate identification: pairs within the MD's X thresholds are
  // declared matches; ground truth is "same generator entity".
  const dd::Pattern& best = md->patterns.front().pattern;
  dd::PairList declared;
  dd::PairList truth;
  for (std::size_t row = 0; row < matching->num_tuples(); ++row) {
    auto [i, j] = matching->pair(row);
    bool within = true;
    for (std::size_t a = 0; a < rule.lhs.size(); ++a) {
      if (static_cast<int>(matching->level(row, a)) > best.lhs[a]) {
        within = false;
        break;
      }
    }
    if (within) declared.emplace_back(i, j);
    if (data.entity_ids[i] == data.entity_ids[j]) truth.emplace_back(i, j);
  }
  dd::DetectionQuality q = dd::EvaluateDetection(declared, truth);
  std::printf("\nduplicate identification with %s on (name, address):\n",
              dd::LevelsToString(best.lhs).c_str());
  std::printf("  declared=%zu  true-duplicate pairs=%zu\n", q.found_size,
              q.truth_size);
  std::printf("  precision=%.4f recall=%.4f f-measure=%.4f\n", q.precision,
              q.recall, q.f_measure);
  std::printf(
      "\nThe determined thresholds tolerate the format variants that break\n"
      "exact matching while keeping distinct restaurants apart.\n");
  return 0;
}
