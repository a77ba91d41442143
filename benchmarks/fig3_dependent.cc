// Regenerates paper Figure 3: "Generation for dependent attributes" —
// time of PA vs PAP as the answer size l grows from 1 to 7, on all four
// rules (fixed data size). Expected shape: PA flat in l (it always
// scans all of C_Y); PAP much lower but increasing with l (a relaxed
// l-th-largest bound weakens pruning).
//
// After each rule's table, one machine-readable row per l:
//   BENCH_JSON {"figure": 3, "rule": R, "l": L, "pairs": M,
//               "pa_us": T, "pap_us": T, "pa_evaluated": N,
//               "pap_evaluated": N}
// with the determination wall times in µs, fine enough to rank PA
// against PAP where the table's seconds read 0.000–0.002.

#include <cstdio>
#include <string>
#include <vector>

#include "benchmarks/bench_util.h"
#include "common/string_util.h"

int main() {
  std::printf("=== Figure 3: generation for dependent attributes "
              "(PA vs PAP over l) ===\n");
  const std::size_t pairs = dd::bench::BenchPairs();
  std::printf("fixed |M| = %zu\n", pairs);

  for (const auto& rule : dd::bench::kRules) {
    dd::bench::RuleWorkload w = dd::bench::MakeRuleWorkload(rule.number, pairs);
    std::printf("\n%s\n", rule.label);
    std::printf("%4s %12s %12s %16s %16s\n", "l", "PA(s)", "PAP(s)",
                "PA evaluated", "PAP evaluated");
    std::vector<std::string> json_rows;
    for (std::size_t l = 1; l <= 7; ++l) {
      auto pa_opts = dd::bench::ApproachOptions("DA+PA", l);
      auto pap_opts = dd::bench::ApproachOptions("DA+PAP", l);
      auto pa = dd::DetermineThresholds(w.matching, w.rule, pa_opts);
      auto pap = dd::DetermineThresholds(w.matching, w.rule, pap_opts);
      if (!pa.ok() || !pap.ok()) return 1;
      std::printf("%4zu %11.3fs %11.3fs %16zu %16zu\n", l,
                  pa->elapsed_seconds, pap->elapsed_seconds,
                  pa->stats.rhs.evaluated, pap->stats.rhs.evaluated);
      std::fflush(stdout);
      json_rows.push_back(dd::StrFormat(
          "{\"figure\": 3, \"rule\": %d, \"l\": %zu, \"pairs\": %zu, "
          "\"pa_us\": %.1f, \"pap_us\": %.1f, \"pa_evaluated\": %zu, "
          "\"pap_evaluated\": %zu}",
          rule.number, l, w.matching.num_tuples(),
          pa->elapsed_seconds * 1e6, pap->elapsed_seconds * 1e6,
          pa->stats.rhs.evaluated, pap->stats.rhs.evaluated));
    }
    for (const std::string& row : json_rows) {
      std::printf("BENCH_JSON %s\n", row.c_str());
    }
    std::fflush(stdout);
  }
  std::printf("\nexpected shape (paper): PA constant in l; PAP below PA and "
              "increasing with l.\n");
  return 0;
}
