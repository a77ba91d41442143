// Ablation: paper-faithful O(M)-per-count scanning vs the prefix-sum
// grid extension (DESIGN.md §5), end to end. Runs the full DAP+PAP
// determination on every rule under both providers —
//   scan  one O(M) pass per count over the level-bitmap index
//         (paper's cost model)
//   grid  O(M + d^c) build, O(1) counts
// — and checks that both return the same answer: the same patterns and
// bit-identical utilities. Exits nonzero on a mismatch or an error.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "benchmarks/bench_util.h"

namespace {

// Providers must agree exactly, as ddbench's answer checks require.
bool SameAnswer(const std::vector<dd::DeterminedPattern>& got,
                const std::vector<dd::DeterminedPattern>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(got[i].pattern == want[i].pattern)) return false;
    if (std::bit_cast<std::uint64_t>(got[i].utility) !=
        std::bit_cast<std::uint64_t>(want[i].utility)) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  std::printf("=== Ablation: measure provider (DAP+PAP, largest U) ===\n");
  const std::size_t pairs = dd::bench::BenchPairs();
  std::printf("fixed |M| = %zu\n", pairs);
  const char* providers[] = {"scan", "grid"};

  bool all_agree = true;
  for (const auto& rule : dd::bench::kRules) {
    dd::bench::RuleWorkload w = dd::bench::MakeRuleWorkload(rule.number, pairs);
    std::printf("\n%s\n", rule.label);
    std::printf("%-12s %12s %16s %12s\n", "provider", "time", "rows scanned",
                "best U");
    std::vector<dd::DeterminedPattern> reference;
    bool agree = true;
    for (const char* provider : providers) {
      auto opts = dd::bench::ApproachOptions("DAP+PAP");
      opts.provider = provider;
      auto result = dd::DetermineThresholds(w.matching, w.rule, opts);
      if (!result.ok() || result->patterns.empty()) {
        std::printf("%-12s %12s\n", provider, "error");
        agree = false;
        continue;
      }
      if (provider == providers[0]) {
        reference = result->patterns;
      } else if (!SameAnswer(result->patterns, reference)) {
        agree = false;
      }
      std::printf("%-12s %11.3fs %16llu %12.4f\n", provider,
                  result->elapsed_seconds,
                  static_cast<unsigned long long>(
                      result->provider_stats.rows_scanned),
                  result->patterns.front().utility);
    }
    std::printf("providers agree on the answer: %s\n",
                agree ? "yes" : "NO (BUG)");
    all_agree = all_agree && agree;
  }
  std::printf("\nexpected shape: grid >> scan in speed, with identical\n"
              "answers — the pruning algorithms matter exactly when\n"
              "counting is expensive.\n");
  return all_agree ? 0 : 1;
}
