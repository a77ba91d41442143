// Regenerates paper Figure 5: "Generation for determinant attributes" —
// time of DA vs DAP (both with PAP) as the answer size l grows, on all
// four rules. Expected shape: DAP at or below DA for every l. Both
// sides run on one thread: DAP's LHS sweep is serial, so a DA on the
// worker pool would time the pool, not the algorithm.

#include <cstdio>

#include "benchmarks/bench_util.h"

int main() {
  std::printf("=== Figure 5: generation for determinant attributes "
              "(DA vs DAP over l) ===\n");
  const std::size_t pairs = dd::bench::BenchPairs();
  const std::size_t threads = 1;
  std::printf("fixed |M| = %zu, threads = %zu (DA and DAP)\n", pairs,
              threads);

  for (const auto& rule : dd::bench::kRules) {
    dd::bench::RuleWorkload w = dd::bench::MakeRuleWorkload(rule.number, pairs);
    std::printf("\n%s\n", rule.label);
    std::printf("%4s %12s %12s\n", "l", "DA(s)", "DAP(s)");
    for (std::size_t l = 1; l <= 7; ++l) {
      // Matched (mid-first) C_Y orders isolate the advanced bound's
      // contribution; the order trade-off itself is Table V.
      auto da_opts = dd::bench::ApproachOptions("DA+PAP", l);
      da_opts.threads = threads;
      auto dap_opts = da_opts;
      dap_opts.lhs_algorithm = dd::LhsAlgorithm::kDap;
      auto da = dd::DetermineThresholds(w.matching, w.rule, da_opts);
      auto dap = dd::DetermineThresholds(w.matching, w.rule, dap_opts);
      if (!da.ok() || !dap.ok()) return 1;
      std::printf("%4zu %11.3fs %11.3fs\n", l, da->elapsed_seconds,
                  dap->elapsed_seconds);
      std::fflush(stdout);
    }
  }
  std::printf("\nexpected shape (paper): DAP <= DA at every l.\n");
  return 0;
}
