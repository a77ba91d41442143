// Regenerates paper Figure 4: pruning power of DA vs DAP over the
// answer size l (both with PAP on the dependent side). The pruning rate
// is the fraction of C_X × C_Y candidates whose confidence computation
// was avoided. Expected shape: DAP >= DA at every l; both decrease as l
// grows.
//
// The DAP column is this library's DAP, which under the closed-form
// utility also skips every ϕ[X] that cannot enter the top-l ("skipped")
// and seeds PAP with the exact Ū threshold (core/da.h). The "DAP
// (formula 6)" column is the paper's literal Algorithm 4, formula 6
// alone: the same DAP run under the formula-5 integral
// (UtilityMethod::kNumericIntegration), which keeps Figure 4's own
// number reproducible.

#include <cstdio>

#include "benchmarks/bench_util.h"

int main() {
  std::printf("=== Figure 4: pruning power (pruning rate over l) ===\n");
  const std::size_t pairs = dd::bench::BenchPairs();
  std::printf("fixed |M| = %zu\n", pairs);

  for (const auto& rule : dd::bench::kRules) {
    dd::bench::RuleWorkload w = dd::bench::MakeRuleWorkload(rule.number, pairs);
    std::printf("\n%s\n", rule.label);
    std::printf("%4s %12s %12s %8s %16s\n", "l", "DA rate", "DAP rate",
                "skipped", "DAP (formula 6)");
    for (std::size_t l = 1; l <= 7; ++l) {
      // Both sides use PAP with the same (mid-first) C_Y order so the
      // comparison isolates the advanced bound; Table V covers orders.
      auto da_opts = dd::bench::ApproachOptions("DA+PAP", l);
      auto dap_opts = da_opts;
      dap_opts.lhs_algorithm = dd::LhsAlgorithm::kDap;
      auto f6_opts = dap_opts;
      f6_opts.utility.method = dd::UtilityMethod::kNumericIntegration;
      auto da = dd::DetermineThresholds(w.matching, w.rule, da_opts);
      auto dap = dd::DetermineThresholds(w.matching, w.rule, dap_opts);
      auto f6 = dd::DetermineThresholds(w.matching, w.rule, f6_opts);
      if (!da.ok() || !dap.ok() || !f6.ok()) return 1;
      std::printf("%4zu %12.4f %12.4f %8zu %16.4f\n", l,
                  da->stats.PruningRate(), dap->stats.PruningRate(),
                  dap->stats.lhs_bounded, f6->stats.PruningRate());
      std::fflush(stdout);
    }
  }
  std::printf("\nexpected shape (paper): DAP pruning rate >= DA at every l; "
              "rates decline as l grows.\n");
  return 0;
}
