#include "core/expected_utility.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/test_util.h"

namespace dd {
namespace {

constexpr std::uint64_t kM = 100000;  // Matching-relation size.

UtilityOptions DefaultOptions() {
  UtilityOptions opts;
  opts.prior_mean_cq = 0.25;
  opts.prior_strength = 0.05;
  return opts;
}

TEST(ExpectedUtilityTest, ClosedFormMatchesDefinition) {
  // Ū = (D·C·Q + h·μ) / (D + h) in fractions of M.
  UtilityOptions opts = DefaultOptions();
  const std::uint64_t n = 40000;  // D = 0.4
  const double c = 0.75;
  const double q = 0.8;
  const double expected =
      (0.4 * c * q + 0.05 * 0.25) / (0.4 + 0.05);
  EXPECT_NEAR(ExpectedUtility(kM, n, c, q, opts), expected, 1e-12);
}

TEST(ExpectedUtilityTest, InUnitInterval) {
  UtilityOptions opts = DefaultOptions();
  for (std::uint64_t n : {0ull, 1ull, 10ull, 1000ull, 100000ull}) {
    for (double c : {0.0, 0.3, 1.0}) {
      for (double q : {0.0, 0.5, 1.0}) {
        double u = ExpectedUtility(kM, n, c, q, opts);
        EXPECT_GE(u, 0.0) << n << "," << c << "," << q;
        EXPECT_LE(u, 1.0) << n << "," << c << "," << q;
      }
    }
  }
}

TEST(ExpectedUtilityTest, ZeroSupportGivesPriorMean) {
  UtilityOptions opts = DefaultOptions();
  EXPECT_NEAR(ExpectedUtility(kM, 0, 0.0, 1.0, opts), 0.25, 1e-12);
  EXPECT_NEAR(ExpectedUtility(0, 0, 0.0, 1.0, opts), 0.25, 1e-12);
}

TEST(ExpectedUtilityTest, FullSupportApproachesCq) {
  // D = 1 with weak prior: Ū close to C·Q.
  UtilityOptions opts = DefaultOptions();
  opts.prior_strength = 0.01;
  double u = ExpectedUtility(kM, kM, 0.8, 0.75, opts);  // CQ = 0.6
  EXPECT_NEAR(u, 0.6, 0.01);
  // h = 0 degenerates exactly to the MLE.
  opts.prior_strength = 0.0;
  EXPECT_NEAR(ExpectedUtility(kM, kM, 0.8, 0.75, opts), 0.6, 1e-12);
}

TEST(ExpectedUtilityTest, Theorem2MonotoneInCqAtFixedD) {
  UtilityOptions opts = DefaultOptions();
  const std::uint64_t n = 5000;
  double prev = -1.0;
  for (double cq = 0.0; cq <= 1.0001; cq += 0.05) {
    double u = ExpectedUtility(kM, n, cq, 1.0, opts);
    EXPECT_GT(u, prev) << "cq=" << cq;
    prev = u;
  }
}

TEST(ExpectedUtilityTest, SymmetricInConfidenceAndQuality) {
  UtilityOptions opts = DefaultOptions();
  double a = ExpectedUtility(kM, 1000, 0.8, 0.5, opts);
  double b = ExpectedUtility(kM, 1000, 0.5, 0.8, opts);
  double c = ExpectedUtility(kM, 1000, 0.4, 1.0, opts);
  EXPECT_NEAR(a, b, 1e-12);
  EXPECT_NEAR(a, c, 1e-12);
}

TEST(ExpectedUtilityTest, LowSupportHighConfidencePatternsLose) {
  // The Table III shape: the FD has C·Q = 0.36 on a sliver of support
  // and must score below a broad pattern with C·Q = 0.30.
  UtilityOptions opts = DefaultOptions();
  opts.prior_mean_cq = 0.1;
  const double fd = ExpectedUtility(kM, kM / 56, 0.3595, 1.0, opts);
  const double dd = ExpectedUtility(kM, kM * 2 / 5, 0.376, 0.8, opts);
  EXPECT_GT(dd, fd);
}

TEST(ExpectedUtilityTest, ReproducesTableIIIRanking) {
  // The six patterns + FD of the paper's Table III, as (D, C, Q). The
  // shrinkage posterior mean must reproduce the published Ū ordering,
  // including the ϕ1/ϕ2 inversion (lower S but higher C wins).
  UtilityOptions opts = DefaultOptions();
  opts.prior_mean_cq = 0.1;
  struct Row {
    double s, c, q;
  };
  const Row rows[] = {
      {0.1529, 0.3760, 0.80},  // ϕ1
      {0.1764, 0.3667, 0.80},  // ϕ2
      {0.1632, 0.3774, 0.75},  // ϕ3
      {0.1657, 0.3657, 0.75},  // ϕ4
      {0.1529, 0.3852, 0.70},  // ϕ5
      {0.1764, 0.3985, 0.65},  // ϕ6
      {0.0064, 0.3595, 1.00},  // fd
  };
  double prev = 2.0;
  for (const Row& r : rows) {
    const double d = r.s / r.c;
    const auto n = static_cast<std::uint64_t>(d * kM);
    const double u = ExpectedUtility(kM, n, r.c, r.q, opts);
    EXPECT_LT(u, prev) << "row (" << r.s << "," << r.c << "," << r.q << ")";
    prev = u;
  }
}

TEST(ExpectedUtilityTest, Theorem1Exactly) {
  // S1/S2 = ρ >= 1, C1 >= ρ C2, Q1 >= Q2/ρ  ⇒  Ū1 >= Ū2.
  UtilityOptions opts = DefaultOptions();
  for (double rho : {1.0, 1.3, 2.0}) {
    for (double s2 : {0.05, 0.2, 0.4}) {
      for (double c2 : {0.2, 0.45}) {
        for (double q2 : {0.4, 0.9}) {
          // Strictly exceed the theorem's minimum requirements so the
          // comparison is non-vacuous (C1 > ρC2, Q1 > Q2/ρ).
          const double s1 = s2 * rho;
          const double c1 = std::min(0.99, c2 * rho * 1.1);
          const double q1 = std::min(1.0, q2 / rho * 1.05);
          const double d1 = s1 / c1;
          const double d2 = s2 / c2;
          if (d1 > 1.0 || d2 > 1.0) continue;
          const double u1 = ExpectedUtility(
              kM, static_cast<std::uint64_t>(d1 * kM), c1, q1, opts);
          const double u2 = ExpectedUtility(
              kM, static_cast<std::uint64_t>(d2 * kM), c2, q2, opts);
          EXPECT_GE(u1, u2 - 1e-9)
              << rho << "," << s2 << "," << c2 << "," << q2;
        }
      }
    }
  }
}

TEST(ExpectedUtilityTest, Theorem3BoundHoldsExactly) {
  // D1 >= D2 and CQ2 <= 1 - (D1/D2)(1 - CQ1)  ⇒  Ū1 >= Ū2 — the DAP
  // advanced pruning bound (formula 6).
  UtilityOptions opts = DefaultOptions();
  for (double d1 : {0.3, 0.6, 0.9}) {
    for (double d2 : {0.1, 0.3, 0.6}) {
      if (d2 > d1) continue;
      for (double cq1 : {0.5, 0.8, 0.95}) {
        const double ratio = d1 / d2;
        const double bound = 1.0 - ratio * (1.0 - cq1);
        if (bound <= 0.0) continue;
        const double u1 = ExpectedUtility(
            kM, static_cast<std::uint64_t>(d1 * kM), cq1, 1.0, opts);
        for (double f : {0.0, 0.5, 1.0}) {
          const double cq2 = bound * f;
          const double u2 = ExpectedUtility(
              kM, static_cast<std::uint64_t>(d2 * kM), cq2, 1.0, opts);
          EXPECT_LE(u2, u1 + 1e-9)
              << "d1=" << d1 << " d2=" << d2 << " cq1=" << cq1
              << " cq2=" << cq2;
        }
      }
    }
  }
}

// DAP's seed: no C·Q at or below ClosedFormCqThreshold can lift Ū
// above the floor (Ū is monotone in C·Q, so checking C·Q = τ covers
// them all), and the threshold sits just under the exact one. Floors
// are other patterns' utilities, so exact ties occur; supports reach
// past 2^32 tuples.
TEST(ExpectedUtilityTest, ClosedFormCqThresholdNeverExceedsExact) {
  Rng rng(5);
  for (std::uint64_t total : {1ull, 7ull, 100000ull, 6000000000ull}) {
    for (double h : {0.0, 0.05, 0.2}) {
      UtilityOptions opts = DefaultOptions();
      opts.prior_strength = h;
      for (int trial = 0; trial < 400; ++trial) {
        opts.prior_mean_cq = rng.NextDouble();
        const std::uint64_t n = 1 + rng.NextBounded(total);
        const std::uint64_t ref_n = 1 + rng.NextBounded(total);
        const double ref_cq = rng.NextDouble();
        const double floor = ExpectedUtility(total, ref_n, ref_cq, 1.0, opts);
        const double tau = ClosedFormCqThreshold(total, n, floor, opts);
        SCOPED_TRACE(testing::Message() << "total=" << total << " h=" << h
                                        << " n=" << n << " floor=" << floor);
        // τ < 0: every C·Q beats the floor; τ >= 1: none does.
        if (tau < 0.0 || tau >= 1.0) continue;
        EXPECT_LE(ExpectedUtility(total, n, tau, 1.0, opts), floor);
        // Within a few units of the 1e-9 relative margin of the exact
        // threshold: C·Q a little above τ can beat the floor.
        const double a = h * static_cast<double>(total) * opts.prior_mean_cq;
        const double slack = 1e-8 * (floor * (static_cast<double>(n) +
                                              h * static_cast<double>(total)) +
                                     a) /
                             static_cast<double>(n);
        if (tau + slack < 1.0) {
          EXPECT_GT(ExpectedUtility(total, n, tau + slack, 1.0, opts), floor);
        }
      }
    }
  }
}

TEST(ExpectedUtilityTest, PriorShiftsLowSupportResults) {
  UtilityOptions low = DefaultOptions();
  low.prior_mean_cq = 0.05;
  UtilityOptions high = DefaultOptions();
  high.prior_mean_cq = 0.95;
  // Low support: prior matters.
  EXPECT_LT(ExpectedUtility(kM, 30, 0.5, 1.0, low),
            ExpectedUtility(kM, 30, 0.5, 1.0, high));
  // High support: prior washes out (but not entirely, h > 0).
  const double diff = ExpectedUtility(kM, kM, 0.5, 1.0, high) -
                      ExpectedUtility(kM, kM, 0.5, 1.0, low);
  EXPECT_LT(diff, 0.1);
  EXPECT_GE(diff, 0.0);
}

TEST(ExpectedUtilityTest, NumericIntegrationMatchesClosedForm) {
  UtilityOptions closed = DefaultOptions();
  UtilityOptions numeric = DefaultOptions();
  numeric.method = UtilityMethod::kNumericIntegration;
  numeric.integration_intervals = 2048;
  for (std::uint64_t n : {100ull, 5000ull, 60000ull}) {
    for (double c : {0.1, 0.5, 0.9}) {
      for (double q : {0.3, 1.0}) {
        const double a = ExpectedUtility(kM, n, c, q, closed);
        const double b = ExpectedUtility(kM, n, c, q, numeric);
        EXPECT_NEAR(a, b, 1e-4) << n << "," << c << "," << q;
      }
    }
  }
}

TEST(EstimatePriorMeanCqTest, DeterministicAndInRange) {
  MatchingRelation m = testutil::RandomMatching(2, 8, 400, 5);
  ResolvedRule rule{{0}, {1}};
  ScanMeasureProvider provider(m, rule);
  double a = EstimatePriorMeanCq(&provider, 1, 1, 8, 50, 7);
  double b = EstimatePriorMeanCq(&provider, 1, 1, 8, 50, 7);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_GE(a, 0.0);
  EXPECT_LE(a, 1.0);
  double c = EstimatePriorMeanCq(&provider, 1, 1, 8, 50, 8);
  EXPECT_GE(c, 0.0);
  EXPECT_LE(c, 1.0);
}

}  // namespace
}  // namespace dd
