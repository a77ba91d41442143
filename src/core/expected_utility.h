// Expected utility Ū(ϕ) = E(U | C, D, Q) (paper §IV, formula 5).
//
// The prediction probability u of formula 4 is estimated as the
// posterior mean under a Binomial likelihood — n = count(b ⊨ ϕ[X])
// trials with k = n·C(ϕ)·Q(ϕ) quality-weighted successes — and a
// conjugate Beta prior whose mean is CQ̄ (the population mean of C·Q
// over candidate patterns, the paper's π(u) estimated from the data)
// and whose equivalent sample size is a fixed fraction h of the
// matching-relation size M. In fractions of M this gives the closed
// form
//
//     Ū(ϕ) = (D·C·Q + h·CQ̄) / (D + h).
//
// This estimator has exactly the properties the paper proves:
//   Theorem 1 — S1/S2 = ρ ≥ 1, C1/C2 ≥ ρ, Q1/Q2 ≥ 1/ρ ⇒ Ū1 ≥ Ū2
//     (numerator S1·Q1 ≥ S2·Q2 while D1 = S1/C1 ≤ D2 shrinks the
//     denominator).
//   Theorem 2 — equal D: Ū is strictly increasing in C·Q.
//   Theorem 3 — D1 ≥ D2 and C2Q2 ≤ 1 − (D1/D2)(1 − C1Q1) ⇒ Ū1 ≥ Ū2
//     (along the bound, Ū2 as a function of D2 is increasing and equals
//     Ū1 at D2 = D1), which is what validates the DAP pruning bound of
//     formula 6.
// It also reproduces the paper's Table III ranking shape: the FD
// pattern scores lowest despite its perfect dependent quality, because
// its support is too small to escape the (low) prior mean.
//
// A numeric-integration evaluation of the same Beta-Binomial posterior
// is provided for cross-validation of the closed form.

#ifndef DD_CORE_EXPECTED_UTILITY_H_
#define DD_CORE_EXPECTED_UTILITY_H_

#include <cstdint>

#include "core/measure_provider.h"

namespace dd {

enum class UtilityMethod {
  kClosedForm,          // (D·C·Q + h·CQ̄) / (D + h); the default.
  kNumericIntegration,  // Simpson on the Beta posterior (validation).
};

struct UtilityOptions {
  // Prior mean CQ̄; estimated from the data by EstimatePriorMeanCq or
  // set manually.
  double prior_mean_cq = 0.25;

  // Equivalent sample size of the prior as a fraction h of M. Larger
  // values penalize low-support patterns harder; 0 degenerates to the
  // maximum-likelihood estimate C·Q.
  double prior_strength = 0.05;

  UtilityMethod method = UtilityMethod::kClosedForm;

  // Integration controls (kNumericIntegration only).
  double window_sigmas = 12.0;
  std::size_t integration_intervals = 512;
};

// Expected utility for a pattern over a matching relation of `total`
// tuples with n = lhs_count tuples satisfying ϕ[X], confidence C and
// dependent quality Q. Inputs outside [0, 1] are clamped; total == 0
// returns the prior mean.
double ExpectedUtility(std::uint64_t total, std::uint64_t lhs_count,
                       double confidence, double quality,
                       const UtilityOptions& options);

// The C·Q that a pattern with n = lhs_count of `total` tuples must
// strictly exceed for its closed-form Ū to strictly exceed
// `utility_floor`: τ = (Ū_floor·(n + a + b) − a)/n with the prior
// pseudo-counts a, b of ExpectedUtility, lowered by a rounding margin of
// 1e-9 relative to the terms of τ (far above the few ulps the two
// computations can differ by), so that every C·Q at or below the
// returned value has ExpectedUtility <= utility_floor. DAP seeds PAP
// with it (da.h). Closed form only; requires 0 < lhs_count <= total.
double ClosedFormCqThreshold(std::uint64_t total, std::uint64_t lhs_count,
                             double utility_floor,
                             const UtilityOptions& options);

// Estimates the prior mean CQ̄ as the average C·Q over `sample_size`
// pseudo-random candidate patterns (the paper models the prior from the
// histogram of observed CQ). Deterministic given `seed`. Costs
// 2·sample_size provider queries.
double EstimatePriorMeanCq(MeasureProvider* provider, std::size_t lhs_dims,
                           std::size_t rhs_dims, int dmax,
                           std::size_t sample_size, std::uint64_t seed);

}  // namespace dd

#endif  // DD_CORE_EXPECTED_UTILITY_H_
