#include "core/expected_utility.h"

#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "core/measures.h"

namespace dd {

namespace {

// The Beta prior's pseudo-counts over a matching relation of `total`
// tuples: a = h·M·CQ̄ successes and b = h·M·(1 − CQ̄) failures.
struct PriorCounts {
  double a;
  double b;
};

PriorCounts PriorPseudoCounts(std::uint64_t total,
                              const UtilityOptions& options) {
  const double mu = Clamp(options.prior_mean_cq, 0.0, 1.0);
  const double hm = options.prior_strength * static_cast<double>(total);
  return {hm * mu, hm * (1.0 - mu)};
}

// Posterior mean of the Beta(k + a, n - k + b) distribution evaluated by
// max-normalized Simpson integration in log space; cross-validates the
// closed form (k + a) / (n + a + b).
double IntegratePosteriorMean(double k, double n, double a, double b,
                              const UtilityOptions& options) {
  // Exponents of the posterior density u^(k+a-1) (1-u)^(n-k+b-1),
  // clamped to >= 0 so Simpson never sees a boundary singularity (the
  // clamp only matters for prior pseudo-counts below one observation).
  const double ea = std::max(k + a - 1.0, 0.0);
  const double eb = std::max(n - k + b - 1.0, 0.0);
  auto log_weight = [&](double u) {
    if (u <= 0.0) return ea > 0.0 ? -1e300 : 0.0;
    if (u >= 1.0) return eb > 0.0 ? -1e300 : 0.0;
    return ea * std::log(u) + eb * std::log1p(-u);
  };
  const double alpha = k + a;
  const double beta = n - k + b;
  const double peak = alpha / (alpha + beta);
  const double sigma = std::sqrt(alpha * beta /
                                 ((alpha + beta) * (alpha + beta) *
                                  (alpha + beta + 1.0)));
  return PosteriorMean(log_weight, peak, sigma, options.window_sigmas,
                       options.integration_intervals);
}

}  // namespace

double ExpectedUtility(std::uint64_t total, std::uint64_t lhs_count,
                       double confidence, double quality,
                       const UtilityOptions& options) {
  const double mu = Clamp(options.prior_mean_cq, 0.0, 1.0);
  if (total == 0) return mu;
  DD_CHECK_LE(lhs_count, total);
  const double n = static_cast<double>(lhs_count);
  const double cq = Clamp(confidence, 0.0, 1.0) * Clamp(quality, 0.0, 1.0);
  const double k = cq * n;

  const double h = options.prior_strength;
  DD_CHECK_GE(h, 0.0);
  if (h <= 0.0 && lhs_count == 0) return mu;  // No data, no prior.
  const auto [a, b] = PriorPseudoCounts(total, options);

  if (options.method == UtilityMethod::kNumericIntegration) {
    return IntegratePosteriorMean(k, n, a, b, options);
  }
  // Closed form: Beta-Binomial posterior mean. In fractions of M this
  // is (D·C·Q + h·CQ̄) / (D + h).
  return (k + a) / (n + a + b);
}

double ClosedFormCqThreshold(std::uint64_t total, std::uint64_t lhs_count,
                             double utility_floor,
                             const UtilityOptions& options) {
  DD_CHECK_GT(lhs_count, 0u);
  DD_CHECK_LE(lhs_count, total);
  const double n = static_cast<double>(lhs_count);
  const auto [a, b] = PriorPseudoCounts(total, options);
  const double scaled_floor = utility_floor * (n + a + b);
  const double margin = 1e-9 * (std::abs(scaled_floor) + a) / n;
  return (scaled_floor - a) / n - margin;
}

double EstimatePriorMeanCq(MeasureProvider* provider, std::size_t lhs_dims,
                           std::size_t rhs_dims, int dmax,
                           std::size_t sample_size, std::uint64_t seed) {
  DD_CHECK_GT(sample_size, 0u);
  Rng rng(seed);
  double sum = 0.0;
  for (std::size_t s = 0; s < sample_size; ++s) {
    Pattern p;
    p.lhs.resize(lhs_dims);
    p.rhs.resize(rhs_dims);
    for (auto& lvl : p.lhs) {
      lvl = static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(dmax) + 1));
    }
    for (auto& lvl : p.rhs) {
      lvl = static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(dmax) + 1));
    }
    const Measures m = ComputeMeasures(provider, p, dmax);
    sum += m.confidence * m.quality;
  }
  return sum / static_cast<double>(sample_size);
}

}  // namespace dd
